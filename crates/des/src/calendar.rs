//! A bucketed calendar queue: the [`Sim`](crate::Sim) event queue.
//!
//! Replaces the original `BinaryHeap` with the classic discrete-event
//! structure (Brown 1988): a ring of time buckets plus an overflow list
//! for events beyond the ring's horizon. Near-future scheduling — the
//! overwhelmingly common case for [`Sim`](crate::Sim)'s real load, the
//! kubelet/controller scenario engine, whose latencies and backoffs are
//! milliseconds apart — becomes an array index instead of a global heap
//! sift, and popping touches one small per-bucket heap instead of
//! rebalancing a queue-wide structure.
//!
//! **Ordering contract**: entries pop in strictly ascending `(time,
//! seq)` order. `seq` is the caller's tie-break — [`Sim`](crate::Sim)
//! passes its insertion counter, so ties in time drain FIFO, or a
//! sequence number reserved earlier
//! ([`Sim::at_slot`](crate::Sim::at_slot)), so pushes need not arrive
//! in `seq` order. Because `(time, seq)` is a total order (no two
//! entries share a `seq`), the pop sequence is *bit-identical* to the
//! old heap's — proven by the oracle test in
//! `tests/calendar_props.rs`, which drives both structures through
//! arbitrary schedule/pop interleavings under unique, non-monotone
//! `seq`s.
//!
//! # Design notes
//!
//! * **Bucket width** is `2^16` ns (≈ 65.5 µs, [`CalendarQueue::BUCKET_NS`]),
//!   chosen empirically against both `Sim` regimes. The k8s
//!   control-plane scenarios schedule at millisecond granularity (4 ms
//!   API writes, 10 ms webhooks, 40 ms kubelet syncs): buckets much
//!   narrower than that (µs-scale) push nearly every event past the
//!   ring horizon, so each window advance rescans the whole overflow
//!   list; buckets much wider (ms-scale) funnel whole scenarios into a
//!   few buckets, wasting the day-granular window. 65.5 µs buckets give
//!   a ≈ 16.8 ms horizon that absorbs the common control-plane
//!   latencies, and measured fastest on both the churn and steady-state
//!   scenarios (the ns/µs-scale users — test rigs — keep few events
//!   in flight, so bucket width barely matters there; the fabric and
//!   MPI data paths never enqueue here at all — they advance explicit
//!   per-rank virtual-time cursors; the sharded fabric sweeps do
//!   enqueue µs-scale bursts — a few hundred entries per shard since
//!   injection is streamed, one launch per node plus the continuations
//!   in flight — which the per-bucket heaps below absorb).
//! * **Ring size** is 256 buckets (≈ 16.8 ms horizon). Events past the
//!   horizon (kubelet retry backoffs, multi-second job runtimes) wait
//!   in an unsorted `overflow` list whose minimum *day* (bucket-granular
//!   timestamp) is tracked incrementally; when the cursor reaches it,
//!   eligible events migrate into the ring in one pass. A day maps to
//!   bucket `day % 256`, and any 256 consecutive days map to distinct
//!   buckets, so within the active window each bucket holds exactly one
//!   day's events.
//! * **Occupancy bitmask** (`[u64; 4]`) finds the next non-empty bucket
//!   without touching 256 bucket headers.
//! * **Buckets are hybrid** (`Bucket`): an unsorted `Vec` popped by
//!   linear min-scan while small — the fastest structure for the
//!   handful of entries a bucket usually holds — that promotes itself
//!   to a binary min-heap on `(time, seq)` once a dense burst crosses
//!   32 entries. The sharded fabric sweeps keep a few hundred
//!   sub-bucket-width events in one bucket (thousands, before their
//!   injection was streamed) — still ten times the threshold, where a
//!   per-pop scan goes quadratic in the burst size; the heap form
//!   keeps dense days at `O(log k)` per operation, and demotes back to
//!   the `Vec` form when drained.

use std::collections::BinaryHeap;

use crate::time::SimTime;

const BUCKET_SHIFT: u32 = 16;
const NBUCKETS: usize = 256;
const DAY_MASK: u64 = NBUCKETS as u64 - 1;
const WORDS: usize = NBUCKETS / 64;

/// One queued item with its schedule key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// Absolute due time.
    pub time: SimTime,
    /// Queue-wide unique sequence number: the tie-break within a time.
    pub seq: u64,
    /// The payload (an event closure in [`Sim`](crate::Sim)).
    pub item: T,
}

/// [`Entry`] with inverted `(time, seq)` ordering, so a max-[`BinaryHeap`]
/// of these behaves as a min-heap on the schedule key. The payload is
/// deliberately excluded from the comparison (and `seq` is unique
/// queue-wide, so the order is total without it).
struct HeapEntry<T>(Entry<T>);

/// A bucket holding more entries than this promotes itself to a heap.
/// Below it, a linear min-scan per pop is cheaper than heap sifts —
/// swapping unconditionally to heap buckets measured ~15% slower on the
/// churn and steady-state scenarios, whose buckets hold a handful of
/// entries each.
const PROMOTE_AT: usize = 32;

/// One ring bucket. Starts as an unsorted `Vec` popped by linear
/// min-scan — the fastest structure for the handful of entries a bucket
/// usually holds — and promotes itself to a binary min-heap once a
/// dense burst crosses [`PROMOTE_AT`] (the sharded fabric sweeps keep a
/// few hundred sub-bucket-width events in one bucket, where the per-pop
/// scan goes quadratic). Draining a promoted bucket to empty
/// demotes it back to the `Vec` form, so a one-off burst does not tax
/// the slot's later (sparse) days.
enum Bucket<T> {
    Lin(Vec<Entry<T>>),
    Heap(BinaryHeap<HeapEntry<T>>),
}

impl<T> Bucket<T> {
    #[inline]
    fn is_empty(&self) -> bool {
        match self {
            Bucket::Lin(v) => v.is_empty(),
            Bucket::Heap(h) => h.is_empty(),
        }
    }

    #[inline]
    fn push(&mut self, entry: Entry<T>) {
        match self {
            Bucket::Lin(v) if v.len() < PROMOTE_AT => v.push(entry),
            Bucket::Lin(v) => {
                let mut heap: BinaryHeap<HeapEntry<T>> =
                    std::mem::take(v).into_iter().map(HeapEntry).collect();
                heap.push(HeapEntry(entry));
                *self = Bucket::Heap(heap);
            }
            Bucket::Heap(h) => h.push(HeapEntry(entry)),
        }
    }

    /// Remove and return the `(time, seq)`-minimal entry. The bucket
    /// must be non-empty.
    fn pop_min(&mut self) -> Entry<T> {
        match self {
            Bucket::Lin(v) => {
                debug_assert!(!v.is_empty());
                let mut mi = 0;
                for (i, e) in v.iter().enumerate().skip(1) {
                    let m = &v[mi];
                    if (e.time, e.seq) < (m.time, m.seq) {
                        mi = i;
                    }
                }
                v.swap_remove(mi)
            }
            Bucket::Heap(h) => {
                let entry = h.pop().expect("pop_min on an empty bucket").0;
                if h.is_empty() {
                    *self = Bucket::Lin(Vec::new());
                }
                entry
            }
        }
    }

    /// Due time of the minimal entry, without removing it.
    fn min_time(&self) -> Option<SimTime> {
        match self {
            Bucket::Lin(v) => v.iter().map(|e| e.time).min(),
            Bucket::Heap(h) => h.peek().map(|e| e.0.time),
        }
    }
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.time, self.0.seq) == (other.0.time, other.0.seq)
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: the heap's max is the schedule-order minimum.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// The bucketed calendar queue. See the module docs for the design.
pub struct CalendarQueue<T> {
    buckets: Vec<Bucket<T>>,
    /// Bit `b` set ⇔ `buckets[b]` is non-empty.
    occupied: [u64; WORDS],
    /// Events whose day lies at or past `base_day + NBUCKETS`.
    overflow: Vec<Entry<T>>,
    /// Minimum day over `overflow` (`u64::MAX` when empty). Maintained
    /// on push; recomputed on migration.
    overflow_min_day: u64,
    /// The earliest day the ring window can still hold events for. Only
    /// advances (time is monotone), so `[base_day, base_day + NBUCKETS)`
    /// is the active window.
    base_day: u64,
    len: usize,
}

#[inline]
fn day_of(t: SimTime) -> u64 {
    t.as_nanos() >> BUCKET_SHIFT
}

impl<T> CalendarQueue<T> {
    /// Width of one bucket in nanoseconds.
    pub const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

    /// An empty queue with its window starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Bucket::Lin(Vec::new())).collect(),
            occupied: [0; WORDS],
            overflow: Vec::new(),
            overflow_min_day: u64::MAX,
            base_day: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. `time` must be at or past every time previously
    /// returned by [`pop`](Self::pop) or
    /// [`next_time_at_most`](Self::next_time_at_most) — both advance the
    /// ring window to the head they reveal, and a push behind the window
    /// would corrupt the slot↔day mapping. A *declined*
    /// `next_time_at_most` never advances the window past its deadline,
    /// so times after it only need to respect that deadline. The
    /// simulator's monotone clock guarantees all of this; `seq` must be
    /// unique queue-wide.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let d = day_of(time);
        debug_assert!(d >= self.base_day, "push into a drained day: {d} < {}", self.base_day);
        let entry = Entry { time, seq, item };
        if d >= self.base_day + NBUCKETS as u64 {
            self.overflow_min_day = self.overflow_min_day.min(d);
            self.overflow.push(entry);
        } else {
            let b = (d & DAY_MASK) as usize;
            self.buckets[b].push(entry);
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.len += 1;
    }

    /// Remove and return the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        let b = self.settle()?;
        let bucket = &mut self.buckets[b];
        let entry = bucket.pop_min();
        if bucket.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.len -= 1;
        Some(entry)
    }

    /// Due time of the earliest entry, **only if** it is at or before
    /// `deadline`; otherwise `None` *without mutating the queue*. This
    /// is the peek [`Sim::run_until`](crate::Sim::run_until) needs: an
    /// unconditional settle would slide the window up to a far-future
    /// head even when the caller then abandons it and schedules nearer
    /// events (which the slid window could no longer hold).
    pub fn next_time_at_most(&mut self, deadline: SimTime) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let min_day = self
            .first_occupied_day()
            .map_or(self.overflow_min_day, |d| d.min(self.overflow_min_day));
        if min_day > day_of(deadline) {
            return None;
        }
        // The head's day is within the deadline's, so settling advances
        // the window at most to `day_of(deadline)` — safe even if the
        // head's exact time turns out to be past the deadline.
        let b = self.settle()?;
        self.buckets[b].min_time().filter(|&t| t <= deadline)
    }

    /// Due time of the earliest entry without mutating the queue at
    /// all — no window slide, no overflow migration. This is the peek
    /// the sharded coordinator ([`ShardedSim`](crate::ShardedSim))
    /// needs between windows: it must take the minimum over *every*
    /// shard's queue before deciding the next window, and a settling
    /// peek on one shard would slide that ring's window up to its local
    /// head, after which a cross-shard injection below the slid window
    /// would corrupt the slot↔day mapping.
    ///
    /// Costs one bucket peek (`O(1)` for a promoted bucket, a short
    /// scan otherwise) plus one overflow scan (the overflow list is
    /// unsorted), so it is a between-windows operation, not a per-pop
    /// one.
    pub fn peek_min_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Within the active window each bucket holds exactly one day's
        // events and day order is time order, so the ring's minimum
        // lives in the first occupied day's bucket.
        let ring_min = self.first_occupied_day().and_then(|d| {
            let b = (d & DAY_MASK) as usize;
            self.buckets[b].min_time()
        });
        let overflow_min = self.overflow.iter().map(|e| e.time).min();
        match (ring_min, overflow_min) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Advance the window until the globally-minimal entry is in the
    /// ring, and return its bucket (the minimum is that bucket's
    /// minimal entry).
    fn settle(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            let ring_day = self.first_occupied_day();
            match ring_day {
                // The ring holds the minimum: every overflow entry is at
                // `overflow_min_day` or later.
                Some(d) if d < self.overflow_min_day => {
                    self.base_day = d;
                    let b = (d & DAY_MASK) as usize;
                    debug_assert!(!self.buckets[b].is_empty());
                    return Some(b);
                }
                // Overflow owns the next day (or ties it): slide the
                // window there and migrate what now fits. At least the
                // min-day overflow entries enter the ring, so the next
                // iteration returns.
                _ => {
                    let new_base = self.overflow_min_day;
                    debug_assert!(new_base != u64::MAX, "len > 0 but nothing anywhere");
                    self.base_day = new_base;
                    let horizon = new_base + NBUCKETS as u64;
                    let mut remaining_min = u64::MAX;
                    let mut i = 0;
                    while i < self.overflow.len() {
                        let d = day_of(self.overflow[i].time);
                        if d < horizon {
                            let entry = self.overflow.swap_remove(i);
                            let b = (d & DAY_MASK) as usize;
                            self.buckets[b].push(entry);
                            self.occupied[b / 64] |= 1 << (b % 64);
                        } else {
                            remaining_min = remaining_min.min(d);
                            i += 1;
                        }
                    }
                    self.overflow_min_day = remaining_min;
                }
            }
        }
    }

    /// Smallest day with a non-empty ring bucket, found by walking the
    /// occupancy bitmask. A non-empty bucket `b` holds the unique day in
    /// the active window congruent to `b` (mod `NBUCKETS`).
    fn first_occupied_day(&self) -> Option<u64> {
        let s0 = self.base_day & DAY_MASK;
        let mut best: Option<u64> = None;
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let slot = (w * 64) as u64 + m.trailing_zeros() as u64;
                let dist = slot.wrapping_sub(s0) & DAY_MASK;
                let d = self.base_day + dist;
                best = Some(best.map_or(d, |cur: u64| cur.min(d)));
                m &= m - 1;
            }
        }
        best
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.as_nanos(), e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(30), 0, 0);
        q.push(SimTime::from_nanos(10), 1, 0);
        q.push(SimTime::from_nanos(20), 2, 0);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 0)]);
    }

    #[test]
    fn duplicate_timestamps_drain_fifo() {
        let mut q = CalendarQueue::new();
        for seq in 0..64u64 {
            q.push(SimTime::from_nanos(4096), seq, 0);
        }
        let popped = drain(&mut q);
        assert_eq!(popped, (0..64).map(|s| (4096, s)).collect::<Vec<_>>());
    }

    #[test]
    fn same_bucket_different_times_sort_by_time() {
        // All inside one bucket; insertion order scrambled.
        let mut q = CalendarQueue::new();
        for (seq, t) in [(0u64, 300u64), (1, 100), (2, 200), (3, 100)] {
            q.push(SimTime::from_nanos(t), seq, 0);
        }
        assert_eq!(drain(&mut q), vec![(100, 1), (100, 3), (200, 2), (300, 0)]);
    }

    #[test]
    fn far_future_events_cross_the_ring_wraparound() {
        // Schedule events many ring horizons (256 buckets) out,
        // interleaved with near ones, so the window must slide (and
        // wrap its slot mapping) several times.
        let horizon = CalendarQueue::<u32>::BUCKET_NS * NBUCKETS as u64;
        let mut q = CalendarQueue::new();
        let times = [
            0,
            horizon - 1,
            horizon,
            horizon + 1,
            3 * horizon + 17,
            10 * horizon + 4096,
            10 * horizon + 4095,
        ];
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), seq as u64, 0);
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn push_after_window_advance_lands_correctly() {
        let horizon = CalendarQueue::<u32>::BUCKET_NS * NBUCKETS as u64;
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(5 * horizon), 0, 0);
        let first = q.pop().unwrap();
        assert_eq!(first.time.as_nanos(), 5 * horizon);
        // The window now starts at 5×horizon; schedule near and far again.
        q.push(SimTime::from_nanos(5 * horizon + 10), 1, 0);
        q.push(SimTime::from_nanos(9 * horizon), 2, 0);
        q.push(SimTime::from_nanos(5 * horizon + 10), 3, 0);
        assert_eq!(
            drain(&mut q),
            vec![(5 * horizon + 10, 1), (5 * horizon + 10, 3), (9 * horizon, 2)]
        );
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_min_time(), None);
        q.push(SimTime::from_nanos(42), 0, 7u32);
        q.push(SimTime::from_nanos(7), 1, 8u32);
        assert_eq!(q.peek_min_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 2, "peek must not remove");
        assert_eq!(q.pop().unwrap().item, 8);
        assert_eq!(q.peek_min_time(), Some(SimTime::from_nanos(42)));
    }

    #[test]
    fn declined_peek_does_not_advance_the_window() {
        // The latent hazard behind shard-local windows: a coordinator
        // peeks one shard's queue with a deadline earlier than that
        // shard's head, gets `None`, and then a *different* shard's
        // window injects a cross-group event between the deadline and
        // the declined head. If the decline had slid the ring window up
        // to the far head, the injection would land behind `base_day`
        // and corrupt the slot↔day mapping (debug_assert in `push`).
        let horizon = CalendarQueue::<u32>::BUCKET_NS * NBUCKETS as u64;
        let mut q = CalendarQueue::new();
        // Drain up to 2×horizon so the window is genuinely mid-flight.
        q.push(SimTime::from_nanos(2 * horizon), 0, 0);
        q.pop().unwrap();
        // Far head, then a declined peek at a much earlier deadline.
        q.push(SimTime::from_nanos(9 * horizon + 123), 1, 0);
        assert_eq!(q.next_time_at_most(SimTime::from_nanos(2 * horizon + 500)), None);
        // A cross-window injection below the declined head — but at or
        // past the deadline — must still be accepted and pop first.
        q.push(SimTime::from_nanos(2 * horizon + 700), 2, 0);
        q.push(SimTime::from_nanos(3 * horizon), 3, 0);
        assert_eq!(
            drain(&mut q),
            vec![(2 * horizon + 700, 2), (3 * horizon, 3), (9 * horizon + 123, 1)]
        );
    }

    #[test]
    fn peek_min_time_is_exact_and_non_mutating() {
        let horizon = CalendarQueue::<u32>::BUCKET_NS * NBUCKETS as u64;
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.peek_min_time(), None);
        // Overflow-only minimum.
        q.push(SimTime::from_nanos(7 * horizon + 9), 0, 0);
        assert_eq!(q.peek_min_time(), Some(SimTime::from_nanos(7 * horizon + 9)));
        // A nearer ring entry takes over; the far one stays in overflow.
        q.push(SimTime::from_nanos(4096), 1, 0);
        q.push(SimTime::from_nanos(12), 2, 0);
        assert_eq!(q.peek_min_time(), Some(SimTime::from_nanos(12)));
        // Crucially the peeks above must not have slid the window: a
        // push below the overflow head (but above the true min) is fine.
        q.push(SimTime::from_nanos(100), 3, 0);
        assert_eq!(
            drain(&mut q),
            vec![(12, 2), (100, 3), (4096, 1), (7 * horizon + 9, 0)]
        );
    }

    #[test]
    fn dense_bucket_promotes_and_demotes_without_reordering() {
        // Cross PROMOTE_AT within one bucket (promote), drain to empty
        // (demote), then reuse the same slot sparsely — order must be
        // (time, seq)-exact throughout.
        let mut q = CalendarQueue::new();
        let mut expect = Vec::new();
        for seq in 0..(3 * PROMOTE_AT as u64) {
            let t = 1 + (seq * 37) % 4000; // scrambled, all in bucket 0
            q.push(SimTime::from_nanos(t), seq, 0);
            expect.push((t, seq));
        }
        expect.sort();
        assert_eq!(drain(&mut q), expect);
        // The slot was demoted on drain; sparse reuse still works.
        q.push(SimTime::from_nanos(4100), 1000, 0);
        q.push(SimTime::from_nanos(4050), 1001, 0);
        assert_eq!(drain(&mut q), vec![(4050, 1001), (4100, 1000)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Pops interleaved with pushes at monotone times — the simulator's
        // actual usage pattern (handlers schedule follow-ups at `now + d`).
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        q.push(SimTime::from_nanos(0), seq, 0);
        seq += 1;
        let mut now = 0u64;
        for round in 0..2000u64 {
            let e = q.pop().unwrap();
            assert!(e.time.as_nanos() >= now, "time went backwards");
            now = e.time.as_nanos();
            popped.push((now, e.seq));
            // Reschedule with a mix of near, far, and duplicate delays.
            for d in [1u64, 4096, 300_000 + round] {
                q.push(SimTime::from_nanos(now + d), seq, 0);
                seq += 1;
            }
            if round % 3 == 0 {
                // Drain one extra to vary the queue depth.
                let e2 = q.pop().unwrap();
                assert!(e2.time.as_nanos() >= now);
                now = e2.time.as_nanos();
                popped.push((now, e2.seq));
            }
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted, "pop sequence must be (time, seq)-sorted");
    }
}
