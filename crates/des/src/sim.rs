//! The event-driven simulation kernel.
//!
//! [`Sim<W, E>`](Sim) owns a user-supplied world `W` plus a queue of
//! timed events of type `E`. An event is a value that knows how to run
//! itself ([`Event::fire`]), so handlers can freely inspect the world,
//! mutate it, and schedule follow-up events. What an event *is* is the
//! world's choice:
//!
//! * **plain data** — a world with a fixed set of happenings names them
//!   in an enum and implements [`Event`] for it, once: the queue then
//!   holds data it can print, compare, and clone (a `Sim` is `Clone`
//!   when its world and its events are, so a run can be forked at any
//!   instant), and scheduling boxes nothing. Build one with
//!   [`Sim::typed`] and schedule with [`schedule`](Sim::schedule),
//!   [`schedule_after`](Sim::schedule_after) and
//!   [`schedule_slot`](Sim::schedule_slot);
//! * **a closure** — the default `E`, [`EventFn`], boxes any
//!   `FnOnce(&mut Sim<W>)`. [`Sim::new`], [`at`](Sim::at),
//!   [`after`](Sim::after) and [`at_slot`](Sim::at_slot) are that
//!   instantiation, for tests, doctests and one-off probes.
//!
//! The queue is one [`BinaryHeap`] that pops in ascending `(time, seq)`
//! order, where `seq` is the insertion counter: ties in time run in
//! insertion order, no two entries share a `seq`, and so the order is
//! total and execution fully deterministic. Nothing else is asked of a
//! caller — any time at or after `now` may be scheduled at any point,
//! whatever has been peeked or popped before. A heap entry is the
//! 24-byte key `(time, seq, payload index)`, compared as one packed
//! `u128`; the payloads sit beside the heap in a free-listed slab, so a
//! sift moves keys, never events.
//!
//! # Example
//!
//! A self-rescheduling "process" bounded by a predicate — the pattern
//! the scenario engine uses for its control-plane tick — as plain data:
//!
//! ```
//! use shs_des::{Event, Sim, SimDur, SimTime};
//!
//! #[derive(Clone, Copy)]
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Event<u32> for Ev {
//!     fn fire(self, sim: &mut Sim<u32, Ev>) {
//!         match self {
//!             Ev::Tick => {
//!                 sim.world += 1;
//!                 sim.schedule_after(SimDur::from_millis(20), Ev::Tick);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim: Sim<u32, Ev> = Sim::typed(0);
//! sim.schedule(SimTime::ZERO, Ev::Tick);
//! sim.run_until(SimTime::from_nanos(100_000_000)); // 100 ms horizon
//! assert_eq!(sim.world, 6, "ticks at 0, 20, 40, 60, 80, 100 ms");
//! assert_eq!(sim.now(), SimTime::from_nanos(100_000_000));
//! assert_eq!(sim.pending(), 1, "the next tick stays queued past the horizon");
//!
//! // Forked at 100 ms: the copy runs on without touching the original.
//! let mut fork = sim.clone();
//! fork.run_until(SimTime::from_nanos(200_000_000));
//! assert_eq!((sim.world, fork.world), (6, 11));
//! ```
//!
//! # Reserved slots: deferred scheduling that cannot be observed
//!
//! A workload known at setup need not sit in the queue from setup on.
//! [`Sim::reserve`] sets a block of insertion-order positions aside;
//! [`Sim::at_slot`] later schedules an event under one of them, and it
//! pops exactly where it would have had it been scheduled when the
//! block was reserved — ahead of everything scheduled since, at the
//! same instant. A chain that queues only its *next* link therefore
//! runs in the order of one that queued every link up front:
//!
//! ```
//! use shs_des::{Sim, SimTime};
//!
//! const LINKS: [(u64, &str); 3] = [(5, "a"), (10, "b"), (20, "c")];
//!
//! fn link(sim: &mut Sim<Vec<&'static str>>, first: u64, k: usize) {
//!     if let Some(&(t, _)) = LINKS.get(k + 1) {
//!         sim.at_slot(SimTime::from_nanos(t), first + k as u64 + 1, move |s| link(s, first, k + 1));
//!     }
//!     sim.world.push(LINKS[k].1);
//! }
//!
//! let mut sim = Sim::new(Vec::new());
//! let first = sim.reserve(LINKS.len() as u64);
//! sim.at(SimTime::from_nanos(10), |s| s.world.push("after b"));
//! sim.at(SimTime::from_nanos(20), |s| s.world.push("after c"));
//! sim.at_slot(SimTime::from_nanos(5), first, move |s| link(s, first, 0));
//! sim.run();
//! // "b" and "c" did not exist yet when their bystanders were
//! // scheduled, but their slots did: they win the ties.
//! assert_eq!(sim.world, ["a", "b", "after b", "c", "after c"]);
//! ```
//!
//! A reserved key need not be queued at all. [`Sim::run_before`] runs
//! every event ordered before `(t, slot)` and stops the clock at `t`,
//! so a driver that acts by hand right after it acts exactly where an
//! event under that slot would have run — the way a fabric sweep
//! injects its messages without ever queuing them:
//!
//! ```
//! use shs_des::{Sim, SimTime};
//!
//! let mut sim = Sim::new(Vec::new());
//! sim.at(SimTime::from_nanos(5), |s| s.world.push("before the block"));
//! let slot = sim.reserve(1);
//! sim.at(SimTime::from_nanos(5), |s| s.world.push("after the block"));
//! sim.run_before(SimTime::from_nanos(5), slot);
//! sim.world.push("by hand");
//! sim.run();
//! assert_eq!(sim.world, ["before the block", "by hand", "after the block"]);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDur, SimTime};

/// An event of a world `W`: plain data (or a closure, [`EventFn`]) that
/// runs itself over the simulation when its instant comes. `fire` may
/// read and mutate `sim.world` and schedule follow-ups of the same type.
pub trait Event<W>: Sized {
    /// Run the event; `sim.now()` is its due instant.
    fn fire(self, sim: &mut Sim<W, Self>);
}

/// The default event type: a boxed closure over the simulation. A
/// newtype rather than an alias, because `Sim<W>` names it.
#[allow(clippy::type_complexity)]
pub struct EventFn<W>(Box<dyn FnOnce(&mut Sim<W>)>);

impl<W> Event<W> for EventFn<W> {
    #[inline]
    fn fire(self, sim: &mut Sim<W>) {
        (self.0)(sim)
    }
}

/// One queued event's schedule key and the slab index of its payload.
/// Compared on `(time, seq)` alone, packed into one `u128` — `seq` is
/// unique queue-wide, so that is a total order — and *inverted*, so
/// that [`BinaryHeap`], a max-heap, pops the earliest entry first.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    payload: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

/// The queued events' payloads, indexed by [`Entry::payload`]; a slot
/// freed by a pop is the next one filled.
#[derive(Clone)]
struct Slab<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    #[inline]
    fn insert(&mut self, e: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(e);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(Some(e));
                i
            }
        }
    }

    #[inline]
    fn remove(&mut self, i: u32) -> E {
        self.free.push(i);
        self.slots[i as usize].take().expect("a queued entry's payload is live")
    }
}

/// Discrete-event simulator over a world `W`, with events of type `E`
/// (boxed closures unless the world names its own, see the module
/// docs). `Clone` when `W` and `E` are: a clone is an independent fork
/// of the run at its current instant.
#[derive(Clone)]
pub struct Sim<W, E = EventFn<W>> {
    /// The simulated world. Public so events and drivers can reach all
    /// component state directly.
    pub world: W,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    payloads: Slab<E>,
    executed: u64,
}

impl<W> Sim<W> {
    /// Create a closure-event simulator at time zero.
    pub fn new(world: W) -> Self {
        Sim::typed(world)
    }

    /// Schedule `f` at absolute time `t`. Scheduling in the past is a
    /// logic error and panics (debug builds) or clamps to `now` (release).
    #[inline]
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule(t, EventFn(Box::new(f)));
    }

    /// Schedule `f` at `t` under the reserved `slot`; see
    /// [`schedule_slot`](Self::schedule_slot).
    pub fn at_slot(&mut self, t: SimTime, slot: u64, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_slot(t, slot, EventFn(Box::new(f)));
    }

    /// Schedule `f` after a relative delay.
    #[inline]
    pub fn after(&mut self, d: SimDur, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_after(d, EventFn(Box::new(f)));
    }
}

impl<W, E> Sim<W, E> {
    /// Create a simulator at time zero whose events are `E`s — the
    /// constructor for a world that names its own event type.
    pub fn typed(world: W) -> Self {
        Sim {
            world,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Slab { slots: Vec::new(), free: Vec::new() },
            executed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Due time of the earliest queued event, for tests that peek.
    #[cfg(test)]
    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.time)
    }

    /// Queue `e` at `time` under the schedule key `seq`.
    #[inline]
    fn push(&mut self, time: SimTime, seq: u64, e: E) {
        let payload = self.payloads.insert(e);
        self.queue.push(Entry { time, seq, payload });
    }

    /// Schedule `e` at absolute time `t`. Scheduling in the past is a
    /// logic error and panics (debug builds) or clamps to `now` (release).
    #[inline]
    pub fn schedule(&mut self, t: SimTime, e: E) {
        debug_assert!(t >= self.now, "scheduling into the past: {t} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.push(t.max(self.now), seq, e);
    }

    /// Schedule `e` after a relative delay.
    #[inline]
    pub fn schedule_after(&mut self, d: SimDur, e: E) {
        self.schedule(self.now + d, e);
    }

    /// Set the next `n` insertion-order positions aside and return the
    /// first: slots `first..first + n` are the caller's, to be filled
    /// by [`schedule_slot`](Self::schedule_slot) whenever it suits.
    /// Every event scheduled after this call ties *behind* every slot of
    /// the block, however late that slot's event is materialized.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedule `e` at `t` under the reserved `slot`: among events due
    /// at `t` it runs where it would have run had it been scheduled
    /// when the slot was reserved, so slots order by index, not by the
    /// order they are filled in. Filling late is unobservable as long
    /// as no same-instant event scheduled after the reservation has
    /// already run — always the case when `t > now`.
    ///
    /// The caller's contract: `slot` comes from
    /// [`reserve`](Self::reserve) and is used at most once — it becomes
    /// the entry's queue-wide unique `seq`, the tie-break that makes
    /// `(time, seq)` a total order. A slot that was never reserved, or
    /// a `t` in the past, panics in debug builds; reuse is not detected.
    #[inline]
    pub fn schedule_slot(&mut self, t: SimTime, slot: u64, e: E) {
        debug_assert!(slot < self.seq, "slot {slot} is not reserved (next free: {})", self.seq);
        debug_assert!(t >= self.now, "scheduling into the past: {t} < {}", self.now);
        self.push(t.max(self.now), slot, e);
    }
}

impl<W, E: Event<W>> Sim<W, E> {
    /// Execute the next event, if any. Returns `false` when the queue is
    /// empty.
    #[inline]
    pub fn step(&mut self) -> bool {
        let Some(Entry { time, payload, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        self.payloads.remove(payload).fire(self);
        true
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or simulated time would pass `deadline`.
    /// Events scheduled exactly at the deadline still execute; the clock
    /// is advanced to the deadline if the queue empties earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_before(deadline, u64::MAX);
    }

    /// Run every queued event whose key `(time, seq)` sorts before
    /// `(t, seq)`, then set the clock to `t`: the one peek-and-run loop.
    /// Whatever the caller does next at `t` — inject a message by hand,
    /// say — happens exactly where an event scheduled under key
    /// `(t, seq)` would have run, after the events at `t` with a lower
    /// `seq` and before those with a higher one. `t` must not be in the
    /// past (debug builds panic; release builds leave the clock alone).
    pub fn run_before(&mut self, t: SimTime, seq: u64) {
        debug_assert!(t >= self.now, "running to a key in the past: {t} < {}", self.now);
        let bound = Entry { time: t, seq, payload: 0 }.key();
        while self.queue.peek().is_some_and(|e| e.key() < bound) {
            self.step();
        }
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default, Clone)]
    struct W {
        log: Vec<(u64, &'static str)>,
        count: u32,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(30), |s| s.world.log.push((s.now().as_nanos(), "c")));
        sim.at(SimTime::from_nanos(10), |s| s.world.log.push((s.now().as_nanos(), "a")));
        sim.at(SimTime::from_nanos(20), |s| s.world.log.push((s.now().as_nanos(), "b")));
        sim.run();
        assert_eq!(sim.world.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Sim::new(W::default());
        for name in ["first", "second", "third"] {
            sim.at(SimTime::from_nanos(5), move |s| s.world.log.push((5, name)));
        }
        sim.run();
        let names: Vec<_> = sim.world.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn a_slot_filled_late_runs_as_if_scheduled_at_reservation() {
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(5), |s| s.world.log.push((5, "before the block")));
        let first = sim.reserve(1);
        sim.at(SimTime::from_nanos(5), |s| s.world.log.push((5, "after the block")));
        // Filled from inside a handler, long after both neighbours were
        // scheduled.
        sim.at(SimTime::from_nanos(1), move |s| {
            s.at_slot(SimTime::from_nanos(5), first, |s| s.world.log.push((5, "slot")));
        });
        sim.run();
        let names: Vec<_> = sim.world.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["before the block", "slot", "after the block"]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn slots_order_by_index_not_by_fill_order() {
        let mut sim = Sim::new(W::default());
        let first = sim.reserve(3);
        for (slot, name) in [(2, "third"), (0, "first"), (1, "second")] {
            sim.at_slot(SimTime::from_nanos(5), first + slot, move |s| s.world.log.push((5, name)));
        }
        assert_eq!(sim.pending(), 3, "a reservation queues nothing by itself");
        sim.run();
        let names: Vec<_> = sim.world.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    #[should_panic(expected = "is not reserved")]
    #[cfg(debug_assertions)]
    fn an_unreserved_slot_panics_in_debug() {
        let mut sim = Sim::new(W::default());
        let first = sim.reserve(2);
        sim.at_slot(SimTime::from_nanos(5), first + 2, |_| {});
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn a_slot_in_the_past_panics_in_debug() {
        let mut sim = Sim::new(W::default());
        let first = sim.reserve(1);
        sim.at(SimTime::from_nanos(10), move |s| s.at_slot(SimTime::from_nanos(9), first, |_| {}));
        sim.run();
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(1), |s| {
            s.world.count += 1;
            s.after(SimDur::from_nanos(4), |s2| {
                s2.world.count += 10;
                assert_eq!(s2.now().as_nanos(), 5);
            });
        });
        sim.run();
        assert_eq!(sim.world.count, 11);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(10), |s| s.world.count += 1);
        sim.at(SimTime::from_nanos(20), |s| s.world.count += 1);
        sim.at(SimTime::from_nanos(30), |s| s.world.count += 1);
        sim.run_until(SimTime::from_nanos(20));
        assert_eq!(sim.world.count, 2);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.world.count, 3);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = Sim::new(W::default());
        sim.run_until(SimTime::from_nanos(500));
        assert_eq!(sim.now(), SimTime::from_nanos(500));
    }

    #[test]
    fn recursive_self_rescheduling_terminates_by_predicate() {
        // A "process" that re-arms itself forever; the predicate
        // bounds it.
        fn tick(s: &mut Sim<W>) {
            s.world.count += 1;
            s.after(SimDur::from_micros(1), tick);
        }
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::ZERO, tick);
        while sim.world.count < 100 && sim.step() {}
        assert_eq!(sim.world.count, 100);
        assert_eq!(sim.now().as_nanos(), 99_000);
    }

    #[test]
    fn closures_can_capture_shared_state() {
        let out = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(W::default());
        for i in [3u64, 1, 2] {
            let out = Rc::clone(&out);
            sim.at(SimTime::from_nanos(i), move |_| out.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*out.borrow(), vec![1, 2, 3]);
    }

    // Ordering facts of the queue itself, on bare `(time, seq)` keys.
    // `FAR` (≈ 16.8 ms) is longer than any control-plane latency in the
    // tree: near and far times must interleave with no special casing.
    const FAR: u64 = 65_536 * 256;

    fn push(q: &mut BinaryHeap<Entry>, time: u64, seq: u64) {
        q.push(Entry { time: SimTime::from_nanos(time), seq, payload: 0 });
    }

    fn pop(q: &mut BinaryHeap<Entry>) -> Option<(u64, u64)> {
        q.pop().map(|e| (e.time.as_nanos(), e.seq))
    }

    fn drain(q: &mut BinaryHeap<Entry>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| pop(q)).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = BinaryHeap::new();
        push(&mut q, 30, 0);
        push(&mut q, 10, 1);
        push(&mut q, 20, 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 0)]);
    }

    #[test]
    fn duplicate_timestamps_drain_fifo() {
        let mut q = BinaryHeap::new();
        for seq in 0..64u64 {
            push(&mut q, 4096, seq);
        }
        assert_eq!(drain(&mut q), (0..64).map(|s| (4096, s)).collect::<Vec<_>>());
    }

    #[test]
    fn scrambled_pushes_sort_by_time_then_seq() {
        let mut q = BinaryHeap::new();
        for (seq, t) in [(0u64, 300u64), (1, 100), (2, 200), (3, 100)] {
            push(&mut q, t, seq);
        }
        assert_eq!(drain(&mut q), vec![(100, 1), (100, 3), (200, 2), (300, 0)]);
    }

    #[test]
    fn near_and_far_times_interleave_in_one_order() {
        let times = [0, FAR - 1, FAR, FAR + 1, 3 * FAR + 17, 10 * FAR + 4096, 10 * FAR + 4095];
        let mut q = BinaryHeap::new();
        for (seq, &t) in times.iter().enumerate() {
            push(&mut q, t, seq as u64);
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn pushes_after_a_far_pop_land_in_order() {
        let mut q = BinaryHeap::new();
        push(&mut q, 5 * FAR, 0);
        assert_eq!(pop(&mut q), Some((5 * FAR, 0)));
        push(&mut q, 5 * FAR + 10, 1);
        push(&mut q, 9 * FAR, 2);
        push(&mut q, 5 * FAR + 10, 3);
        assert_eq!(drain(&mut q), vec![(5 * FAR + 10, 1), (5 * FAR + 10, 3), (9 * FAR, 2)]);
    }

    #[test]
    fn a_push_below_a_peeked_head_or_a_popped_time_pops_first() {
        // The queue keeps no memory of what was peeked or popped: a
        // push below either is ordered like any other.
        let mut q = BinaryHeap::new();
        push(&mut q, 9 * FAR, 0);
        assert_eq!(q.peek().map(|e| e.time.as_nanos()), Some(9 * FAR));
        push(&mut q, 7, 1);
        assert_eq!(pop(&mut q), Some((7, 1)));
        assert_eq!(pop(&mut q), Some((9 * FAR, 0)));
        push(&mut q, 3, 2);
        push(&mut q, 12 * FAR, 3);
        assert_eq!(drain(&mut q), vec![(3, 2), (12 * FAR, 3)]);
    }

    #[test]
    fn a_dense_burst_drains_in_order_and_the_queue_is_reusable() {
        let mut q = BinaryHeap::new();
        let mut expect = Vec::new();
        for seq in 0..96u64 {
            let t = 1 + (seq * 37) % 4000; // scrambled, within 4 µs
            push(&mut q, t, seq);
            expect.push((t, seq));
        }
        expect.sort();
        assert_eq!(drain(&mut q), expect);
        push(&mut q, 4100, 1000);
        push(&mut q, 4050, 1001);
        assert_eq!(drain(&mut q), vec![(4050, 1001), (4100, 1000)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Pops interleaved with pushes at monotone times — the simulator's
        // actual usage pattern (handlers schedule follow-ups at `now + d`).
        let mut q = BinaryHeap::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        push(&mut q, 0, seq);
        seq += 1;
        let mut now = 0u64;
        for round in 0..2000u64 {
            let (t, s) = pop(&mut q).unwrap();
            assert!(t >= now, "time went backwards");
            now = t;
            popped.push((t, s));
            // Reschedule with a mix of near, far, and duplicate delays.
            for d in [1u64, 4096, 300_000 + round] {
                push(&mut q, now + d, seq);
                seq += 1;
            }
            if round % 3 == 0 {
                // Drain one extra to vary the queue depth.
                let (t, s) = pop(&mut q).unwrap();
                assert!(t >= now);
                now = t;
                popped.push((t, s));
            }
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted, "pop sequence must be (time, seq)-sorted");
    }

    // The one peek, through `Sim`.

    fn log(name: &'static str) -> impl FnOnce(&mut Sim<W>) {
        move |s| s.world.log.push((s.now().as_nanos(), name))
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut sim = Sim::new(W::default());
        assert_eq!(sim.next_time(), None);
        sim.at(SimTime::from_nanos(42), log("late"));
        sim.at(SimTime::from_nanos(7), log("early"));
        assert_eq!(sim.next_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(sim.pending(), 2, "peek must not remove");
        assert!(sim.step());
        assert_eq!(sim.world.log, vec![(7, "early")]);
        assert_eq!(sim.next_time(), Some(SimTime::from_nanos(42)));
    }

    #[test]
    fn next_time_is_exact_and_later_nearer_events_still_run_first() {
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(7 * FAR + 9), log("far"));
        assert_eq!(sim.next_time(), Some(SimTime::from_nanos(7 * FAR + 9)));
        sim.at(SimTime::from_nanos(4096), log("c"));
        sim.at(SimTime::from_nanos(12), log("a"));
        assert_eq!(sim.next_time(), Some(SimTime::from_nanos(12)));
        // Scheduled after three peeks, below two of the heads they saw.
        sim.at(SimTime::from_nanos(100), log("b"));
        sim.run();
        assert_eq!(sim.world.log, vec![(12, "a"), (100, "b"), (4096, "c"), (7 * FAR + 9, "far")]);
    }

    #[test]
    fn a_declined_deadline_leaves_nearer_events_runnable_first() {
        // A deadline that ends before the head declines it, and an event
        // scheduled afterwards between the deadline and that head still
        // runs first.
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::from_nanos(2 * FAR), log("start"));
        sim.run();
        sim.at(SimTime::from_nanos(9 * FAR + 123), log("far"));
        sim.run_until(SimTime::from_nanos(2 * FAR + 500));
        assert_eq!((sim.events_executed(), sim.pending()), (1, 1), "the far head is declined");
        sim.at(SimTime::from_nanos(2 * FAR + 700), log("near"));
        sim.at(SimTime::from_nanos(3 * FAR), log("mid"));
        sim.run();
        assert_eq!(
            sim.world.log,
            vec![(2 * FAR, "start"), (2 * FAR + 700, "near"), (3 * FAR, "mid"), (9 * FAR + 123, "far")]
        );
    }

    // Events as data.

    #[derive(Debug, Clone)]
    enum Ev {
        Log(&'static str),
        /// Log, then schedule `Log(then)` `d` ns later.
        Chain(&'static str, u64, &'static str),
        /// Count down: reschedule itself 1 ns later until zero.
        Tick(u32),
    }

    impl Event<W> for Ev {
        fn fire(self, s: &mut Sim<W, Ev>) {
            let now = s.now().as_nanos();
            match self {
                Ev::Log(name) => s.world.log.push((now, name)),
                Ev::Chain(name, d, then) => {
                    s.world.log.push((now, name));
                    s.schedule_after(SimDur::from_nanos(d), Ev::Log(then));
                }
                Ev::Tick(0) => {}
                Ev::Tick(n) => {
                    s.world.count += 1;
                    s.schedule_after(SimDur::from_nanos(1), Ev::Tick(n - 1));
                }
            }
        }
    }

    #[test]
    fn a_heap_entry_is_a_24_byte_key_whatever_the_payload() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn typed_events_run_in_time_then_seq_order() {
        let mut sim: Sim<W, Ev> = Sim::typed(W::default());
        sim.schedule(SimTime::from_nanos(10), Ev::Log("b"));
        let slot = sim.reserve(1);
        sim.schedule(SimTime::from_nanos(5), Ev::Chain("a", 5, "c"));
        sim.schedule_slot(SimTime::from_nanos(10), slot, Ev::Log("slot"));
        sim.run();
        assert_eq!(sim.world.log, vec![(5, "a"), (10, "b"), (10, "slot"), (10, "c")]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn a_payload_slot_is_refilled_once_its_event_has_run() {
        let mut sim: Sim<W, Ev> = Sim::typed(W::default());
        for _ in 0..3 {
            sim.schedule(SimTime::ZERO, Ev::Tick(100));
        }
        sim.run();
        assert_eq!(sim.world.count, 300);
        assert_eq!(sim.payloads.slots.len(), 3, "the slab grows to the peak depth, no further");
    }

    #[test]
    fn a_clone_is_an_independent_fork_of_the_run() {
        let mut sim: Sim<W, Ev> = Sim::typed(W::default());
        sim.schedule(SimTime::from_nanos(1), Ev::Chain("a", 9, "b"));
        sim.schedule(SimTime::from_nanos(20), Ev::Log("c"));
        sim.run_until(SimTime::from_nanos(5));
        let mut fork = sim.clone();
        fork.schedule(SimTime::from_nanos(7), Ev::Log("fork only"));
        fork.run();
        sim.run();
        assert_eq!(sim.world.log, vec![(1, "a"), (10, "b"), (20, "c")]);
        assert_eq!(fork.world.log, vec![(1, "a"), (7, "fork only"), (10, "b"), (20, "c")]);
        assert_eq!((sim.events_executed(), fork.events_executed()), (3, 4));
    }
}
