//! The event-driven simulation kernel.
//!
//! [`Sim`] owns a user-supplied world `W` plus a calendar queue of timed
//! events; an event is any `FnOnce(&mut Sim<W>)`, so handlers can freely
//! inspect the world, mutate it, and schedule follow-up events (see
//! [`crate::calendar`] for the queue itself). Ties in
//! time are broken by insertion order, which keeps execution fully
//! deterministic.
//!
//! # Example
//!
//! A self-rescheduling "process" bounded by a predicate — the pattern
//! the scenario engine uses for its control-plane tick:
//!
//! ```
//! use shs_des::{Sim, SimDur, SimTime};
//!
//! fn tick(sim: &mut Sim<u32>) {
//!     sim.world += 1;
//!     sim.after(SimDur::from_millis(20), tick);
//! }
//!
//! let mut sim = Sim::new(0u32);
//! sim.at(SimTime::ZERO, tick);
//! sim.run_until(SimTime::from_nanos(100_000_000)); // 100 ms horizon
//! assert_eq!(sim.world, 6, "ticks at 0, 20, 40, 60, 80, 100 ms");
//! assert_eq!(sim.now(), SimTime::from_nanos(100_000_000));
//! assert_eq!(sim.pending(), 1, "the next tick stays queued past the horizon");
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

use crate::calendar::CalendarQueue;
use crate::time::{SimDur, SimTime};

/// A scheduled event: a boxed closure over the simulation.
pub type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// Discrete-event simulator over a world `W`.
pub struct Sim<W> {
    /// The simulated world. Public so event closures and drivers can reach
    /// all component state directly.
    pub world: W,
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<EventFn<W>>,
    executed: u64,
}

impl<W> Sim<W> {
    /// Create a simulator at time zero.
    pub fn new(world: W) -> Self {
        Sim {
            world,
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
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

    /// Due time of the earliest queued event, without mutating the
    /// queue (no ring-window slide — see
    /// [`CalendarQueue::peek_min_time`]). The sharded coordinator takes
    /// the minimum of this across all shards to open the next window.
    #[inline]
    pub(crate) fn peek_min_time(&self) -> Option<SimTime> {
        self.queue.peek_min_time()
    }

    /// Schedule `f` at absolute time `t`. Scheduling in the past is a
    /// logic error and panics (debug builds) or clamps to `now` (release).
    #[inline]
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.at_boxed(t, Box::new(f));
    }

    /// [`at`](Self::at) for an already-boxed event — how the sharded
    /// coordinator injects a cross-shard event into its destination.
    pub(crate) fn at_boxed(&mut self, t: SimTime, f: EventFn<W>) {
        debug_assert!(t >= self.now, "scheduling into the past: {t} < {}", self.now);
        let t = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(t, seq, f);
    }

    /// Set the next `n` insertion-order positions aside and return the
    /// first: slots `first..first + n` are the caller's, to be filled
    /// by [`at_slot`](Self::at_slot) whenever it suits. Every event
    /// scheduled after this call ties *behind* every slot of the block,
    /// however late that slot's event is materialized.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedule `f` at `t` under the reserved `slot`: among events due
    /// at `t` it runs where it would have run had it been scheduled
    /// when the slot was reserved, so slots order by index, not by the
    /// order they are filled in. Filling late is unobservable as long
    /// as no same-instant event scheduled after the reservation has
    /// already run — always the case when `t > now`.
    ///
    /// The caller's contract: `slot` comes from
    /// [`reserve`](Self::reserve) and is used at most once — it becomes
    /// the entry's queue-wide unique `seq` (see
    /// [`CalendarQueue::push`]). A slot that was never reserved, or a
    /// `t` in the past, panics in debug builds; reuse is not detected.
    pub fn at_slot(&mut self, t: SimTime, slot: u64, f: impl FnOnce(&mut Sim<W>) + 'static) {
        debug_assert!(slot < self.seq, "slot {slot} is not reserved (next free: {})", self.seq);
        debug_assert!(t >= self.now, "scheduling into the past: {t} < {}", self.now);
        self.queue.push(t.max(self.now), slot, Box::new(f));
    }

    /// Schedule `f` after a relative delay.
    #[inline]
    pub fn after(&mut self, d: SimDur, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.at(self.now + d, f);
    }

    /// Execute the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.time >= self.now);
                self.now = ev.time;
                self.executed += 1;
                (ev.item)(self);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or simulated time would pass `deadline`.
    /// Events scheduled exactly at the deadline still execute; the clock
    /// is advanced to the deadline if the queue empties earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_through(deadline);
        self.advance_to(deadline);
    }

    /// Execute every event due at or before `last`, in `(time, seq)`
    /// order, follow-ups included. Unlike [`run_until`](Self::run_until)
    /// the clock stays at the last event executed, and later events are
    /// left untouched — the underlying peek declines without sliding
    /// the ring window, so an event scheduled afterwards below the
    /// queued head still lands. One shard's share of a coordinator
    /// window.
    pub(crate) fn run_through(&mut self, last: SimTime) {
        while self.queue.next_time_at_most(last).is_some() {
            self.step();
        }
    }

    /// Advance the clock to `t` if it lags behind.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Run while `pred` holds and events remain.
    pub fn run_while(&mut self, mut pred: impl FnMut(&Sim<W>) -> bool) {
        while pred(self) && self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
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
    fn run_while_stops_on_predicate() {
        let mut sim = Sim::new(W::default());
        for i in 0..10u64 {
            sim.at(SimTime::from_nanos(i), |s| s.world.count += 1);
        }
        sim.run_while(|s| s.world.count < 4);
        assert_eq!(sim.world.count, 4);
    }

    #[test]
    fn recursive_self_rescheduling_terminates_by_predicate() {
        // A "process" that re-arms itself forever; run_while bounds it.
        fn tick(s: &mut Sim<W>) {
            s.world.count += 1;
            s.after(SimDur::from_micros(1), tick);
        }
        let mut sim = Sim::new(W::default());
        sim.at(SimTime::ZERO, tick);
        sim.run_while(|s| s.world.count < 100);
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
}
