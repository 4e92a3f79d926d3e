//! Sharded simulation: the conservative-window coordinator over
//! [`ShardSim`] shards.
//!
//! [`ShardedSim`] runs N shards — each a [`Sim`](crate::Sim) with its
//! own event queue and world — under the window algebra of
//! conservative (null-message free) parallel DES, **on the calling
//! thread**: the decomposition is kept for what it proves (per-shard
//! determinism, lookahead safety), not for speed. Worker threads were
//! measured six times on two hosts and never paid at 76–285 events per
//! window; ARCHITECTURE.md § "Sharded simulation" has the curves and
//! what would have to be true before threads come back.
//!
//! 1. **Peek.** Take `T = min` over every shard's queue head.
//! 2. **Window.** Open the half-open window `[T, T + L)` where `L` is
//!    the lookahead — the minimum cross-shard latency every
//!    [`send_to`](ShardSim::send_to) is clamped to.
//! 3. **Run.** Every shard, in id order, executes all of its local
//!    events due inside the window, in `(time, seq)` order. No shard
//!    touches another shard's state; cross-shard events accumulate in
//!    per-shard outboxes.
//! 4. **Exchange.** The coordinator drains outboxes in shard-id order
//!    and injects each remote event into its destination queue.
//!    Conservative safety: an event executing at `t < T + L` emits
//!    remote work due at `t + delay ≥ t + L ≥ T + L` — never inside the
//!    window just executed, and never below any destination clock
//!    (clocks are `< T + L` too).
//!
//! # Why the result is a function of the workload alone
//!
//! Each shard's in-window execution order is its own `(time, seq)`
//! order; outboxes are filled in execution order and drained in
//! shard-id order; injection assigns destination `seq` numbers between
//! windows. Nothing a shard computes inside a window depends on the
//! order the shards are visited in. The oracle in
//! `tests/parallel_props.rs` holds the windowed run against one global
//! [`Sim`](crate::Sim) as a regression gate.
//!
//! # Example
//!
//! Two shards, one event type: shard 0 counts a ping and sends it
//! across the boundary, where shard 1 counts it too.
//!
//! ```
//! use shs_des::{Event, Shard, ShardSim, ShardedSim, SimDur, SimTime};
//!
//! enum Ping {
//!     Serve,
//!     Receive,
//! }
//!
//! impl Event<Shard<u64, Ping>> for Ping {
//!     fn fire(self, s: &mut ShardSim<u64, Ping>) {
//!         match self {
//!             Ping::Serve => {
//!                 *s.world += 1;
//!                 s.send_to(1, SimDur::from_nanos(100), Ping::Receive);
//!             }
//!             Ping::Receive => *s.world += 10,
//!         }
//!     }
//! }
//!
//! let mut sim = ShardedSim::new(vec![0u64, 0u64], SimDur::from_nanos(100));
//! sim.shard_mut(0).schedule(SimTime::ZERO, Ping::Serve);
//! sim.run();
//! assert_eq!(*sim.shard(0).world, 1);
//! assert_eq!(*sim.shard(1).world, 10);
//! assert!(sim.windows() >= 2);
//! ```

use crate::shard::{Remote, Shard, ShardSim};
use crate::sim::Event;
use crate::time::{SimDur, SimTime};

/// The coordinator: owns the shards and drives windows. See the module
/// docs for the algorithm and the determinism argument.
pub struct ShardedSim<W, E> {
    shards: Vec<ShardSim<W, E>>,
    lookahead: SimDur,
    windows: u64,
    injected: u64,
    /// Minimum, over all injections so far, of `event time − destination
    /// clock` in ns. Conservative sync guarantees this never goes
    /// negative; the lookahead-safety proptest asserts it.
    min_inject_slack: Option<i128>,
}

impl<W, E> ShardedSim<W, E> {
    /// Build one shard per world, ids `0..worlds.len()`, all sharing the
    /// same positive `lookahead`.
    pub fn new(worlds: Vec<W>, lookahead: SimDur) -> Self {
        let shards = worlds
            .into_iter()
            .enumerate()
            .map(|(id, w)| ShardSim::shard(id, w, lookahead))
            .collect();
        ShardedSim { shards, lookahead, windows: 0, injected: 0, min_inject_slack: None }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `i` (read its world and clock).
    #[inline]
    pub fn shard(&self, i: usize) -> &ShardSim<W, E> {
        &self.shards[i]
    }

    /// Mutably borrow shard `i` (seed events with
    /// [`Sim::schedule`](crate::Sim::schedule)).
    #[inline]
    pub fn shard_mut(&mut self, i: usize) -> &mut ShardSim<W, E> {
        &mut self.shards[i]
    }

    /// Iterate the shards in id order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardSim<W, E>> {
        self.shards.iter()
    }

    /// Windows executed so far.
    #[inline]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-shard events injected so far.
    #[inline]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed()).sum()
    }

    /// Minimum observed `event time − destination clock` over every
    /// cross-shard injection, in ns (`None` before any injection). The
    /// conservative-sync invariant is `≥ 0`: no shard ever receives an
    /// event below its local clock.
    #[inline]
    pub fn min_inject_slack(&self) -> Option<i128> {
        self.min_inject_slack
    }

    /// Drain every outbox in shard-id order and inject into the
    /// destinations, so destination `seq` assignment — the tie-break
    /// among same-time remote events — is a pure function of shard ids
    /// and per-shard execution order. Each outbox is drained in place
    /// and handed back, so its buffer outlives the window.
    fn exchange(&mut self) {
        for src in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[src].world.outbox);
            for Remote { dst, time, event } in outbox.drain(..) {
                let slack =
                    time.as_nanos() as i128 - self.shards[dst].now().as_nanos() as i128;
                self.min_inject_slack =
                    Some(self.min_inject_slack.map_or(slack, |m| m.min(slack)));
                self.injected += 1;
                self.shards[dst].schedule(time, event);
            }
            self.shards[src].world.outbox = outbox;
        }
    }
}

impl<W, E: Event<Shard<W, E>>> ShardedSim<W, E> {
    /// Run until every queue and outbox drains.
    pub fn run(&mut self) {
        self.drive(SimTime::MAX);
    }

    /// Run until `horizon`, [`Sim::run_until`](crate::Sim::run_until)
    /// style: events due exactly at the horizon still execute, later
    /// ones stay queued, and every shard clock ends at `horizon` or
    /// later.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.drive(horizon);
        for s in &mut self.shards {
            s.advance_to(horizon);
        }
    }

    /// Open windows until the queues are empty or every remaining event
    /// lies past the (inclusive) horizon.
    fn drive(&mut self, horizon: SimTime) {
        let window = self.lookahead - SimDur::from_nanos(1);
        while let Some(t) = self
            .shards
            .iter()
            .filter_map(|s| s.next_time())
            .min()
            .filter(|&t| t <= horizon)
        {
            // `[t, t + L)` clipped to the horizon, held as its last
            // instant: `t + L` saturates at `SimTime::MAX`, and an
            // exclusive end there would never admit an event due at MAX.
            let last = (t + window).min(horizon);
            for s in &mut self.shards {
                s.run_through(last);
            }
            self.windows += 1;
            self.exchange();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardId;

    type Log = Vec<(u64, u64)>;

    /// The test shards' events.
    #[derive(Clone, Copy)]
    enum Ev {
        /// Log `(now, label)`.
        Log(u64),
        /// Log `label`, then send `Log(remote)` to `dst` after `delay` ns.
        LogSend { label: u64, dst: ShardId, delay: u64, remote: u64 },
        /// Log `(now, id)` and hand `Arrive(id)` to the right neighbour
        /// of a four-shard ring, `50 + id` ns later.
        Start,
        /// Log `(now, 100 + from)`; a hand-off from shard 0 bounces a
        /// `Log(999)` back to it.
        Arrive(u64),
        /// Send `Log(id)`, then `Log(10 + id)`, to shard 2 at 100 ns.
        SendPair,
    }

    impl Event<Shard<Log, Ev>> for Ev {
        fn fire(self, s: &mut ShardSim<Log, Ev>) {
            let (id, t) = (s.id(), s.now().as_nanos());
            let nanos = SimDur::from_nanos;
            match self {
                Ev::Log(label) => s.world.push((t, label)),
                Ev::LogSend { label, dst, delay, remote } => {
                    s.world.push((t, label));
                    s.send_to(dst, nanos(delay), Ev::Log(remote));
                }
                Ev::Start => {
                    s.world.push((t, id as u64));
                    s.send_to((id + 1) % 4, nanos(50 + id as u64), Ev::Arrive(id as u64));
                }
                Ev::Arrive(from) => {
                    s.world.push((t, 100 + from));
                    if from == 0 {
                        s.send_to(0, nanos(60), Ev::Log(999));
                    }
                }
                Ev::SendPair => {
                    s.send_to(2, nanos(100), Ev::Log(id as u64));
                    s.send_to(2, nanos(100), Ev::Log(10 + id as u64));
                }
            }
        }
    }

    fn sim(shards: usize, lookahead_ns: u64) -> ShardedSim<Log, Ev> {
        ShardedSim::new(vec![Log::new(); shards], SimDur::from_nanos(lookahead_ns))
    }

    /// Four shards each forward to their right neighbour; shard 0's
    /// message bounces back from shard 1.
    fn cascade() -> ShardedSim<Log, Ev> {
        let mut p = sim(4, 50);
        for g in 0..4usize {
            p.shard_mut(g).schedule(SimTime::from_nanos(g as u64 * 7), Ev::Start);
        }
        p.run();
        p
    }

    #[test]
    fn cross_shard_cascade_matches_across_shard_counts() {
        // A second run reproduces every world, clock and coordinator
        // count.
        let (a, b) = (cascade(), cascade());
        assert_eq!(*a.shard(0).world, vec![(0, 0), (74, 103), (110, 999)]);
        assert_eq!(*a.shard(1).world, vec![(7, 1), (50, 100)]);
        for g in 0..4 {
            assert_eq!(*a.shard(g).world, *b.shard(g).world, "g={g}");
            assert_eq!(a.shard(g).now(), b.shard(g).now());
        }
        assert_eq!(a.events_executed(), 9);
        assert_eq!((a.windows(), a.injected()), (b.windows(), b.injected()));
        assert_eq!(a.injected(), 5);
        assert!(a.min_inject_slack().unwrap() >= 0);
    }

    #[test]
    fn an_exchange_drains_each_outbox_in_place() {
        let p = cascade();
        for s in p.shards() {
            assert!(s.world.outbox.is_empty());
            assert!(s.world.outbox.capacity() >= 1, "shard {}: the buffer was dropped", s.id());
        }
    }

    #[test]
    fn run_until_honours_the_horizon_inclusively() {
        let mut p = sim(2, 10);
        p.shard_mut(0).schedule(SimTime::from_nanos(100), Ev::Log(1));
        p.shard_mut(1).schedule(SimTime::from_nanos(101), Ev::Log(2));
        p.shard_mut(1).schedule(SimTime::from_nanos(100), Ev::Log(3));
        p.run_until(SimTime::from_nanos(100));
        assert_eq!(*p.shard(0).world, vec![(100, 1)]);
        assert_eq!(*p.shard(1).world, vec![(100, 3)], "101 is past the horizon");
        assert_eq!(p.shard(1).pending(), 1);
        assert_eq!(p.shard(0).now(), SimTime::from_nanos(100));
        assert_eq!(p.shard(1).now(), SimTime::from_nanos(100));
    }

    #[test]
    fn an_event_at_simtime_max_runs_and_the_run_terminates() {
        // `MAX + lookahead` saturates; a window with an exclusive end
        // would be `[MAX, MAX)`, empty, and reopened forever.
        let max = SimTime::MAX.as_nanos();
        let mut p = sim(2, 10);
        let ev = Ev::LogSend { label: 1, dst: 1, delay: 10, remote: 2 };
        p.shard_mut(0).schedule(SimTime::MAX, ev);
        p.run();
        assert_eq!(*p.shard(0).world, vec![(max, 1)]);
        assert_eq!(*p.shard(1).world, vec![(max, 2)], "the remote event saturates to MAX too");
        assert_eq!(p.min_inject_slack(), Some(max as i128));
    }

    #[test]
    fn empty_run_terminates_immediately() {
        let mut p = sim(3, 10);
        p.run();
        assert_eq!(p.windows(), 0);
        assert_eq!(p.events_executed(), 0);
        p.run_until(SimTime::from_nanos(50));
        assert_eq!(p.shard(2).now(), SimTime::from_nanos(50));
    }

    #[test]
    fn injection_order_is_shard_id_then_emission_order() {
        // Two shards emit to shard 2 at the *same* due time; the
        // destination must apply src-0's events before src-1's, even
        // though src 1 was seeded first.
        let mut p = sim(3, 100);
        for src in [1usize, 0] {
            p.shard_mut(src).schedule(SimTime::ZERO, Ev::SendPair);
        }
        p.run();
        assert_eq!(*p.shard(2).world, vec![(100, 0), (100, 10), (100, 1), (100, 11)]);
    }
}
