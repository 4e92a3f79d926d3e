//! One shard of a sharded simulation.
//!
//! A shard is a plain [`Sim`] — the one event queue, the one
//! `(time, seq)` ordering contract, the one `step` — whose world is a
//! [`Shard<W, E>`]: the caller's state plus what a partition needs, an
//! id, a lookahead and an **outbox**. Shards are typed: a sharded world
//! names its event type `E` (an [`Event`](crate::Event) over
//! `Shard<W, E>`), and the same `E` travels between shards.
//! Cross-shard scheduling goes through the outbox instead of the local
//! queue: [`ShardSim::send_to`] records a remote event that the
//! coordinator ([`ShardedSim`](crate::ShardedSim)) injects into the
//! destination shard *between* windows, never during one.
//!
//! The conservative contract is enforced here at the source: a remote
//! event's delay is clamped to at least the configured **lookahead**, so
//! by construction an event executing inside the window `[T, T + L)` can
//! only produce remote work at or past `T + L` — which is exactly where
//! the next window can begin. See [`crate::sharded`] for the window
//! algebra and the determinism argument.

use std::ops::{Deref, DerefMut};

use crate::sim::Sim;
use crate::time::{SimDur, SimTime};

/// Identifies a shard within one [`ShardedSim`](crate::ShardedSim).
pub type ShardId = usize;

/// One shard's simulator: a [`Sim`] over a [`Shard`] world, with events
/// of type `E`.
pub type ShardSim<W, E> = Sim<Shard<W, E>, E>;

/// A cross-shard event waiting in a source shard's outbox.
pub(crate) struct Remote<E> {
    /// Destination shard.
    pub(crate) dst: ShardId,
    /// Absolute due time in the destination shard (already includes the
    /// lookahead-clamped delay).
    pub(crate) time: SimTime,
    /// The event to run over the destination shard.
    pub(crate) event: E,
}

/// The world of a [`ShardSim`]: the caller's per-shard state (reached
/// through `Deref`, so handlers write `s.world.field` as they would on
/// a plain [`Sim`]) plus the shard's id, lookahead and outbox.
pub struct Shard<W, E> {
    state: W,
    id: ShardId,
    lookahead: SimDur,
    /// Remote events emitted in the current window, in emission order.
    /// The coordinator drains it in place between windows, so the
    /// buffer and its capacity stay with the shard.
    pub(crate) outbox: Vec<Remote<E>>,
}

impl<W, E> Deref for Shard<W, E> {
    type Target = W;
    #[inline]
    fn deref(&self) -> &W {
        &self.state
    }
}

impl<W, E> DerefMut for Shard<W, E> {
    #[inline]
    fn deref_mut(&mut self) -> &mut W {
        &mut self.state
    }
}

impl<W, E> Sim<Shard<W, E>, E> {
    /// Create shard `id` at time zero over `state`. `lookahead` is the
    /// minimum cross-shard delay this shard will ever emit; conservative
    /// synchronisation requires it to be positive.
    pub(crate) fn shard(id: ShardId, state: W, lookahead: SimDur) -> Self {
        assert!(lookahead > SimDur::ZERO, "conservative sync needs a positive lookahead");
        Sim::typed(Shard { state, id, lookahead, outbox: Vec::new() })
    }

    /// This shard's id within the coordinator.
    #[inline]
    pub fn id(&self) -> ShardId {
        self.world.id
    }

    /// Schedule `e` on shard `dst` after `delay`, clamped up to the
    /// lookahead. The event does not leave this shard until the
    /// coordinator drains the outbox after the current window, which is
    /// what keeps the exchange conservative: anything emitted inside
    /// the window `[T, T + L)` is due at `now + delay ≥ T + L`, at or
    /// past the earliest possible next window start.
    ///
    /// A `delay` below the lookahead is a modelling error (the caller
    /// promised `lookahead` was the minimum cross-shard latency):
    /// debug builds panic, release builds clamp to the lookahead.
    #[inline]
    pub fn send_to(&mut self, dst: ShardId, delay: SimDur, e: E) {
        let lookahead = self.world.lookahead;
        debug_assert!(
            delay >= lookahead,
            "cross-shard delay {delay} below the lookahead {lookahead}"
        );
        let time = self.now() + delay.max(lookahead);
        self.world.outbox.push(Remote { dst, time, event: e });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Event;

    /// A test shard's events: log a number, optionally scheduling a
    /// follow-up or a remote log.
    enum Ev {
        Log(u64),
        /// Log 5, then log 8 three ns later.
        LogThen,
        /// Send `Log(1)` to shard 1 after the given delay.
        Send(u64),
    }

    impl Event<Shard<Vec<u64>, Ev>> for Ev {
        fn fire(self, s: &mut ShardSim<Vec<u64>, Ev>) {
            match self {
                Ev::Log(n) => s.world.push(n),
                Ev::LogThen => {
                    s.world.push(5);
                    s.schedule_after(SimDur::from_nanos(3), Ev::Log(8));
                }
                Ev::Send(delay) => s.send_to(1, SimDur::from_nanos(delay), Ev::Log(1)),
            }
        }
    }

    fn shard(lookahead_ns: u64) -> ShardSim<Vec<u64>, Ev> {
        ShardSim::shard(0, Vec::new(), SimDur::from_nanos(lookahead_ns))
    }

    #[test]
    fn window_runs_only_events_strictly_before_end() {
        let mut s = shard(100);
        for t in [10u64, 50, 99, 100, 150] {
            s.schedule(SimTime::from_nanos(t), Ev::Log(t));
        }
        // The window [0, 100) is "through 99".
        s.run_through(SimTime::from_nanos(99));
        assert_eq!(*s.world, vec![10, 50, 99]);
        assert_eq!(s.now(), SimTime::from_nanos(99));
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn followups_inside_the_window_still_run() {
        let mut s = shard(10);
        s.schedule(SimTime::from_nanos(5), Ev::LogThen);
        s.run_through(SimTime::from_nanos(9));
        assert_eq!(*s.world, vec![5, 8]);
    }

    #[test]
    fn send_to_clamps_to_lookahead_and_stays_in_outbox() {
        let mut s = shard(100);
        s.schedule(SimTime::from_nanos(40), Ev::Send(250));
        s.run_through(SimTime::from_nanos(99));
        let out = &s.world.outbox;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1);
        assert_eq!(out[0].time, SimTime::from_nanos(290));
        assert!(matches!(out[0].event, Ev::Log(1)));
        assert!(s.world.is_empty(), "nothing ran locally");
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    #[cfg(debug_assertions)]
    fn sub_lookahead_send_panics_in_debug() {
        let mut s = shard(100);
        s.schedule(SimTime::ZERO, Ev::Send(1));
        s.run_through(SimTime::from_nanos(999));
    }

    #[test]
    fn declined_window_peek_allows_later_injection_below_the_head() {
        // A shard whose head lies past the window end declines the
        // window, and a cross-shard injection between the window end
        // and that head still runs before it.
        let far = 134_217_728; // ≈ 134 ms
        let mut s = shard(100);
        s.schedule(SimTime::from_nanos(far), Ev::Log(far));
        // Window well before the head: nothing runs, nothing mutates.
        s.run_through(SimTime::from_nanos(999));
        assert_eq!(s.events_executed(), 0);
        // Coordinator injects below the declined head.
        s.schedule(SimTime::from_nanos(2_000), Ev::Log(2_000));
        s.run_through(SimTime::from_nanos(far));
        assert_eq!(*s.world, vec![2_000, far]);
    }
}
