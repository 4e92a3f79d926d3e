//! One shard of a sharded simulation.
//!
//! A shard is a plain [`Sim`] — the one event queue, the one
//! `(time, seq)` ordering contract, the one `step` — whose world is a
//! [`Shard<W>`]: the caller's state plus what a partition needs, an id,
//! a lookahead and an **outbox**. Cross-shard scheduling goes through
//! the outbox instead of the local queue: [`ShardSim::send_to`] records
//! a remote event that the coordinator
//! ([`ShardedSim`](crate::ShardedSim)) injects into the destination
//! shard *between* windows, never during one.
//!
//! The conservative contract is enforced here at the source: a remote
//! event's delay is clamped to at least the configured **lookahead**, so
//! by construction an event executing inside the window `[T, T + L)` can
//! only produce remote work at or past `T + L` — which is exactly where
//! the next window can begin. See [`crate::parallel`] for the window
//! algebra and the determinism argument.

use std::ops::{Deref, DerefMut};

use crate::sim::{EventFn, Sim};
use crate::time::{SimDur, SimTime};

/// Identifies a shard within one [`ShardedSim`](crate::ShardedSim).
pub type ShardId = usize;

/// One shard's simulator: a [`Sim`] over a [`Shard`] world.
pub type ShardSim<W> = Sim<Shard<W>>;

/// A cross-shard event waiting in a source shard's outbox.
pub(crate) struct Remote<W> {
    /// Destination shard.
    pub(crate) dst: ShardId,
    /// Absolute due time in the destination shard (already includes the
    /// lookahead-clamped delay).
    pub(crate) time: SimTime,
    /// The event to run over the destination shard.
    pub(crate) event: EventFn<Shard<W>>,
}

/// The world of a [`ShardSim`]: the caller's per-shard state (reached
/// through `Deref`, so handlers write `s.world.field` as they would on
/// a plain [`Sim`]) plus the shard's id, lookahead and outbox.
pub struct Shard<W> {
    state: W,
    id: ShardId,
    lookahead: SimDur,
    outbox: Vec<Remote<W>>,
}

impl<W> Deref for Shard<W> {
    type Target = W;
    #[inline]
    fn deref(&self) -> &W {
        &self.state
    }
}

impl<W> DerefMut for Shard<W> {
    #[inline]
    fn deref_mut(&mut self) -> &mut W {
        &mut self.state
    }
}

impl<W> Sim<Shard<W>> {
    /// Create shard `id` at time zero over `state`. `lookahead` is the
    /// minimum cross-shard delay this shard will ever emit; conservative
    /// synchronisation requires it to be positive.
    pub(crate) fn shard(id: ShardId, state: W, lookahead: SimDur) -> Self {
        assert!(lookahead > SimDur::ZERO, "conservative sync needs a positive lookahead");
        Sim::new(Shard { state, id, lookahead, outbox: Vec::new() })
    }

    /// This shard's id within the coordinator.
    #[inline]
    pub fn id(&self) -> ShardId {
        self.world.id
    }

    /// Schedule `f` on shard `dst` after `delay`, clamped up to the
    /// lookahead. The event does not leave this shard until the
    /// coordinator drains the outbox after the current window, which is
    /// what keeps the exchange conservative: anything emitted inside
    /// the window `[T, T + L)` is due at `now + delay ≥ T + L`, at or
    /// past the earliest possible next window start.
    ///
    /// A `delay` below the lookahead is a modelling error (the caller
    /// promised `lookahead` was the minimum cross-shard latency):
    /// debug builds panic, release builds clamp to the lookahead.
    pub fn send_to(
        &mut self,
        dst: ShardId,
        delay: SimDur,
        f: impl FnOnce(&mut ShardSim<W>) + 'static,
    ) {
        let lookahead = self.world.lookahead;
        debug_assert!(
            delay >= lookahead,
            "cross-shard delay {delay} below the lookahead {lookahead}"
        );
        let time = self.now() + delay.max(lookahead);
        self.world.outbox.push(Remote { dst, time, event: Box::new(f) });
    }

    /// Take the accumulated outbox (coordinator use, between windows).
    pub(crate) fn take_outbox(&mut self) -> Vec<Remote<W>> {
        std::mem::take(&mut self.world.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard<W>(state: W, lookahead_ns: u64) -> ShardSim<W> {
        ShardSim::shard(0, state, SimDur::from_nanos(lookahead_ns))
    }

    #[test]
    fn window_runs_only_events_strictly_before_end() {
        let mut s = shard(Vec::new(), 100);
        for t in [10u64, 50, 99, 100, 150] {
            s.at(SimTime::from_nanos(t), move |sh| sh.world.push(t));
        }
        // The window [0, 100) is "through 99".
        s.run_through(SimTime::from_nanos(99));
        assert_eq!(*s.world, vec![10, 50, 99]);
        assert_eq!(s.now(), SimTime::from_nanos(99));
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn followups_inside_the_window_still_run() {
        let mut s = shard(Vec::new(), 10);
        s.at(SimTime::from_nanos(5), |sh| {
            sh.world.push(5);
            sh.after(SimDur::from_nanos(3), |sh2| sh2.world.push(8));
        });
        s.run_through(SimTime::from_nanos(9));
        assert_eq!(*s.world, vec![5, 8]);
    }

    #[test]
    fn send_to_clamps_to_lookahead_and_stays_in_outbox() {
        let mut s = shard(Vec::<u64>::new(), 100);
        s.at(SimTime::from_nanos(40), |sh| {
            sh.send_to(1, SimDur::from_nanos(250), |d| d.world.push(1));
        });
        s.run_through(SimTime::from_nanos(99));
        let out = s.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1);
        assert_eq!(out[0].time, SimTime::from_nanos(290));
        assert!(s.take_outbox().is_empty(), "take drains");
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    #[cfg(debug_assertions)]
    fn sub_lookahead_send_panics_in_debug() {
        let mut s = shard((), 100);
        s.at(SimTime::ZERO, |sh| {
            sh.send_to(1, SimDur::from_nanos(1), |_| {});
        });
        s.run_through(SimTime::from_nanos(999));
    }

    #[test]
    fn declined_window_peek_allows_later_injection_below_the_head() {
        // A shard whose head lies past the window end declines the
        // window, and a cross-shard injection between the window end
        // and that head still runs before it.
        let far = 134_217_728; // ≈ 134 ms
        let mut s = shard(Vec::new(), 100);
        s.at(SimTime::from_nanos(far), move |sh| sh.world.push(far));
        // Window well before the head: nothing runs, nothing mutates.
        s.run_through(SimTime::from_nanos(999));
        assert_eq!(s.events_executed(), 0);
        // Coordinator injects below the declined head.
        s.at_boxed(SimTime::from_nanos(2_000), Box::new(|sh| sh.world.push(2_000)));
        s.run_through(SimTime::from_nanos(far));
        assert_eq!(*s.world, vec![2_000, far]);
    }
}
