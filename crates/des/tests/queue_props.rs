//! Property oracle for the event queue, at the level every caller sees
//! it: arbitrary interleavings of scheduling, stepping and
//! deadline-bounded runs on a [`Sim`] must execute events in exactly
//! the order of a model that is nothing but a `Vec` kept stably sorted
//! by `(time, seq)`.
//!
//! `(time, seq)` is a total order — `seq` is the insertion counter, or
//! a position set aside earlier by [`Sim::reserve`] — so there is one
//! legal execution sequence, and the model is small enough to be
//! obviously right: push, stable sort, take the front. Whatever
//! structure sits inside `Sim` is held to that sequence through the
//! public API alone (`at`, `after`, `reserve` + `at_slot`, `step`,
//! `run_until`, `pending`), never through the queue's own type, so the
//! oracle cannot end up comparing an implementation with itself.
//!
//! One script interpreter ([`apply`], [`spawn`], [`fire`]) drives every
//! side through the [`Kernel`] trait; only the scheduling primitives
//! differ. The real side comes in both payload kinds — a closure `Sim`
//! (`at`, `after`, `at_slot`) and a typed `Sim<State, Ev>` whose events
//! are the script's own [`Ev`] values (`schedule`, `schedule_after`,
//! `schedule_slot`) — and the typed one is also **forked**: cloned
//! after a random script prefix, after which the original and the copy
//! must each run exactly as the model would. What the scripts cover:
//!
//! * duplicate timestamps (tiny deltas, and delta 0 — a handler
//!   scheduling at `now`);
//! * jumps far past [`HORIZON`], interleaved with near ones;
//! * unique but **non-monotone** `seq`s: reserved slots are filled in
//!   scrambled order, from the driver and from inside handlers, long
//!   after later positions were queued;
//! * pops interleaved with pushes at the clock's monotone floor;
//! * `run_until` declining a far-future head, after which the script
//!   schedules nearer events that must run first.

use proptest::prelude::*;
use shs_des::{Event, Sim, SimDur, SimTime};

/// ≈ 16.8 ms (`2^16 ns × 256`): longer than any control-plane latency
/// in the tree. Delays are drawn below, up to and far past it, so a
/// queue that files near and far events differently — a ring of time
/// buckets with a spill-over did — sees both kinds mixed.
const HORIZON: u64 = 65_536 * 256;

/// A follow-up a handler schedules when it runs: `(delay, slot pick)`.
type Follow = (u64, Option<usize>);

/// One queued event, as data: what to log and what to schedule next.
#[derive(Debug, Clone)]
struct Ev {
    id: u32,
    follows: Vec<Follow>,
}

/// What handlers can reach: the execution log, the next event id and
/// the reserved slots not yet filled.
#[derive(Debug, Default, Clone)]
struct State {
    log: Vec<(u64, u32)>,
    next_id: u32,
    free: Vec<u64>,
}

/// The scheduling surface the scripts exercise, implemented by the real
/// [`Sim`] and by [`Model`].
trait Kernel {
    fn now(&self) -> u64;
    fn state(&mut self) -> &mut State;
    fn reserve(&mut self, n: u64) -> u64;
    fn after(&mut self, delay: u64, ev: Ev);
    fn at_slot(&mut self, delay: u64, slot: u64, ev: Ev);
    fn step(&mut self) -> bool;
    fn run_until(&mut self, deadline: u64);
    fn pending(&self) -> usize;
    fn executed(&self) -> usize;
}

/// What every event does when it runs.
fn fire<K: Kernel>(k: &mut K, ev: Ev) {
    let now = k.now();
    k.state().log.push((now, ev.id));
    for (delay, slot) in ev.follows {
        spawn(k, delay, slot, Vec::new());
    }
}

/// Schedule a fresh event `delay` after now — under a free reserved
/// slot if `slot` asks for one and any is left, in insertion order
/// otherwise.
fn spawn<K: Kernel>(k: &mut K, delay: u64, slot: Option<usize>, follows: Vec<Follow>) {
    let st = k.state();
    let ev = Ev { id: st.next_id, follows };
    st.next_id += 1;
    let slot = slot.filter(|_| !st.free.is_empty()).map(|pick| {
        let i = pick % st.free.len();
        st.free.swap_remove(i)
    });
    match slot {
        Some(slot) => k.at_slot(delay, slot, ev),
        None => k.after(delay, ev),
    }
}

impl Kernel for Sim<State> {
    fn now(&self) -> u64 {
        Sim::now(self).as_nanos()
    }
    fn state(&mut self) -> &mut State {
        &mut self.world
    }
    fn reserve(&mut self, n: u64) -> u64 {
        Sim::reserve(self, n)
    }
    fn after(&mut self, delay: u64, ev: Ev) {
        // Both spellings of "schedule in insertion order".
        if ev.id & 1 == 0 {
            let t = Sim::now(self) + SimDur::from_nanos(delay);
            self.at(t, move |s| fire(s, ev));
        } else {
            Sim::after(self, SimDur::from_nanos(delay), move |s| fire(s, ev));
        }
    }
    fn at_slot(&mut self, delay: u64, slot: u64, ev: Ev) {
        let t = Sim::now(self) + SimDur::from_nanos(delay);
        Sim::at_slot(self, t, slot, move |s| fire(s, ev));
    }
    fn step(&mut self) -> bool {
        Sim::step(self)
    }
    fn run_until(&mut self, deadline: u64) {
        Sim::run_until(self, SimTime::from_nanos(deadline));
    }
    fn pending(&self) -> usize {
        Sim::pending(self)
    }
    fn executed(&self) -> usize {
        self.events_executed() as usize
    }
}

/// The script's events as the typed kernel's payload.
impl Event<State> for Ev {
    fn fire(self, sim: &mut Sim<State, Ev>) {
        fire(sim, self);
    }
}

impl Kernel for Sim<State, Ev> {
    fn now(&self) -> u64 {
        Sim::now(self).as_nanos()
    }
    fn state(&mut self) -> &mut State {
        &mut self.world
    }
    fn reserve(&mut self, n: u64) -> u64 {
        Sim::reserve(self, n)
    }
    fn after(&mut self, delay: u64, ev: Ev) {
        if ev.id & 1 == 0 {
            let t = Sim::now(self) + SimDur::from_nanos(delay);
            self.schedule(t, ev);
        } else {
            self.schedule_after(SimDur::from_nanos(delay), ev);
        }
    }
    fn at_slot(&mut self, delay: u64, slot: u64, ev: Ev) {
        let t = Sim::now(self) + SimDur::from_nanos(delay);
        self.schedule_slot(t, slot, ev);
    }
    fn step(&mut self) -> bool {
        Sim::step(self)
    }
    fn run_until(&mut self, deadline: u64) {
        Sim::run_until(self, SimTime::from_nanos(deadline));
    }
    fn pending(&self) -> usize {
        Sim::pending(self)
    }
    fn executed(&self) -> usize {
        self.events_executed() as usize
    }
}

/// The reference: pending events in a `Vec`, stably sorted by `(time,
/// seq)` after every push; the next event is the front.
#[derive(Default, Clone)]
struct Model {
    now: u64,
    seq: u64,
    queue: Vec<(u64, u64, Ev)>,
    state: State,
}

impl Model {
    fn push(&mut self, time: u64, seq: u64, ev: Ev) {
        self.queue.push((time, seq, ev));
        self.queue.sort_by_key(|&(time, seq, _)| (time, seq));
    }
}

impl Kernel for Model {
    fn now(&self) -> u64 {
        self.now
    }
    fn state(&mut self) -> &mut State {
        &mut self.state
    }
    fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }
    fn after(&mut self, delay: u64, ev: Ev) {
        let seq = self.reserve(1);
        self.push(self.now + delay, seq, ev);
    }
    fn at_slot(&mut self, delay: u64, slot: u64, ev: Ev) {
        self.push(self.now + delay, slot, ev);
    }
    fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let (time, _, ev) = self.queue.remove(0);
        self.now = time;
        fire(self, ev);
        true
    }
    fn run_until(&mut self, deadline: u64) {
        while self.queue.first().is_some_and(|&(time, ..)| time <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
    }
    fn pending(&self) -> usize {
        self.queue.len()
    }
    fn executed(&self) -> usize {
        self.state.log.len()
    }
}

/// One step of a script.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delay` after now (under a reserved slot if
    /// one is asked for and free) that schedules `follows` when it runs.
    Schedule { delay: u64, slot: Option<usize>, follows: Vec<Follow> },
    /// Set the next `n` insertion-order positions aside.
    Reserve(u64),
    /// Execute the next event, if any.
    Step,
    /// Run through `now + delay`, leaving later events queued.
    RunUntil(u64),
}

fn apply<K: Kernel>(k: &mut K, op: &Op) {
    match op {
        Op::Schedule { delay, slot, follows } => spawn(k, *delay, *slot, follows.clone()),
        Op::Reserve(n) => {
            let first = k.reserve(*n);
            k.state().free.extend(first..first + n);
        }
        Op::Step => {
            k.step();
        }
        Op::RunUntil(delay) => {
            let deadline = k.now() + delay;
            k.run_until(deadline);
        }
    }
}

fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        // At `now`, and a handful of near instants that collide with
        // each other: equal-time entries meet under every seq order.
        1 => Just(0u64),
        3 => 0u64..8,
        // Near future, mid-range, and far past the horizon.
        2 => 8u64..4096,
        2 => 4096u64..HORIZON,
        2 => HORIZON..20 * HORIZON,
    ]
}

fn slot() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![2 => Just(None), 1 => (0usize..8).prop_map(Some)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let follows = prop::collection::vec((delay(), slot()), 0..3);
    prop_oneof![
        6 => (delay(), slot(), follows)
            .prop_map(|(delay, slot, follows)| Op::Schedule { delay, slot, follows }),
        1 => (1u64..5).prop_map(Op::Reserve),
        3 => Just(Op::Step),
        1 => delay().prop_map(Op::RunUntil),
    ]
}

/// Apply `ops` to `k` and `model` in lockstep: after every op the newly
/// executed events, the clock and the queue depth must agree.
fn follows_model<K: Kernel>(k: &mut K, model: &mut Model, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut checked = model.state.log.len();
    for op in ops {
        apply(k, op);
        apply(model, op);
        prop_assert_eq!(&k.state().log[checked..], &model.state.log[checked..], "after {:?}", op);
        checked = model.state.log.len();
        prop_assert_eq!(k.now(), model.now, "clock after {:?}", op);
        prop_assert_eq!(k.pending(), model.queue.len(), "pending after {:?}", op);
    }
    Ok(())
}

/// Drain both completely: the tail — far-future events, slots filled
/// late — must agree too.
fn drains_like_model<K: Kernel>(k: &mut K, model: &mut Model) -> Result<(), TestCaseError> {
    let checked = model.state.log.len();
    while k.step() {}
    while model.step() {}
    prop_assert_eq!(&k.state().log[checked..], &model.state.log[checked..]);
    prop_assert_eq!(k.executed(), model.state.log.len());
    prop_assert_eq!(k.pending(), 0);
    prop_assert_eq!(k.now(), model.now);
    Ok(())
}

proptest! {
    #[test]
    fn sim_executes_in_sorted_time_seq_order(
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let mut sim = Sim::new(State::default());
        let mut model = Model::default();
        follows_model(&mut sim, &mut model, &ops)?;
        drains_like_model(&mut sim, &mut model)?;

        let mut typed: Sim<State, Ev> = Sim::typed(State::default());
        let mut model = Model::default();
        follows_model(&mut typed, &mut model, &ops)?;
        drains_like_model(&mut typed, &mut model)?;
    }

    /// A typed sim cloned mid-script is a fork: the copy drains exactly
    /// as the model would from that point, and the original, running
    /// the rest of the script first, still does too.
    #[test]
    fn a_typed_sim_forked_mid_script_runs_like_the_model_on_both_sides(
        ops in prop::collection::vec(op_strategy(), 1..400),
        cut in any::<usize>(),
    ) {
        let (prefix, suffix) = ops.split_at(cut % (ops.len() + 1));
        let mut sim: Sim<State, Ev> = Sim::typed(State::default());
        let mut model = Model::default();
        follows_model(&mut sim, &mut model, prefix)?;
        let (mut fork, mut fork_model) = (sim.clone(), model.clone());
        drains_like_model(&mut fork, &mut fork_model)?;
        follows_model(&mut sim, &mut model, suffix)?;
        drains_like_model(&mut sim, &mut model)?;
    }
}
