//! Property oracle for the sharded coordinator: arbitrary cascading
//! event workloads over 2–4 shards must apply events in an order
//! bit-identical to one global [`Sim`]. The shards run typed events
//! (`Exec`, `ChainEv`: plain data, as every sharded world's are); the
//! serial oracle runs closures.
//!
//! Two properties against that oracle, because the engines' tie-breaks
//! differ by design, and a third for reserved slots:
//!
//! 1. **Serial oracle** (`parallel_matches_serial_sim_on_unique_times`):
//!    when no two events share a timestamp, `(time, seq)` order is just
//!    time order, so the windowed engine's per-shard apply order must
//!    equal the serial `Sim`'s. Uniqueness is *by construction*: every
//!    event gets a structural id (base-8 tree numbering, stable across
//!    both engines) embedded in the low 13 bits of its timestamp.
//! 2. **Reproducibility under ties**
//!    (`a_second_run_reproduces_the_trace`): with ties allowed,
//!    serial-vs-windowed order may legitimately differ (the serial `Sim`
//!    breaks a local-vs-remote tie by global scheduling order; the
//!    coordinator defers remote injection to the window boundary). What
//!    must hold is lookahead safety (injection slack ≥ 0) and that the
//!    trace, window count and injection count are a function of the
//!    workload alone.
//! 3. **Deferred scheduling under reserved slots is unobservable**
//!    (`chains_under_reserved_slots_match_eager_scheduling`): per-shard
//!    chains of events at strictly increasing instants, dense with
//!    equal-time ties between chains, bystanders and cross-shard
//!    arrivals, run identically whether every link is scheduled at
//!    setup or each link queues only its successor under
//!    [`Sim::schedule_slot`].
//!
//! Cascades are a pure function of the structural id (a splitmix-style
//! hash decides fan-out, destination and delays), so both engines
//! replay the identical workload from the same generated seed events.

use std::rc::Rc;

use proptest::prelude::*;
use shs_des::{Event, Shard, ShardSim, ShardedSim, Sim, SimDur, SimTime};

/// Low-bits width reserved for the structural id ⇒ the uniqueness tag.
const ID_BITS: u32 = 13;
/// Lookahead for the unique-time workload: one id-tag quantum, so a
/// remote bump of 2 quanta always clears it (see `child_time`).
const LOOKAHEAD: u64 = 1 << ID_BITS;
/// Max structural fan-out; ids are base-(FANOUT) tree-numbered.
const FANOUT: u32 = 8;

/// Per-shard apply trace: (time ns, structural id).
type Trace = Vec<(u64, u32)>;

#[derive(Debug, Clone)]
struct Seed {
    shard: usize,
    raw_t: u64,
    fuel: u8,
}

#[derive(Debug, Clone)]
struct Workload {
    nshards: usize,
    seeds: Vec<Seed>,
}

fn workload_strategy(max_fuel: u8) -> impl Strategy<Value = Workload> {
    (2usize..=4)
        .prop_flat_map(move |nshards| {
            let seed = (0..nshards, 0u64..1024, 0..=max_fuel)
                .prop_map(|(shard, raw_t, fuel)| Seed { shard, raw_t, fuel });
            (Just(nshards), prop::collection::vec(seed, 1..24))
        })
        .prop_map(|(nshards, seeds)| Workload { nshards, seeds })
}

/// Deterministic per-id hash driving the cascade shape (splitmix64).
fn h(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A cascade step: what event `id` (holding `fuel`) spawns on `shard`.
/// Pure data, identical for both engines.
struct Child {
    id: u32,
    shard: usize,
    time: u64,
    remote: bool,
    fuel: u8,
}

/// Children of `(id, shard, now, fuel)` in an `nshards`-wide world.
/// `unique_times` selects the id-tagged time construction (collision
/// free) or raw hashed deltas (ties allowed).
fn children(id: u32, shard: usize, now: u64, fuel: u8, nshards: usize, unique_times: bool) -> Vec<Child> {
    if fuel == 0 {
        return Vec::new();
    }
    let n = (h(id as u64) % 3) as u32; // 0..=2 children
    (0..n)
        .map(|k| {
            let cid = id * FANOUT + 64 + k;
            let hk = h((id as u64) << 8 | k as u64);
            let remote = nshards > 1 && hk.is_multiple_of(2);
            let dst = if remote { (shard + 1 + (hk >> 8) as usize % (nshards - 1)) % nshards } else { shard };
            let raw = (hk >> 16) % 512;
            let time = if unique_times {
                // Replace the low id-tag bits and bump the high part by
                // 1 (local) or 2 (remote) quanta + raw: times stay
                // strictly increasing down the tree, all ids < 2^13 are
                // unique, and a remote delta is ≥ LOOKAHEAD + 1.
                let bump = if remote { 2 } else { 1 };
                ((now >> ID_BITS) + bump + raw) << ID_BITS | cid as u64
            } else {
                // Ties allowed: pure hashed delta, remote clamped to
                // the lookahead by construction.
                now + if remote { LOOKAHEAD + raw } else { raw }
            };
            Child { id: cid, shard: dst, time, remote, fuel: fuel - 1 }
        })
        .collect()
}

/// Serial oracle: one `Sim` whose world is every shard's trace; remote
/// sends become plain `at` calls on the global queue.
fn run_serial(w: &Workload, unique_times: bool) -> Vec<Trace> {
    fn exec(sim: &mut Sim<Vec<Trace>>, id: u32, shard: usize, fuel: u8, nshards: usize, uniq: bool) {
        let now = sim.now().as_nanos();
        sim.world[shard].push((now, id));
        for c in children(id, shard, now, fuel, nshards, uniq) {
            sim.at(SimTime::from_nanos(c.time), move |s| {
                exec(s, c.id, c.shard, c.fuel, nshards, uniq);
            });
        }
    }
    let mut sim: Sim<Vec<Trace>> = Sim::new(vec![Vec::new(); w.nshards]);
    let nshards = w.nshards;
    for (i, s) in w.seeds.iter().enumerate() {
        let t = if unique_times { s.raw_t << ID_BITS | i as u64 } else { s.raw_t };
        let (id, shard, fuel) = (i as u32, s.shard, s.fuel);
        sim.at(SimTime::from_nanos(t), move |sm| exec(sm, id, shard, fuel, nshards, unique_times));
    }
    sim.run();
    sim.world
}

/// The sharded cascade's one event: apply structural id `id`, holding
/// `fuel`, in an `nshards`-wide world.
#[derive(Clone, Copy)]
struct Exec {
    id: u32,
    fuel: u8,
    nshards: usize,
    uniq: bool,
}

impl Event<Shard<Trace, Exec>> for Exec {
    fn fire(self, s: &mut ShardSim<Trace, Exec>) {
        let now = s.now().as_nanos();
        s.world.push((now, self.id));
        let here = s.id();
        for c in children(self.id, here, now, self.fuel, self.nshards, self.uniq) {
            let child = Exec { id: c.id, fuel: c.fuel, ..self };
            if c.remote {
                s.send_to(c.shard, SimDur::from_nanos(c.time - now), child);
            } else {
                s.schedule(SimTime::from_nanos(c.time), child);
            }
        }
    }
}

/// The system under test: one shard per group, cascades routed through
/// `send_to` whenever they cross shards.
fn run_sharded(w: &Workload, unique_times: bool) -> (Vec<Trace>, ShardedSim<Trace, Exec>) {
    let mut psim = ShardedSim::new(vec![Trace::new(); w.nshards], SimDur::from_nanos(LOOKAHEAD));
    for (i, s) in w.seeds.iter().enumerate() {
        let t = if unique_times { s.raw_t << ID_BITS | i as u64 } else { s.raw_t };
        let ev = Exec { id: i as u32, fuel: s.fuel, nshards: w.nshards, uniq: unique_times };
        psim.shard_mut(s.shard).schedule(SimTime::from_nanos(t), ev);
    }
    psim.run();
    let traces = psim.shards().map(|s| s.world.clone()).collect();
    (traces, psim)
}

/// Lookahead of the chain workload: a few link gaps wide, so a window
/// holds several links of several chains.
const CHAIN_LOOKAHEAD: u64 = 16;

/// One shard-local process: links due at strictly increasing instants,
/// some of which also send to another shard.
#[derive(Debug, Clone)]
struct Chain {
    shard: usize,
    /// Per link: its absolute instant, and a cross-shard send as
    /// (destination, delay).
    links: Vec<(u64, Option<(usize, u64)>)>,
}

#[derive(Debug, Clone)]
struct ChainWorkload {
    nshards: usize,
    chains: Vec<Chain>,
    /// Plain `(shard, instant)` events scheduled before the chains and
    /// after them.
    before: Vec<(usize, u64)>,
    after: Vec<(usize, u64)>,
}

fn chain_workload_strategy() -> impl Strategy<Value = ChainWorkload> {
    (2usize..=4)
        .prop_flat_map(|nshards| {
            // Gaps of 1–4 ns over a handful of chains: ties everywhere.
            let send = prop_oneof![
                2 => Just(None),
                1 => (1..nshards, 0u64..8).prop_map(Some),
            ];
            let chain = (0..nshards, prop::collection::vec((1u64..=4, send), 1..12));
            let plain = || prop::collection::vec((0..nshards, 0u64..48), 0..6);
            (Just(nshards), prop::collection::vec(chain, 1..8), plain(), plain())
        })
        .prop_map(|(nshards, chains, before, after)| {
            let chains = chains
                .into_iter()
                .map(|(shard, gaps)| {
                    let mut t = 0;
                    let links = gaps
                        .into_iter()
                        .map(|(gap, send)| {
                            t += gap;
                            let send = send
                                .map(|(hop, extra)| ((shard + hop) % nshards, CHAIN_LOOKAHEAD + extra));
                            (t, send)
                        })
                        .collect();
                    Chain { shard, links }
                })
                .collect();
            ChainWorkload { nshards, chains, before, after }
        })
}

/// The chain workload's events.
enum ChainEv {
    /// Log `(now, id)`.
    Log(u32),
    /// Link `k` of `chain` (numbered `id`); `slots` is the chain's first
    /// reserved slot when links are chained.
    Link { chain: Rc<Chain>, id: u32, k: usize, slots: Option<u64> },
}

impl Event<Shard<Trace, ChainEv>> for ChainEv {
    fn fire(self, s: &mut ShardSim<Trace, ChainEv>) {
        match self {
            ChainEv::Log(id) => {
                let t = s.now().as_nanos();
                s.world.push((t, id));
            }
            ChainEv::Link { chain, id, k, slots } => {
                if let (Some(first), Some(&(t, _))) = (slots, chain.links.get(k + 1)) {
                    let next = ChainEv::Link { chain: Rc::clone(&chain), id, k: k + 1, slots };
                    s.schedule_slot(SimTime::from_nanos(t), first + k as u64 + 1, next);
                }
                let label = id * 100 + k as u32;
                ChainEv::Log(label).fire(s);
                if let Some((dst, delay)) = chain.links[k].1 {
                    s.send_to(dst, SimDur::from_nanos(delay), ChainEv::Log(10_000 + label));
                }
            }
        }
    }
}

/// Run the chain workload with every link scheduled at setup
/// (`chained = false`), or with each chain's block of slots reserved at
/// the same point and every link queuing only its successor.
fn run_chains(w: &ChainWorkload, chained: bool) -> (Vec<Trace>, u64, u64) {
    let mut psim =
        ShardedSim::new(vec![Trace::new(); w.nshards], SimDur::from_nanos(CHAIN_LOOKAHEAD));
    for &(shard, t) in &w.before {
        psim.shard_mut(shard).schedule(SimTime::from_nanos(t), ChainEv::Log(20_000));
    }
    let mut next_slot: Vec<u64> = (0..w.nshards)
        .map(|g| {
            let links: usize = w.chains.iter().filter(|c| c.shard == g).map(|c| c.links.len()).sum();
            if chained { psim.shard_mut(g).reserve(links as u64) } else { 0 }
        })
        .collect();
    for (id, chain) in w.chains.iter().enumerate() {
        let (id, chain) = (id as u32, Rc::new(chain.clone()));
        let shard = psim.shard_mut(chain.shard);
        if chained {
            let first = next_slot[chain.shard];
            next_slot[chain.shard] += chain.links.len() as u64;
            let t = SimTime::from_nanos(chain.links[0].0);
            shard.schedule_slot(t, first, ChainEv::Link { chain, id, k: 0, slots: Some(first) });
        } else {
            for (k, &(t, _)) in chain.links.iter().enumerate() {
                let link = ChainEv::Link { chain: Rc::clone(&chain), id, k, slots: None };
                shard.schedule(SimTime::from_nanos(t), link);
            }
        }
    }
    for &(shard, t) in &w.after {
        psim.shard_mut(shard).schedule(SimTime::from_nanos(t), ChainEv::Log(30_000));
    }
    psim.run();
    let traces = psim.shards().map(|s| s.world.clone()).collect();
    (traces, psim.windows(), psim.injected())
}

proptest! {
    /// With globally unique timestamps the windowed apply order must be
    /// bit-identical to the serial `Sim`'s, shard by shard.
    #[test]
    fn parallel_matches_serial_sim_on_unique_times(w in workload_strategy(2)) {
        let serial = run_serial(&w, true);
        let (traces, psim) = run_sharded(&w, true);
        prop_assert_eq!(&traces, &serial);
        if let Some(slack) = psim.min_inject_slack() {
            prop_assert!(slack >= 0, "conservative violation: slack {}", slack);
        }
        // Sanity: the oracle actually executed every seed's cascade.
        let total: usize = serial.iter().map(|t| t.len()).sum();
        prop_assert!(total >= w.seeds.len());
    }

    /// With ties allowed, no injection lands below a destination clock
    /// and the run is a function of the workload alone.
    #[test]
    fn a_second_run_reproduces_the_trace(w in workload_strategy(2)) {
        let (traces, psim) = run_sharded(&w, false);
        if let Some(slack) = psim.min_inject_slack() {
            prop_assert!(slack >= 0, "conservative violation: slack {}", slack);
        }
        let (again, psim2) = run_sharded(&w, false);
        prop_assert_eq!(&again, &traces);
        prop_assert_eq!(psim2.windows(), psim.windows());
        prop_assert_eq!(psim2.injected(), psim.injected());
    }

    /// Filling reserved slots one link ahead is indistinguishable from
    /// scheduling every link up front: same per-shard trace, same
    /// windows, same injections.
    #[test]
    fn chains_under_reserved_slots_match_eager_scheduling(w in chain_workload_strategy()) {
        prop_assert_eq!(run_chains(&w, true), run_chains(&w, false));
    }
}
