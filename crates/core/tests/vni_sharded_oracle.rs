//! Facade equivalence: a `ShardedVniDb` at 1–4 shards against a plain
//! single-store `VniDb` (itself proven equivalent to the scan-based
//! semantics oracle in `tests/vni_oracle.rs`). Every operation result,
//! row, audit entry, stat, counter and transaction count must be
//! **identical at any shard count** — the contract that let the cluster
//! move from the 1-shard facade to one `VniDb` with no report moving,
//! and keeps stress reports byte-identical at any shard count. Crash/recovery
//! is injected mid-sequence, including with an open group-commit batch:
//! both sides must lose exactly the unflushed window and resume the
//! same global audit cursor.

use proptest::prelude::*;
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::Vni;
use slingshot_k8s::{ShardedVniDb, VniDb, VniDbConfig, VniOwner};

const RANGE: core::ops::Range<u16> = 4000..4008; // deliberately tight

fn config() -> VniDbConfig {
    VniDbConfig { range: RANGE, quarantine: SimDur::from_millis(30_000) }
}

#[derive(Debug, Clone)]
enum Op {
    Acquire { owner: u8 },
    Release { vni_off: u8 },
    AddUser { vni_off: u8, user: u8 },
    RemoveUser { vni_off: u8, user: u8 },
    ReleaseClaim { owner: u8 },
    Sweep,
    Stats,
    AdvanceMs { ms: u32 },
    RewindMs { ms: u32 },
    GroupBegin,
    GroupFlush,
    GroupEnd,
    CrashRecover { seed: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..20).prop_map(|owner| Op::Acquire { owner }),
        4 => (0u8..10).prop_map(|vni_off| Op::Release { vni_off }),
        2 => (0u8..10, 0u8..6).prop_map(|(vni_off, user)| Op::AddUser { vni_off, user }),
        2 => (0u8..10, 0u8..6).prop_map(|(vni_off, user)| Op::RemoveUser { vni_off, user }),
        1 => (0u8..20).prop_map(|owner| Op::ReleaseClaim { owner }),
        1 => Just(Op::Sweep),
        1 => Just(Op::Stats),
        3 => (1u32..45_000).prop_map(|ms| Op::AdvanceMs { ms }),
        1 => (1u32..45_000).prop_map(|ms| Op::RewindMs { ms }),
        1 => Just(Op::GroupBegin),
        1 => Just(Op::GroupFlush),
        1 => Just(Op::GroupEnd),
        1 => any::<u64>().prop_map(|seed| Op::CrashRecover { seed }),
    ]
}

fn owner(id: u8) -> VniOwner {
    if id.is_multiple_of(2) {
        VniOwner::Job { key: format!("ns/job{id}") }
    } else {
        VniOwner::Claim { key: format!("ns/claim{id}") }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_facade_matches_single_store(
        ops in prop::collection::vec(op_strategy(), 1..100),
        shards in 1usize..5,
    ) {
        let mut sharded = ShardedVniDb::new(config(), shards);
        let mut single = VniDb::new(config());
        let mut now = SimTime::ZERO;

        for op in ops {
            match &op {
                Op::Acquire { owner: id } => {
                    let o = owner(*id);
                    let got = sharded.acquire(o.clone(), now);
                    let want = single.acquire(o, now);
                    prop_assert_eq!(&got, &want, "acquire diverged at {:?}", op);
                }
                Op::Release { vni_off } => {
                    let vni = Vni(RANGE.start + *vni_off as u16); // may be out of range
                    let got = sharded.release(vni, now);
                    let want = single.release(vni, now);
                    prop_assert_eq!(&got, &want, "release diverged at {:?}", op);
                }
                Op::AddUser { vni_off, user } => {
                    let vni = Vni(RANGE.start + *vni_off as u16);
                    let u = format!("ns/user{user}");
                    let got = sharded.add_user(vni, &u, now);
                    let want = single.add_user(vni, &u, now);
                    prop_assert_eq!(&got, &want, "add_user diverged at {:?}", op);
                }
                Op::RemoveUser { vni_off, user } => {
                    let vni = Vni(RANGE.start + *vni_off as u16);
                    let u = format!("ns/user{user}");
                    let got = sharded.remove_user(vni, &u, now);
                    let want = single.remove_user(vni, &u, now);
                    prop_assert_eq!(&got, &want, "remove_user diverged at {:?}", op);
                }
                Op::ReleaseClaim { owner: id } => {
                    let key = format!("ns/claim{id}");
                    let got = sharded.release_claim(&key, now);
                    let want = single.release_claim(&key, now);
                    prop_assert_eq!(&got, &want, "release_claim diverged at {:?}", op);
                }
                Op::Sweep => {
                    prop_assert_eq!(
                        sharded.sweep_expired(now),
                        single.sweep_expired(now),
                        "sweep count diverged"
                    );
                }
                Op::Stats => {
                    let got = sharded.stats(now);
                    let want = single.stats(now);
                    prop_assert_eq!(got, want, "stats diverged");
                }
                Op::AdvanceMs { ms } => {
                    now += SimDur::from_millis(*ms as u64);
                }
                Op::RewindMs { ms } => {
                    let back = (*ms as u64) * 1_000_000;
                    now = SimTime::from_nanos(now.as_nanos().saturating_sub(back));
                }
                Op::GroupBegin => {
                    sharded.group_begin();
                    single.group_begin();
                }
                Op::GroupFlush => {
                    sharded.group_flush();
                    single.group_flush();
                }
                Op::GroupEnd => {
                    sharded.group_end();
                    single.group_end();
                }
                Op::CrashRecover { seed } => {
                    // Independent rng streams, but the loss is
                    // deterministic either way: exactly the commits since
                    // the last durability barrier (fsync or group flush).
                    let mut rng_s = DetRng::new(*seed);
                    let mut rng_1 = DetRng::new(*seed);
                    sharded = ShardedVniDb::recover(sharded.crash(&mut rng_s), config());
                    single =
                        VniDb::recover(single.into_store().crash(&mut rng_1), config());
                }
            }
            // Global invariants after every step: merged rows, merged
            // audit log, counters and logical transactions all agree,
            // and both sides pass their own consistency checks.
            prop_assert_eq!(&sharded.rows(), &single.rows(), "rows diverged after {:?}", op);
            prop_assert_eq!(&sharded.audit(), &single.audit(), "audit diverged after {:?}", op);
            prop_assert_eq!(
                sharded.counters(),
                single.counters(),
                "counters diverged after {:?}",
                op
            );
            prop_assert_eq!(
                sharded.txn_count(),
                single.txn_count(),
                "logical txns diverged after {:?}",
                op
            );
            if let Err(e) = sharded.check_index_consistency() {
                return Err(TestCaseError::fail(format!(
                    "sharded inconsistency after {op:?}: {e}"
                )));
            }
            if let Err(e) = single.check_index_consistency() {
                return Err(TestCaseError::fail(format!(
                    "single-store inconsistency after {op:?}: {e}"
                )));
            }
        }
    }
}
