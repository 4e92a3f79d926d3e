//! State-machine equivalence: the indexed `VniDb` against a naive
//! scan-based oracle. The oracle allocates the way the pre-index
//! database did — a linear probe over the range for every acquire,
//! lowest legal VNI first, and a filter over every VNI for every sweep
//! — and takes what is legal from the lifecycle model, so any
//! divergence (results, rows, stats, audit log) is an index bug, not a
//! modeling artifact. After every step the database's own audit log is
//! also replayed through a fresh model, which must accept every entry
//! and end in the database's rows. Crash/recovery is injected
//! mid-sequence; every committed operation must survive it, and the
//! rebuilt indexes must pass `check_index_consistency`.

use proptest::prelude::*;
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::Vni;
use slingshot_k8s::lifecycle::{Lifecycle, Phase};
use slingshot_k8s::{AuditEntry, VniDb, VniDbConfig, VniDbError, VniOwner};
use std::collections::BTreeMap;

const RANGE: core::ops::Range<u16> = 4000..4008; // deliberately tight
const QUARANTINE: SimDur = SimDur::from_millis(30_000);

fn config() -> VniDbConfig {
    VniDbConfig { range: RANGE, quarantine: QUARANTINE }
}

/// The naive model: the lifecycle model, the owner each row keeps, and
/// scan-based allocation, in memory only.
struct Oracle {
    model: Lifecycle,
    owners: BTreeMap<u16, VniOwner>,
    audit: Vec<AuditEntry>,
}

impl Oracle {
    fn new() -> Self {
        Oracle { model: Lifecycle::new(QUARANTINE), owners: BTreeMap::new(), audit: Vec::new() }
    }

    fn log(&mut self, now: SimTime, event: String, vni: u16) {
        let entry = AuditEntry { at_ns: now.as_nanos(), event, vni };
        self.model.apply(&entry).expect("the oracle makes only legal transitions");
        self.audit.push(entry);
    }

    fn held(&self, vni: u16) -> Option<&[String]> {
        match self.model.phase(vni) {
            Phase::Held { users } => Some(users),
            _ => None,
        }
    }

    /// The VNI `owner` holds.
    fn held_by(&self, owner: &VniOwner) -> Option<u16> {
        self.owners.iter().find_map(|(&v, o)| (o == owner && self.held(v).is_some()).then_some(v))
    }

    fn acquire(&mut self, owner: &VniOwner, now: SimTime) -> Result<u16, VniDbError> {
        if let Some(vni) = self.held_by(owner) {
            return Ok(vni);
        }
        let vni =
            RANGE.clone().find(|&v| self.model.reusable(v, now)).ok_or(VniDbError::Exhausted)?;
        self.owners.insert(vni, owner.clone());
        self.log(now, "acquire".into(), vni);
        Ok(vni)
    }

    /// `release`, `add_user:` or `remove_user:` — `event` — of `vni`,
    /// legal only while it is held.
    fn on_held(&mut self, vni: u16, event: String, now: SimTime) -> Result<(), VniDbError> {
        self.held(vni).ok_or(VniDbError::NotFound)?;
        self.log(now, event, vni);
        Ok(())
    }

    fn release_claim(&mut self, claim_key: &str, now: SimTime) -> Result<(), VniDbError> {
        let claim = VniOwner::Claim { key: claim_key.to_string() };
        let vni = self.held_by(&claim).ok_or(VniDbError::NotFound)?;
        if !self.held(vni).expect("found held").is_empty() {
            return Err(VniDbError::ClaimInUse);
        }
        self.on_held(vni, "release".into(), now)
    }

    fn sweep(&mut self, now: SimTime) -> usize {
        let expired: Vec<u16> = self.model.expired(now).collect();
        for &vni in &expired {
            self.owners.remove(&vni);
            self.log(now, "quarantine_expire".into(), vni);
        }
        expired.len()
    }

    /// (allocated, quarantined, free) after the sweep, like `stats`.
    fn stats(&mut self, now: SimTime) -> (usize, usize, usize) {
        self.sweep(now);
        let live = self.model.iter().count();
        let allocated = self.model.iter().filter(|(v, _)| self.held(*v).is_some()).count();
        (allocated, live - allocated, RANGE.len() - live)
    }
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
    /// The public API takes arbitrary `SimTime`s; rewinding exercises
    /// the expiry demotion path (quarantine must be judged per call).
    RewindMs { ms: u32 },
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
        1 => any::<u64>().prop_map(|seed| Op::CrashRecover { seed }),
    ]
}

/// Owner ids map to a fixed pool: even ids are jobs, odd ids are claims,
/// so idempotent re-acquire and claim semantics both get exercised.
fn owner(id: u8) -> VniOwner {
    if id.is_multiple_of(2) {
        VniOwner::Job { key: format!("ns/job{id}") }
    } else {
        VniOwner::Claim { key: format!("ns/claim{id}") }
    }
}

/// A database result and the oracle's, rendered for comparison.
fn results<T: std::fmt::Debug>(got: T, want: T) -> Option<(String, String)> {
    Some((format!("{got:?}"), format!("{want:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every operation, result, row, stat and audit entry of the indexed
    /// database matches the scan-based oracle, across arbitrary
    /// interleavings with crash/recovery.
    #[test]
    fn indexed_db_matches_scan_oracle(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let mut db = VniDb::new(config());
        let mut oracle = Oracle::new();
        let mut now = SimTime::ZERO;

        for op in ops {
            // Each operation's result on the database and on the oracle.
            let results: Option<(String, String)> = match &op {
                Op::Acquire { owner: id } => {
                    let o = owner(*id);
                    results(db.acquire(o.clone(), now).map(|v| v.raw()), oracle.acquire(&o, now))
                }
                Op::Release { vni_off } => {
                    let vni = RANGE.start + *vni_off as u16; // may be out of range
                    results(db.release(Vni(vni), now), oracle.on_held(vni, "release".into(), now))
                }
                Op::AddUser { vni_off, user } => {
                    let vni = RANGE.start + *vni_off as u16;
                    let u = format!("ns/user{user}");
                    let want = oracle.on_held(vni, format!("add_user:{u}"), now);
                    results(db.add_user(Vni(vni), &u, now), want)
                }
                Op::RemoveUser { vni_off, user } => {
                    let vni = RANGE.start + *vni_off as u16;
                    let u = format!("ns/user{user}");
                    let want = oracle.on_held(vni, format!("remove_user:{u}"), now);
                    let want = want.map(|()| oracle.held(vni).expect("still held").len());
                    results(db.remove_user(Vni(vni), &u, now), want)
                }
                Op::ReleaseClaim { owner: id } => {
                    let key = format!("ns/claim{id}");
                    results(db.release_claim(&key, now), oracle.release_claim(&key, now))
                }
                Op::Sweep => results(db.sweep_expired(now), oracle.sweep(now)),
                Op::Stats => {
                    let got = db.stats(now);
                    results((got.allocated, got.quarantined, got.free), oracle.stats(now))
                }
                Op::AdvanceMs { ms } => {
                    now += SimDur::from_millis(*ms as u64);
                    None
                }
                Op::RewindMs { ms } => {
                    let back = (*ms as u64) * 1_000_000;
                    now = SimTime::from_nanos(now.as_nanos().saturating_sub(back));
                    None
                }
                Op::CrashRecover { seed } => {
                    let mut rng = DetRng::new(*seed);
                    let disk = db.into_store().crash(&mut rng);
                    db = VniDb::recover(disk, config());
                    None
                }
            };
            // The lifecycle judge first, so a broken rule is reported with
            // its VNI and audit seq: the database's own log must replay
            // cleanly and end in its rows.
            let db_audit = db.audit();
            let db_rows = db.rows();
            let (_, broken) = Lifecycle::replay(QUARANTINE, &db_audit, &db_rows);
            prop_assert!(broken.is_empty(), "after {:?}: {:?}", op, broken);
            // Then exact equivalence: results, audit and row owners agree
            // (with the replay above, the rows agree byte-for-byte), and
            // the indexes agree with the store.
            if let Some((got, want)) = results {
                prop_assert_eq!(got, want, "{:?} diverged", op);
            }
            prop_assert_eq!(&db_audit, &oracle.audit, "audit diverged after {:?}", op);
            let owners: BTreeMap<u16, VniOwner> =
                db_rows.into_iter().map(|r| (r.vni, r.owner)).collect();
            prop_assert_eq!(&owners, &oracle.owners, "row owners diverged after {:?}", op);
            if let Err(e) = db.check_index_consistency() {
                return Err(TestCaseError::fail(format!("index inconsistency after {op:?}: {e}")));
            }
        }
    }
}
