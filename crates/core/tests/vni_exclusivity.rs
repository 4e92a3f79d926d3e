//! VNI database invariants the lifecycle model does not state: the
//! audit log is append-only, dense and crash-safe, and the quarantine
//! boundary is exact. Exclusivity and the quarantine rule under
//! arbitrary operation sequences with crash/recovery are judged by the
//! lifecycle model in `tests/vni_oracle.rs`.

use proptest::prelude::*;
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::Vni;
use slingshot_k8s::{VniDb, VniDbConfig, VniDbError, VniOwner, VniState};

const RANGE: core::ops::Range<u16> = 1024..1032; // deliberately tight

fn config() -> VniDbConfig {
    VniDbConfig { range: RANGE, quarantine: SimDur::from_secs(30) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The audit log is append-only and survives crashes: its length
    /// never shrinks and every successful mutation appends exactly once.
    #[test]
    fn audit_log_is_append_only(
        n_ops in 1usize..40,
        crash_seed in any::<u64>(),
    ) {
        let mut db = VniDb::new(config());
        let mut expected = 0usize;
        for i in 0..n_ops {
            let key = format!("ns/a{i}");
            if db.acquire(VniOwner::Job { key }, SimTime::ZERO).is_ok() {
                expected += 1;
            }
            prop_assert_eq!(db.audit_len(), expected);
        }
        let mut rng = DetRng::new(crash_seed);
        let db2 = VniDb::recover(db.into_store().crash(&mut rng), config());
        prop_assert_eq!(db2.audit_len(), expected, "audit entries lost in crash");
    }
}

/// Exact-boundary semantics of the 30 s quarantine (§III-C1). The
/// implementation frees a VNI when `now >= released_at + quarantine`:
/// one nanosecond before the boundary the VNI must still be withheld,
/// and exactly at the boundary it must be reusable again.
#[test]
fn reuse_exactly_at_quarantine_boundary() {
    // Single-VNI range: acquisition outcomes map 1:1 to that VNI's state.
    let mut db = VniDb::new(VniDbConfig {
        range: 2048..2049,
        quarantine: SimDur::from_secs(30),
    });
    let released_at = SimTime::from_nanos(7_000_000_000);
    let boundary = SimTime::from_nanos(37_000_000_000);

    let vni = db.acquire(VniOwner::Job { key: "ns/first".into() }, SimTime::ZERO).unwrap();
    db.release(vni, released_at).unwrap();

    // 1 ns short of the boundary: still quarantined.
    let just_before = SimTime::from_nanos(boundary.as_nanos() - 1);
    assert!(
        db.acquire(VniOwner::Job { key: "ns/early".into() }, just_before).is_err(),
        "VNI handed out 1 ns before the quarantine boundary"
    );
    // The failed attempt must not have perturbed the row.
    let row = db.row(vni).expect("row survives");
    assert_eq!(row.state, VniState::Quarantined { released_at_ns: released_at.as_nanos() });

    // Exactly at the boundary: reusable, and by the same VNI.
    let reused = db
        .acquire(VniOwner::Job { key: "ns/boundary".into() }, boundary)
        .expect("VNI must be reusable exactly at released_at + quarantine");
    assert_eq!(reused, vni);
}

/// The audit log appends in operation order with dense sequence keys:
/// one entry per successful mutation, in exactly the order issued, with
/// failed operations appending nothing — and recovery preserves both
/// the order and the next sequence number.
#[test]
fn audit_log_appends_in_operation_order() {
    let mut db = VniDb::new(VniDbConfig {
        range: 3000..3004,
        quarantine: SimDur::from_secs(30),
    });
    let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);

    let claim = VniOwner::Claim { key: "ns/claim".into() };
    let v_claim = db.acquire(claim, t(1)).unwrap();
    db.add_user(v_claim, "ns/job-a", t(2)).unwrap();
    db.add_user(v_claim, "ns/job-b", t(3)).unwrap();
    let v_job = db.acquire(VniOwner::Job { key: "ns/solo".into() }, t(4)).unwrap();
    // Failed mutations must not append: claim release while users remain,
    // release of a never-allocated VNI, user removal from a non-allocated
    // (released-and-quarantined) VNI.
    assert!(db.release_claim("ns/claim", t(5)).is_err());
    assert!(db.release(Vni(3003), t(5)).is_err());
    let v_tmp = db.acquire(VniOwner::Job { key: "ns/tmp".into() }, t(5)).unwrap();
    db.release(v_tmp, t(5)).unwrap();
    assert_eq!(
        db.remove_user(v_tmp, "ns/ghost", t(5)).unwrap_err(),
        VniDbError::NotFound,
        "remove_user on a quarantined VNI must fail, not mutate"
    );
    db.remove_user(v_claim, "ns/job-b", t(6)).unwrap();
    db.remove_user(v_claim, "ns/job-a", t(7)).unwrap();
    db.release_claim("ns/claim", t(8)).unwrap();
    db.release(v_job, t(9)).unwrap();

    let expected: Vec<(u64, String, u16)> = vec![
        (t(1).as_nanos(), "acquire".into(), v_claim.raw()),
        (t(2).as_nanos(), "add_user:ns/job-a".into(), v_claim.raw()),
        (t(3).as_nanos(), "add_user:ns/job-b".into(), v_claim.raw()),
        (t(4).as_nanos(), "acquire".into(), v_job.raw()),
        (t(5).as_nanos(), "acquire".into(), v_tmp.raw()),
        (t(5).as_nanos(), "release".into(), v_tmp.raw()),
        (t(6).as_nanos(), "remove_user:ns/job-b".into(), v_claim.raw()),
        (t(7).as_nanos(), "remove_user:ns/job-a".into(), v_claim.raw()),
        (t(8).as_nanos(), "release".into(), v_claim.raw()),
        (t(9).as_nanos(), "release".into(), v_job.raw()),
    ];
    let got: Vec<(u64, String, u16)> =
        db.audit().into_iter().map(|e| (e.at_ns, e.event, e.vni)).collect();
    assert_eq!(got, expected, "audit entries out of order or miscounted");

    // Order and the append cursor survive shutdown + recovery: the next
    // mutation lands at the next dense sequence slot, never overwriting.
    let mut db = VniDb::recover(db.into_store().shutdown(), VniDbConfig {
        range: 3000..3004,
        quarantine: SimDur::from_secs(30),
    });
    let got_after: Vec<(u64, String, u16)> =
        db.audit().into_iter().map(|e| (e.at_ns, e.event, e.vni)).collect();
    assert_eq!(got_after, expected, "recovery reordered the audit log");

    let v_new = db.acquire(VniOwner::Job { key: "ns/after".into() }, t(40)).unwrap();
    let tail = db.audit();
    assert_eq!(tail.len(), expected.len() + 1);
    assert_eq!(
        (tail.last().unwrap().event.as_str(), tail.last().unwrap().vni),
        ("acquire", v_new.raw()),
        "post-recovery append must extend, not overwrite, the log"
    );
}
