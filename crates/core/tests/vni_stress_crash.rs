//! Crash-anywhere for the control-plane stress workload: the `vni-churn`
//! step sequence, crashed after a random number of steps — mostly with a
//! group-commit batch open, whose rows already sit in the store's log
//! segment but are not yet marked by a WAL frame.
//!
//! Recovery must give back exactly the rows and audit entries of the
//! last group flush: the audit keys contiguous from 0, every index
//! consistent with the store, and the recovered log plus the acquires
//! made afterwards must replay through the lifecycle model: no VNI
//! reissued inside the 30 s quarantine its recovered row records. The range
//! is narrow enough (800 VNIs, 400 live tenants) that quarantined VNIs
//! recycle from about step 700, so the acquires after the crash run into
//! both expired and unexpired quarantines.

use proptest::prelude::*;
use shs_des::{DetRng, SimDur};
use slingshot_k8s::lifecycle::Lifecycle;
use slingshot_k8s::{VniDb, VniDbConfig, VniDbError, VniOwner, VniStressWorkload};

fn config() -> VniDbConfig {
    VniDbConfig { range: 1024..1824, quarantine: SimDur::from_secs(30) }
}

fn crash_and_recover(steps: u64, crash_seed: u64) -> Result<(), TestCaseError> {
    let mut w = VniStressWorkload::with_config(1_000, config());
    let flushed = steps - steps % VniStressWorkload::FLUSH_EVERY;
    for _ in 0..flushed {
        w.step();
    }
    let (rows, audit) = (w.db().rows(), w.db().audit());
    for _ in flushed..steps {
        w.step();
    }
    let now = w.now();
    let mut db = VniDb::recover(w.crash(&mut DetRng::new(crash_seed)), config());
    prop_assert_eq!(db.rows(), rows, "rows at the last flush (step {})", flushed);
    prop_assert_eq!(db.audit(), audit, "audit entries at the last flush");
    prop_assert_eq!(db.audit_len() as u64, flushed, "one audit key per flushed step");
    if let Err(e) = db.check_index_consistency() {
        return Err(TestCaseError::fail(format!("recovered indexes: {e}")));
    }
    // Fresh tenants acquire until the range runs dry; the recovered log
    // plus those acquires must replay through the lifecycle model — no
    // VNI reissued inside the quarantine its recovered row records — and
    // end in the rows the database holds.
    for i in 0.. {
        if let Err(e) = db.acquire(VniOwner::Job { key: format!("after-crash/t{i}") }, now) {
            prop_assert_eq!(e, VniDbError::Exhausted, "acquire {}", i);
            break;
        }
    }
    let (_, broken) = Lifecycle::replay(db.quarantine(), &db.audit(), &db.rows());
    prop_assert!(broken.is_empty(), "after the acquires: {:?}", broken);
    if let Err(e) = db.check_index_consistency() {
        return Err(TestCaseError::fail(format!("after the acquires: {e}")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_crash_anywhere_recovers_the_last_group_flush(
        steps in 0u64..2_500,
        crash_seed in any::<u64>(),
    ) {
        crash_and_recover(steps, crash_seed)?;
    }
}

/// The edges the random cases may miss: a crash right at a flush, one
/// step past it, and one step short of the next.
#[test]
fn crashes_at_window_edges_recover_the_last_group_flush() {
    let window = VniStressWorkload::FLUSH_EVERY;
    for steps in [0, 1, window - 1, window, 12 * window, 12 * window + 1, 13 * window - 1] {
        crash_and_recover(steps, steps ^ 0x5eed)
            .unwrap_or_else(|e| panic!("{steps} steps: {e}"));
    }
}
