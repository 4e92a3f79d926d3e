//! Refactor oracle for the VNI database's storage format: one scripted
//! history (acquire / add_user / remove_user / release / sweep /
//! release_claim, solo commits then group commit, store snapshots
//! mid-way, a crash that drops an open batch, recovery, more commits)
//! with the `export_diagnostics()` JSON pinned at three points and each
//! device image pinned at the end. The JSON pins were captured on the
//! commit *before* transactions were staged in WAL format and the audit
//! log became an append-only table, so matching them proves no later
//! storage rewrite changed a persisted row, an audit entry or a counter
//! — for `VniDb` and for `ShardedVniDb` at 1, 2 and 4 shards. Each
//! image's length (both files) and the FNV-1a hash of its bytes (the
//! WAL's, then the log segment's) were captured when the device split
//! into a WAL and a log segment, so matching them proves no persisted
//! byte moved since.
//!
//! A deliberate format change updates the pins here, in the same commit.

use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::Vni;
use shs_vnistore::SimDisk;
use slingshot_k8s::{ShardedVniDb, VniDb, VniDbConfig, VniDbError, VniOwner};

fn config() -> VniDbConfig {
    VniDbConfig { range: 1024..1184, quarantine: SimDur::from_secs(30) }
}

fn t(secs: u64) -> SimTime {
    SimTime::from_nanos(secs * 1_000_000_000)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The claim lifecycle, then `rounds` of tenant churn starting at
/// second `from`: each round one tenant acquires, attaches a user,
/// detaches it and releases; every 25th round reads `stats`, which
/// sweeps the quarantines that expired meanwhile in one multi-row
/// transaction. `$flush` runs after every round (the group-commit
/// half flushes every 16th). Written as a macro because `VniDb` and
/// `ShardedVniDb` share method names, not a trait.
macro_rules! churn {
    ($db:expr, $tag:expr, $from:expr, $rounds:expr, $flush:expr) => {{
        let claim = format!("ns/shared-{}", $tag);
        let v = $db.acquire(VniOwner::Claim { key: claim.clone() }, t($from)).unwrap();
        for u in ["ns/u1", "ns/u2", "ns/u1"] {
            $db.add_user(v, u, t($from)).unwrap();
        }
        assert_eq!($db.release_claim(&claim, t($from)).unwrap_err(), VniDbError::ClaimInUse);
        assert_eq!($db.remove_user(v, "ns/u1", t($from)).unwrap(), 1);
        assert_eq!($db.remove_user(v, "ns/u2", t($from)).unwrap(), 0);
        $db.release_claim(&claim, t($from)).unwrap();
        assert_eq!($db.release(Vni(9), t($from)).unwrap_err(), VniDbError::NotFound);
        for i in 0..$rounds {
            let now = t($from + 1 + i);
            let owner = VniOwner::Job { key: format!("ns/{}-{i}", $tag) };
            let vni = $db.acquire(owner, now).unwrap();
            $db.add_user(vni, "ns/pod", now).unwrap();
            $db.remove_user(vni, "ns/pod", now).unwrap();
            if i % 3 != 0 {
                $db.release(vni, now).unwrap();
            }
            if i % 25 == 24 {
                $db.stats(now);
            }
            $flush(&mut $db, i);
        }
    }};
}

fn digest(diag: &serde_json::Value) -> u64 {
    fnv1a(serde_json::to_string_pretty(diag).expect("serializes").as_bytes())
}

/// A shut-down device image: its length over both files and the FNV-1a
/// hash of its bytes, the WAL's then the log segment's.
fn image(disk: &SimDisk) -> (usize, u64) {
    (disk.len(), fnv1a(&[disk.wal(), disk.segment()].concat()))
}

/// `(digest before the crash, digest right after recovery, digest at
/// the end, device image per shard at the end)`.
type Pins = (u64, u64, u64, Vec<(usize, u64)>);

fn single_store_history() -> Pins {
    let mut db = VniDb::new(config());
    churn!(db, "solo", 0, 18, |_: &mut VniDb, _| ());
    db.group_begin();
    churn!(db, "grp", 100, 150, |db: &mut VniDb, i| if i % 16 == 15 {
        db.group_flush()
    });
    let before = digest(&db.export_diagnostics());
    // Rounds 144..150 sit in the open batch: the crash rolls them back.
    let store = db.into_store();
    assert!(store.stats().snapshots >= 1, "the history must cross a snapshot before the crash");
    let mut db = VniDb::recover(store.crash(&mut DetRng::new(7)), config());
    db.check_index_consistency().expect("recovered indexes agree with the store");
    let after = digest(&db.export_diagnostics());
    churn!(db, "post", 400, 120, |_: &mut VniDb, _| ());
    db.check_index_consistency().expect("indexes agree with the store");
    let end = digest(&db.export_diagnostics());
    let store = db.into_store();
    assert!(store.stats().snapshots >= 1, "and another one after recovery");
    (before, after, end, vec![image(&store.shutdown())])
}

fn sharded_history(shards: usize) -> Pins {
    let mut db = ShardedVniDb::new(config(), shards);
    churn!(db, "solo", 0, 18, |_: &mut ShardedVniDb, _| ());
    db.group_begin();
    churn!(db, "grp", 100, 150, |db: &mut ShardedVniDb, i| if i % 16 == 15 {
        db.group_flush()
    });
    let before = digest(&db.export_diagnostics());
    let mut db = ShardedVniDb::recover(db.crash(&mut DetRng::new(7)), config());
    db.check_index_consistency().expect("recovered indexes agree with the stores");
    let after = digest(&db.export_diagnostics());
    churn!(db, "post", 400, 120, |_: &mut ShardedVniDb, _| ());
    db.check_index_consistency().expect("indexes agree with the stores");
    let end = digest(&db.export_diagnostics());
    (before, after, end, db.into_disks().iter().map(image).collect())
}

#[test]
fn single_store_history_matches_its_pins() {
    assert_eq!(
        single_store_history(),
        (
            0x354333a90c22f1dd,
            0xe258af22e1ec3d38,
            0xef48e9c0607e179c,
            vec![(79377, 0x1ecc91f0455231a4)]
        )
    );
}

#[test]
fn sharded_histories_match_their_pins() {
    assert_eq!(
        sharded_history(1),
        (
            0x54d02cbe948371e7,
            0x53b650db86e29a1c,
            0xd1329a802ed09538,
            vec![(79377, 0x1ecc91f0455231a4)]
        )
    );
    assert_eq!(
        sharded_history(2),
        (
            0x4c5d07be8fc994ce,
            0x39efd9db78582359,
            0xb76c238020461e75,
            vec![(59593, 0xfba28b959452f50e), (18998, 0xbd573c7b440b7299)]
        )
    );
    assert_eq!(
        sharded_history(4),
        (
            0x3b17b1be860531b4,
            0x6ddacbdb95bbf92f,
            0xa5d4cd80163bb133,
            vec![
                (73372, 0x2b9df6a5a0e793d4),
                (20555, 0xc78391ad69cd6072),
                (18998, 0xbd573c7b440b7299),
                (0, 0xcbf29ce484222325)
            ]
        )
    );
}
