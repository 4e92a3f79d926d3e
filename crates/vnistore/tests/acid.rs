//! ACID property tests: under randomized workloads and crash points, the
//! recovered store must equal the state produced by exactly the
//! committed-transaction prefix — never a partial transaction, never a
//! lost committed one. This is the guarantee the paper leans on SQLite
//! for (§III-C2).
//!
//! Scripts mix both table kinds: puts and deletes on two map tables,
//! appends to a log table under an ascending sequence key (the shape of
//! the VNI database's `vnis` + `audit_log`).

use proptest::prelude::*;
use shs_des::DetRng;
use shs_vnistore::{SimDisk, Store, StoreConfig};
use std::collections::BTreeMap;

/// A scripted operation for the model-based test.
#[derive(Debug, Clone)]
enum ScriptOp {
    Put { table: u8, key: u8, value: u16 },
    Delete { table: u8, key: u8 },
    Append { value: u16 },
    CommitTxn,
    AbortTxn,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        4 => (0u8..2, 0u8..16, any::<u16>())
            .prop_map(|(table, key, value)| ScriptOp::Put { table, key, value }),
        2 => (0u8..2, 0u8..16).prop_map(|(table, key)| ScriptOp::Delete { table, key }),
        3 => any::<u16>().prop_map(|value| ScriptOp::Append { value }),
        3 => Just(ScriptOp::CommitTxn),
        1 => Just(ScriptOp::AbortTxn),
        1 => Just(ScriptOp::Snapshot),
    ]
}

const MAPS: [&str; 2] = ["vnis", "vni_users"];
const LOG: &str = "audit_log";

type Model = BTreeMap<(String, Vec<u8>), Vec<u8>>;

fn dump(store: &Store) -> Model {
    let mut out = BTreeMap::new();
    for t in MAPS.into_iter().chain([LOG]) {
        assert_eq!(store.scan(t).count(), store.row_count(t));
        assert_eq!(store.scan(t).last().map(|(k, _)| k), store.last_key(t));
        for (k, v) in store.scan(t) {
            assert_eq!(store.get(t, k), Some(v), "scan and get agree");
            out.insert((t.to_string(), k.to_vec()), v.to_vec());
        }
    }
    out
}

/// The store under test next to a model that reflects only *committed*
/// transactions.
struct Harness {
    store: Store,
    committed: Model,
    staged: Vec<ScriptOp>,
    /// Next log key; advances only when an append commits.
    next_seq: u64,
}

impl Harness {
    /// Continue on `store` from whatever it holds (a fresh store, or one
    /// just recovered).
    fn on(store: Store) -> Self {
        let committed = dump(&store);
        let next_seq = store
            .last_key(LOG)
            .map_or(0, |k| u64::from_be_bytes(k.try_into().expect("8-byte key")) + 1);
        Harness { store, committed, staged: Vec::new(), next_seq }
    }

    /// Run one script step; true when it committed a transaction.
    fn step(&mut self, op: &ScriptOp) -> bool {
        match op {
            ScriptOp::AbortTxn => self.staged.clear(),
            ScriptOp::Snapshot => self.store.snapshot(),
            ScriptOp::CommitTxn => {
                let mut txn = self.store.begin();
                for s in self.staged.drain(..) {
                    match s {
                        ScriptOp::Put { table, key, value } => {
                            let table = MAPS[table as usize];
                            txn.put(table, &[key], &value.to_le_bytes());
                            self.committed
                                .insert((table.into(), vec![key]), value.to_le_bytes().to_vec());
                        }
                        ScriptOp::Delete { table, key } => {
                            let table = MAPS[table as usize];
                            txn.delete(table, &[key]);
                            self.committed.remove(&(table.to_string(), vec![key]));
                        }
                        ScriptOp::Append { value } => {
                            let key = self.next_seq.to_be_bytes();
                            self.next_seq += 1;
                            txn.append(LOG, &key, &value.to_le_bytes());
                            self.committed
                                .insert((LOG.into(), key.to_vec()), value.to_le_bytes().to_vec());
                        }
                        _ => unreachable!("only row operations are staged"),
                    }
                }
                txn.commit();
                return true;
            }
            row_op => self.staged.push(row_op.clone()),
        }
        false
    }
}

fn run_script(ops: &[ScriptOp], snapshot_every: Option<u64>) -> (Store, Model) {
    let mut h = Harness::on(Store::new(StoreConfig { snapshot_every, ..Default::default() }));
    for op in ops {
        h.step(op);
    }
    (h.store, h.committed)
}

/// Run `ops` in group-commit mode on `h`, flushing every `batch_every`
/// commits, and shut down. Returns the device image and every state it
/// can legally recover to when cut short: the starting state plus the
/// model at each flush/snapshot boundary.
fn run_grouped(mut h: Harness, ops: &[ScriptOp], batch_every: u64) -> (SimDisk, Vec<Model>) {
    h.store.group_begin();
    let mut boundaries = vec![h.committed.clone()];
    let mut commits = 0u64;
    for op in ops {
        let flushed = if h.step(op) {
            commits += 1;
            commits.is_multiple_of(batch_every) && {
                h.store.group_flush();
                true
            }
        } else {
            matches!(op, ScriptOp::Snapshot) // flushes the open batch first
        };
        if flushed {
            boundaries.push(h.committed.clone());
        }
    }
    h.store.group_end();
    boundaries.push(h.committed);
    (h.store.shutdown(), boundaries)
}

/// The first `cut_seed % (len + 1)` bytes of `full`, as a synced device.
fn cut_short(full: &SimDisk, cut_seed: u64) -> SimDisk {
    let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
    let mut torn = SimDisk::new();
    torn.append(&full.contents()[..cut]);
    torn.fsync();
    torn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Clean shutdown + recovery reproduces exactly the committed state.
    #[test]
    fn recovery_equals_committed_state(
        ops in prop::collection::vec(op_strategy(), 1..80),
        snap in prop_oneof![Just(None), Just(Some(3u64)), Just(Some(10u64))],
    ) {
        let (store, committed) = run_script(&ops, snap);
        let recovered = Store::recover(store.shutdown(), StoreConfig::default());
        prop_assert_eq!(dump(&recovered), committed);
    }

    /// Crashing at an arbitrary point never exposes partial transactions
    /// and never loses a committed one (commit fsyncs before returning).
    #[test]
    fn crash_recovery_is_atomic_and_durable(
        ops in prop::collection::vec(op_strategy(), 1..80),
        crash_seed in any::<u64>(),
        snap in prop_oneof![Just(None), Just(Some(4u64))],
    ) {
        let (store, committed) = run_script(&ops, snap);
        let mut rng = DetRng::new(crash_seed);
        let disk = store.crash(&mut rng);
        let recovered = Store::recover(disk, StoreConfig::default());
        // All commits fsynced => crash must preserve them all.
        prop_assert_eq!(dump(&recovered), committed);
    }

    /// Recovery is idempotent: recovering twice gives the same state, and
    /// the recovered store accepts new transactions.
    #[test]
    fn recovery_is_idempotent_and_writable(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let (store, _) = run_script(&ops, Some(5));
        let disk = store.shutdown();
        let r1 = Store::recover(disk.clone(), StoreConfig::default());
        let r2 = Store::recover(disk, StoreConfig::default());
        prop_assert_eq!(dump(&r1), dump(&r2));
        let mut r = r1;
        let mut txn = r.begin();
        txn.put("vnis", b"new", b"row");
        txn.commit();
        prop_assert_eq!(r.get("vnis", b"new"), Some(b"row".as_slice()));
    }

    /// Group-commit batches are all-or-nothing: truncating the device at
    /// ANY byte offset (a torn write mid-group-commit) recovers exactly
    /// the state at some batch boundary — never part of a batch, never a
    /// lost flushed one. With a snapshot cadence, flushes also rewrite
    /// the device as a snapshot between batches, so the cut may land in
    /// the snapshot frame or in a batch behind it.
    #[test]
    fn torn_group_commit_recovers_whole_batches_only(
        ops in prop::collection::vec(op_strategy(), 1..80),
        batch_every in 2u64..8,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64)), Just(Some(7u64))],
        cut_seed in any::<u64>(),
    ) {
        let fresh = Store::new(StoreConfig { snapshot_every, ..Default::default() });
        let (full, boundaries) = run_grouped(Harness::on(fresh), &ops, batch_every);
        let torn = cut_short(&full, cut_seed);
        let cut = torn.len();
        let state = dump(&Store::recover(torn, StoreConfig::default()));
        prop_assert!(
            boundaries.contains(&state),
            "cut {} of {} bytes recovered a non-boundary state", cut, full.len()
        );
    }

    /// Life goes on after a torn image: recover from a device cut at any
    /// byte, commit more transactions on top, shut down, recover again —
    /// everything committed after the first recovery is still there
    /// (recovery must not leave the torn tail in front of new frames),
    /// and a second cut still lands on a boundary.
    #[test]
    fn commits_after_a_torn_recovery_are_durable(
        before in prop::collection::vec(op_strategy(), 1..60),
        after in prop::collection::vec(op_strategy(), 1..60),
        batch_every in 2u64..8,
        cut_seed in any::<u64>(),
        second_cut_seed in any::<u64>(),
    ) {
        let config = StoreConfig { snapshot_every: Some(6), ..Default::default() };
        let (full, mut boundaries) =
            run_grouped(Harness::on(Store::new(config)), &before, batch_every);
        let survivor = Harness::on(Store::recover(cut_short(&full, cut_seed), config));
        let (full, later) = run_grouped(survivor, &after, batch_every);
        let state = dump(&Store::recover(full.clone(), config));
        prop_assert_eq!(Some(&state), later.last(), "a commit after the recovery is missing");
        // A cut into the old prefix lands on an old boundary.
        boundaries.extend(later);
        let state = dump(&Store::recover(cut_short(&full, second_cut_seed), config));
        prop_assert!(boundaries.contains(&state), "second cut recovered a non-boundary state");
    }

    /// A torn tail (arbitrary garbage appended then crash) never corrupts
    /// the committed prefix.
    #[test]
    fn garbage_tail_is_ignored(
        ops in prop::collection::vec(op_strategy(), 1..40),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (store, committed) = run_script(&ops, None);
        let mut disk: SimDisk = store.shutdown();
        disk.append(&garbage); // unsynced garbage tail
        let mut rng = DetRng::new(9);
        let disk = disk.crash(&mut rng);
        let recovered = Store::recover(disk, StoreConfig::default());
        prop_assert_eq!(dump(&recovered), committed);
    }
}
