//! ACID property tests: under randomized workloads and crash points, the
//! recovered store must equal the state produced by exactly the
//! committed-transaction prefix — never a partial transaction, never a
//! lost committed one. This is the guarantee the paper leans on SQLite
//! for (§III-C2).
//!
//! The device is two files, a WAL of map-table operations and a log
//! segment of log-table rows, and a crash cuts each one independently:
//! the oracle knows, for every durable state, how long each file must be
//! to hold it, so a cut device must recover exactly the last state both
//! files still hold whole.
//!
//! Scripts mix both table kinds: puts and deletes on two map tables,
//! appends to a log table under an ascending sequence key (the shape of
//! the VNI database's `vnis` + `audit_log`). Map keys run from empty to
//! the 15-byte limit over a four-letter alphabet with `0x00` in it, so
//! scripts are full of keys that prefix each other or differ only by
//! trailing zeros — the cases the store's packed key order must get
//! right.

use proptest::prelude::*;
use shs_des::DetRng;
use shs_vnistore::{SimDisk, Store, StoreConfig};
use std::collections::BTreeMap;

/// A scripted operation for the model-based test.
#[derive(Debug, Clone)]
enum ScriptOp {
    Put { table: u8, key: Vec<u8>, value: u16 },
    Delete { table: u8, key: Vec<u8> },
    Append { value: u16 },
    CommitTxn,
    AbortTxn,
    Snapshot,
}

/// A map key: mostly short, so puts and deletes keep landing on the same
/// keys and on each other's prefixes, sometimes up to the 15-byte limit.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    let byte = || (0usize..4).prop_map(|i| [0x00u8, 0x01, b'a', 0xff][i]);
    prop_oneof![
        3 => prop::collection::vec(byte(), 0..3),
        1 => prop::collection::vec(byte(), 0..=15),
    ]
}

fn op_strategy() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        4 => (0u8..2, key_strategy(), any::<u16>())
            .prop_map(|(table, key, value)| ScriptOp::Put { table, key, value }),
        2 => (0u8..2, key_strategy()).prop_map(|(table, key)| ScriptOp::Delete { table, key }),
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
        let keys: Vec<&[u8]> = store.scan(t).map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "`{t}` scans in byte-string order");
        for (k, v) in store.scan(t) {
            assert_eq!(store.get(t, k), Some(v), "scan and get agree");
            out.insert((t.to_string(), k.to_vec()), v.to_vec());
        }
    }
    out
}

/// A state the device can recover to, and the file lengths it needs:
/// the WAL through its frame, the log segment through that frame's mark.
#[derive(Debug, Clone)]
struct Boundary {
    wal: usize,
    segment: usize,
    state: Model,
}

/// Nothing accepted: what a WAL cut before its first frame recovers.
fn empty() -> Boundary {
    Boundary { wal: 0, segment: 0, state: Model::new() }
}

/// The state a device cut to `wal` and `segment` bytes must recover: the
/// last boundary both files still hold whole.
fn expected(boundaries: &[Boundary], wal: usize, segment: usize) -> &Boundary {
    boundaries
        .iter()
        .rev()
        .find(|b| b.wal <= wal && b.segment <= segment)
        .expect("the empty boundary fits any cut")
}

/// The store under test next to a model that reflects only *committed*
/// transactions, and the boundaries the device can recover to.
struct Harness {
    store: Store,
    committed: Model,
    staged: Vec<ScriptOp>,
    /// Next log key; advances only when an append commits.
    next_seq: u64,
    /// Every durable state since the WAL was last rewritten, oldest
    /// first, starting from [`empty`].
    boundaries: Vec<Boundary>,
    /// Snapshots seen so far: a new one rewrote the WAL.
    snapshots: u64,
}

impl Harness {
    /// Start on a fresh store (a recovered one goes through
    /// [`Harness::resume`]).
    fn on(store: Store) -> Self {
        let boundaries = vec![empty()];
        let committed = dump(&store);
        let next_seq = store
            .last_key(LOG)
            .map_or(0, |k| u64::from_be_bytes(k.try_into().expect("8-byte key")) + 1);
        let snapshots = store.stats().snapshots;
        let mut h = Harness { store, committed, staged: Vec::new(), next_seq, boundaries, snapshots };
        h.note_durable();
        h
    }

    /// Continue on a store recovered from a cut image whose surviving
    /// frames are `boundaries`, the recovered state last.
    fn resume(store: Store, boundaries: &[Boundary]) -> Self {
        let mut h = Harness::on(store);
        h.boundaries = boundaries.to_vec();
        h
    }

    /// Record the device's durable state if a frame was written since
    /// the last call (a commit, a flushed batch or a snapshot).
    fn note_durable(&mut self) {
        let disk = self.store.disk();
        let (wal, segment) = (disk.wal().len(), disk.segment().len());
        let snapshots = self.store.stats().snapshots;
        if snapshots != self.snapshots {
            self.snapshots = snapshots;
            self.boundaries = vec![empty()];
        }
        if self.boundaries.last().is_some_and(|b| b.wal == wal) {
            return;
        }
        self.boundaries.push(Boundary { wal, segment, state: self.committed.clone() });
    }

    /// Run one script step; true when it committed a transaction.
    fn step(&mut self, op: &ScriptOp) -> bool {
        match op {
            ScriptOp::AbortTxn => self.staged.clear(),
            ScriptOp::Snapshot => self.store.snapshot(),
            ScriptOp::CommitTxn => {
                let mut txn = self.store.begin();
                let mut touched = Vec::new();
                for s in self.staged.drain(..) {
                    match s {
                        ScriptOp::Put { table, key, value } => {
                            let table = MAPS[table as usize];
                            txn.put(table, &key, &value.to_le_bytes());
                            self.committed
                                .insert((table.into(), key.clone()), value.to_le_bytes().to_vec());
                            touched.push((table, key));
                        }
                        ScriptOp::Delete { table, key } => {
                            let table = MAPS[table as usize];
                            txn.delete(table, &key);
                            self.committed.remove(&(table.to_string(), key.clone()));
                            touched.push((table, key));
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
                // Point reads agree with the model, a deleted key included.
                for (table, key) in touched {
                    let want = self.committed.get(&(table.to_string(), key.clone()));
                    assert_eq!(self.store.get(table, &key), want.map(Vec::as_slice));
                }
                self.note_durable();
                return true;
            }
            row_op => self.staged.push(row_op.clone()),
        }
        self.note_durable();
        false
    }

    /// Run `ops` in group-commit mode, flushing every `batch_every`
    /// commits; the last batch stays open.
    fn run_grouped(&mut self, ops: &[ScriptOp], batch_every: u64) {
        self.store.group_begin();
        let mut commits = 0u64;
        for op in ops {
            if self.step(op) {
                commits += 1;
                if commits.is_multiple_of(batch_every) {
                    self.store.group_flush();
                    self.note_durable();
                }
            }
        }
    }

    /// Flush the open batch and stop cleanly: the device and every
    /// boundary it can recover to, the full state last.
    fn shutdown(mut self) -> (SimDisk, Vec<Boundary>) {
        self.store.group_end();
        self.note_durable();
        (self.store.shutdown(), self.boundaries)
    }
}

fn run_script(ops: &[ScriptOp], snapshot_every: Option<u64>) -> (Store, Model) {
    let mut h = Harness::on(Store::new(StoreConfig { snapshot_every, ..Default::default() }));
    for op in ops {
        h.step(op);
    }
    (h.store, h.committed)
}

/// `full` with its WAL cut to `wal` bytes and its segment to `segment`.
fn cut(full: &SimDisk, wal: usize, segment: usize) -> SimDisk {
    SimDisk::from_images(&full.wal()[..wal], &full.segment()[..segment])
}

/// Where each log row starts in a segment image, and its end.
fn row_bounds(segment: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    for op in shs_vnistore::wal::ops(segment) {
        bounds.push(bounds.last().copied().unwrap_or(0) + op.raw.len());
    }
    bounds
}

/// How a test cuts the two files (each picks offsets from a seed).
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// The WAL anywhere, the segment whole: rows run ahead of the WAL.
    SegmentAhead,
    /// The WAL whole, the segment anywhere: shorter than a surviving
    /// frame's mark.
    SegmentShort,
    /// The WAL whole, the segment strictly inside a row: a torn row.
    TornRow,
    /// Both anywhere, independently.
    Both,
}

impl Cut {
    /// `(wal, segment)` lengths to keep of `full`.
    fn lengths(self, full: &SimDisk, a: u64, b: u64) -> (usize, usize) {
        let (w, s) = (full.wal().len(), full.segment().len());
        let any = |seed: u64, len: usize| (seed % (len as u64 + 1)) as usize;
        match self {
            Cut::SegmentAhead => (any(a, w), s),
            Cut::SegmentShort => (w, any(b, s)),
            Cut::TornRow => {
                let bounds = row_bounds(full.segment());
                let torn: Vec<usize> = bounds.windows(2).flat_map(|r| r[0] + 1..r[1]).collect();
                (w, if torn.is_empty() { s } else { torn[(b % torn.len() as u64) as usize] })
            }
            Cut::Both => (any(a, w), any(b, s)),
        }
    }
}

fn cut_strategy() -> impl Strategy<Value = Cut> {
    prop_oneof![
        Just(Cut::SegmentAhead),
        Just(Cut::SegmentShort),
        Just(Cut::TornRow),
        Just(Cut::Both)
    ]
}

/// Recover `full` cut to `(wal, segment)` and check the result against
/// the oracle: the state of the last boundary both files hold whole,
/// with each file cut back to that boundary. Returns the boundaries the
/// recovered device still holds, the recovered state last.
fn recover_cut(
    full: &SimDisk,
    boundaries: &[Boundary],
    (wal, segment): (usize, usize),
    config: StoreConfig,
) -> Result<(Store, Vec<Boundary>), TestCaseError> {
    let want = expected(boundaries, wal, segment);
    let store = Store::recover(cut(full, wal, segment), config);
    prop_assert_eq!(
        &dump(&store),
        &want.state,
        "cut to ({}, {}) of ({}, {}) bytes",
        wal,
        segment,
        full.wal().len(),
        full.segment().len()
    );
    let kept = (store.disk().wal().len(), store.disk().segment().len());
    prop_assert_eq!(kept, (want.wal, want.segment), "recovery cuts both files to the boundary");
    let held = boundaries.iter().take_while(|b| b.wal <= want.wal).cloned().collect();
    Ok((store, held))
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

    /// A crash with a group-commit batch open — its rows already in the
    /// segment's volatile tail, a random prefix of which survives —
    /// recovers exactly the state at the last flush.
    #[test]
    fn crash_mid_batch_recovers_the_last_flush(
        ops in prop::collection::vec(op_strategy(), 1..80),
        batch_every in 2u64..8,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64))],
        crash_seed in any::<u64>(),
    ) {
        let mut h = Harness::on(Store::new(StoreConfig { snapshot_every, ..Default::default() }));
        h.run_grouped(&ops, batch_every);
        let want = h.boundaries.last().expect("a boundary").state.clone();
        let recovered = Store::recover(h.store.crash(&mut DetRng::new(crash_seed)), StoreConfig::default());
        prop_assert_eq!(dump(&recovered), want);
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

    /// The crash oracle across both files. Group-commit batches,
    /// snapshots and solo commits leave a WAL and a log segment; each is
    /// cut independently (rows ahead of the WAL, a segment short of a
    /// surviving frame's mark, a torn row, or both anywhere), and
    /// recovery must equal the last commit boundary whose frame and rows
    /// are all intact — never part of a batch, never a lost flushed one.
    #[test]
    fn torn_group_commit_recovers_whole_batches_only(
        ops in prop::collection::vec(op_strategy(), 1..80),
        batch_every in 2u64..8,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64)), Just(Some(7u64))],
        how in cut_strategy(),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let config = StoreConfig { snapshot_every, ..Default::default() };
        let mut h = Harness::on(Store::new(config));
        h.run_grouped(&ops, batch_every);
        let (full, boundaries) = h.shutdown();
        recover_cut(&full, &boundaries, how.lengths(&full, seeds.0, seeds.1), config)?;
    }

    /// Life goes on after a cut: recover from both files cut as above,
    /// commit more on top, shut down, recover again — everything
    /// committed after the first recovery is still there (recovery must
    /// not leave a torn or unmarked tail in front of new frames and
    /// rows), and a second cut of the grown image lands exactly on a
    /// boundary again.
    #[test]
    fn commits_after_a_torn_recovery_are_durable(
        before in prop::collection::vec(op_strategy(), 1..60),
        after in prop::collection::vec(op_strategy(), 1..60),
        batch_every in 2u64..8,
        how in cut_strategy(),
        seeds in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let config = StoreConfig { snapshot_every: Some(6), ..Default::default() };
        let mut h = Harness::on(Store::new(config));
        h.run_grouped(&before, batch_every);
        let (full, boundaries) = h.shutdown();
        let lengths = how.lengths(&full, seeds.0, seeds.1);
        let (store, held) = recover_cut(&full, &boundaries, lengths, config)?;
        let mut survivor = Harness::resume(store, &held);
        survivor.run_grouped(&after, batch_every);
        let (full, boundaries) = survivor.shutdown();
        let state = dump(&Store::recover(full.clone(), config));
        prop_assert_eq!(Some(&state), boundaries.last().map(|b| &b.state), "a later commit is missing");
        recover_cut(&full, &boundaries, how.lengths(&full, seeds.2, seeds.3), config)?;
    }

    /// Arbitrary garbage behind either file's last intact byte never
    /// corrupts the committed prefix, and is cut off.
    #[test]
    fn garbage_tail_is_ignored(
        ops in prop::collection::vec(op_strategy(), 1..40),
        wal_garbage in prop::collection::vec(any::<u8>(), 0..64),
        segment_garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (store, committed) = run_script(&ops, None);
        let disk = store.shutdown();
        let wal = [disk.wal(), &wal_garbage].concat();
        let segment = [disk.segment(), &segment_garbage].concat();
        let recovered = Store::recover(SimDisk::from_images(&wal, &segment), StoreConfig::default());
        prop_assert_eq!(dump(&recovered), committed);
        prop_assert_eq!(recovered.disk().len(), disk.len());
    }
}

/// The crash oracle at every pair of cut points of one small history:
/// three solo commits, then two group batches with a commit left over.
#[test]
fn every_pair_of_cuts_recovers_the_last_intact_boundary() {
    use ScriptOp::*;
    let put = |key: &[u8], value| Put { table: 0, key: key.to_vec(), value };
    let mut h = Harness::on(Store::new(StoreConfig { snapshot_every: None, ..Default::default() }));
    for i in 0..3u16 {
        h.step(&put(b"k", i));
        h.step(&Append { value: i });
        h.step(&CommitTxn);
    }
    let grouped = [
        Append { value: 10 },
        put(b"a", 10),
        CommitTxn,
        Append { value: 11 },
        Append { value: 12 },
        CommitTxn,
        Delete { table: 0, key: b"k".to_vec() },
        CommitTxn,
        Append { value: 13 },
        CommitTxn,
        Append { value: 14 },
        CommitTxn,
    ];
    h.run_grouped(&grouped, 2);
    let (full, boundaries) = h.shutdown();
    assert_eq!(boundaries.len(), 1 + 3 + 3, "empty, three commits, three batches");
    let config = StoreConfig::default();
    for wal in 0..=full.wal().len() {
        for segment in 0..=full.segment().len() {
            recover_cut(&full, &boundaries, (wal, segment), config)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
