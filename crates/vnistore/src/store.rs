//! The transactional store: serializable transactions over named tables,
//! durable through a WAL on the simulated device, with snapshot
//! checkpoints and crash recovery.
//!
//! Concurrency model: single-writer serializable — every transaction
//! holds `&mut Store` for its lifetime, so transactions are totally
//! ordered. This matches the paper's use of SQLite: "We utilize the ACID
//! properties of SQLite ... by implementing all relevant database
//! operations as atomic SQL transactions" (§III-C2).
//!
//! # Commit applies what it logs
//!
//! A [`Txn`] stages its operations directly in the WAL op encoding
//! ([`crate::wal`]), in one buffer the store recycles. [`Txn::commit`]
//! frames that buffer as it is and then updates the tables by *parsing
//! it* — the same routine recovery runs over every replayed payload.
//! There is no second, in-memory representation of an operation, so the
//! live tables cannot disagree with what a recovery would rebuild.
//!
//! # Map tables and log tables
//!
//! A table is one of two kinds, fixed by the first operation on it:
//!
//! * a **map** table ([`Txn::put`] / [`Txn::delete`]) is an ordered map
//!   of owned rows — any key, overwritten and removed freely;
//! * a **log** table ([`Txn::append`]) only grows, and every appended
//!   key must be above the last. Its rows sit back to back in one byte
//!   arena, in the WAL op encoding, next to an index of their offsets:
//!   an append is a copy onto the end, the last key and the row count
//!   are O(1), a lookup is a binary search, a snapshot copies the arena
//!   in one piece, and dropping the table frees two allocations however
//!   many rows it holds. An audit log is this shape.
//!
//! Mixing the kinds — `put` or `delete` on a log table, `append` on a
//! map table, an append at or below the table's last key — is a bug in
//! the caller and panics when the operation is staged, before anything
//! reaches the log.
//!
//! # Example
//!
//! Commit a transaction, shut down cleanly, and recover the same state
//! from the device image:
//!
//! ```
//! use shs_vnistore::{Store, StoreConfig};
//!
//! let mut store = Store::new(StoreConfig::default());
//! let mut txn = store.begin();
//! txn.put("vnis", b"k1", b"row-1");
//! txn.put("vnis", b"k2", b"row-2");
//! txn.append("audit_log", &1u64.to_be_bytes(), b"two rows in");
//! txn.commit();
//! assert_eq!(store.get("vnis", b"k1"), Some(&b"row-1"[..]));
//! assert_eq!(store.last_key("audit_log"), Some(&1u64.to_be_bytes()[..]));
//!
//! // A dropped (uncommitted) transaction leaves no trace.
//! let mut txn = store.begin();
//! txn.delete("vnis", b"k1");
//! drop(txn);
//! assert!(store.get("vnis", b"k1").is_some());
//!
//! let disk = store.shutdown();
//! let recovered = Store::recover(disk, StoreConfig::default());
//! assert_eq!(recovered.row_count("vnis"), 2);
//! assert_eq!(recovered.row_count("audit_log"), 1);
//! ```

use std::collections::btree_map::{BTreeMap, Entry};

use shs_des::DetRng;

use crate::disk::SimDisk;
use crate::wal::{self, Frame, Op, OpKind, RecordKind};

/// An append-only table (see the module docs): the rows' WAL op
/// encodings back to back — which is also the table's snapshot image —
/// and where each one starts. Keys strictly ascend.
#[derive(Debug, Default)]
struct LogTable {
    image: Vec<u8>,
    starts: Vec<usize>,
}

impl LogTable {
    fn row_at(&self, start: usize) -> (&[u8], &[u8]) {
        let op = wal::ops(&self.image[start..]).next().expect("log rows are whole ops");
        (op.key, op.value)
    }

    fn rows(&self) -> impl DoubleEndedIterator<Item = (&[u8], &[u8])> {
        self.starts.iter().map(|&s| self.row_at(s))
    }

    fn last_key(&self) -> Option<&[u8]> {
        self.starts.last().map(|&s| self.row_at(s).0)
    }

    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let i = self.starts.binary_search_by(|&s| self.row_at(s).0.cmp(key)).ok()?;
        Some(self.row_at(self.starts[i]).1)
    }

    fn push(&mut self, op: &Op<'_>) {
        // Staging already refused this for a live transaction; a
        // replayed image gets the same check, because `get` depends on it.
        assert!(
            self.last_key().is_none_or(|last| last < op.key),
            "append to log table `{}` at or below its last key",
            op.table
        );
        self.starts.push(self.image.len());
        self.image.extend_from_slice(op.raw);
    }
}

#[derive(Debug)]
enum Table {
    Map(BTreeMap<Vec<u8>, Vec<u8>>),
    Log(LogTable),
}

impl Table {
    fn apply(&mut self, op: &Op<'_>) {
        match (self, op.kind) {
            // One descent either way; an overwrite keeps the row's value
            // allocation.
            (Table::Map(rows), OpKind::Put) => match rows.entry(op.key.to_vec()) {
                Entry::Occupied(mut row) => {
                    row.get_mut().clear();
                    row.get_mut().extend_from_slice(op.value);
                }
                Entry::Vacant(slot) => {
                    slot.insert(op.value.to_vec());
                }
            },
            (Table::Map(rows), OpKind::Delete) => {
                rows.remove(op.key);
            }
            (Table::Log(log), OpKind::Append) => log.push(op),
            (_, kind) => panic!("{kind:?} on the wrong kind of table `{}`", op.table),
        }
    }
}

/// Apply one commit or snapshot payload to the tables — the one routine
/// behind both a live commit and recovery's replay.
fn apply_payload(tables: &mut BTreeMap<String, Table>, payload: &[u8]) {
    for op in wal::ops(payload) {
        // Probe first: the common case (the table exists) must not
        // allocate the table name just to use the `entry` API.
        if let Some(table) = tables.get_mut(op.table) {
            table.apply(&op);
            continue;
        }
        let mut table = match op.kind {
            OpKind::Put => Table::Map(BTreeMap::new()),
            OpKind::Append => Table::Log(LogTable::default()),
            OpKind::Delete => continue,
        };
        table.apply(&op);
        tables.insert(op.table.to_string(), table);
    }
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Write a snapshot record after this many commits (None = never).
    pub snapshot_every: Option<u64>,
    /// Additionally require the WAL to have grown by at least this
    /// multiple of the previous snapshot's size before snapshotting
    /// again (0 = no requirement, the legacy fixed cadence).
    ///
    /// A fixed cadence re-encodes every row each `snapshot_every`
    /// commits, which is O(table size) work on a schedule that does not
    /// scale with it — total snapshot cost grows quadratically with
    /// history. A factor of 1 makes each snapshot "pay for itself" in
    /// WAL growth, bounding amortized snapshot work per commit by a
    /// constant while recovery still replays at most one
    /// snapshot-equivalent of tail records.
    pub snapshot_wal_factor: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { snapshot_every: Some(256), snapshot_wal_factor: 0 }
    }
}

/// Store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed transactions.
    pub commits: u64,
    /// Snapshot records written.
    pub snapshots: u64,
    /// Group-commit batch records written (each covers ≥ 1 commit with
    /// a single fsync).
    pub batches: u64,
    /// Bytes appended to the WAL over the store's lifetime.
    pub wal_bytes: u64,
    /// fsync barriers issued.
    pub fsyncs: u64,
}

/// The transactional store.
#[derive(Debug)]
pub struct Store {
    disk: SimDisk,
    tables: BTreeMap<String, Table>,
    next_lsn: u64,
    config: StoreConfig,
    commits_since_snapshot: u64,
    /// WAL bytes appended since the last snapshot (commit frames only).
    wal_since_snapshot: u64,
    /// Size of the last snapshot frame (0 before the first snapshot).
    last_snapshot_bytes: u64,
    stats: StoreStats,
    /// The open transaction's operations in WAL op encoding; `begin`
    /// empties it, so steady-state staging allocates nothing.
    staged: Vec<u8>,
    /// Scratch for the frame being written (a commit or a snapshot).
    frame_buf: Vec<u8>,
    /// Group-commit state: while `Some`, committed transactions apply to
    /// the tables immediately (reads see them) but their WAL framing and
    /// fsync are deferred into this accumulating batch; `group_flush`
    /// writes the whole batch as ONE `Batch` record with one fsync. A
    /// crash before the flush loses the entire open batch — never part
    /// of it (the batch frame's CRC is all-or-nothing).
    group: Option<GroupState>,
}

/// Accumulator for an open group-commit batch.
#[derive(Debug, Default)]
struct GroupState {
    /// The batch frame under construction: opened at the first deferred
    /// commit (whose LSN is the frame's), then `u32 len | ops` per
    /// transaction in commit order; sealed by the flush.
    frame: Vec<u8>,
    /// Transactions in the open batch.
    count: u64,
}

impl Store {
    /// Create an empty store on a fresh device.
    pub fn new(config: StoreConfig) -> Self {
        Store::recover(SimDisk::new(), config)
    }

    /// Recover a store from a (possibly crash-truncated) device image.
    /// Every frame is CRC-verified; replay starts at the latest snapshot
    /// and runs through all later committed transactions (group-commit
    /// batches count one LSN per contained transaction), feeding each
    /// payload to the tables as a slice of the image. A torn tail is
    /// then cut off the device, so the next commit lands directly
    /// behind the last intact frame.
    pub fn recover(mut disk: SimDisk, config: StoreConfig) -> Self {
        let mut scan = wal::frames(disk.contents());
        let frames: Vec<Frame<'_>> = scan.by_ref().collect();
        let valid_len = scan.consumed();
        let mut tables = BTreeMap::new();
        let mut next_lsn = 1;
        let from = frames.iter().rposition(|f| f.kind == RecordKind::Snapshot).unwrap_or(0);
        for frame in &frames[from..] {
            let mut txns = 1;
            match frame.kind {
                RecordKind::Commit | RecordKind::Snapshot => apply_payload(&mut tables, frame.payload),
                RecordKind::Batch => {
                    txns = 0;
                    for txn in wal::decode_batch(frame.payload) {
                        apply_payload(&mut tables, txn);
                        txns += 1;
                    }
                }
            }
            next_lsn = frame.lsn + txns;
        }
        disk.truncate(valid_len);
        Store {
            disk,
            tables,
            next_lsn,
            config,
            commits_since_snapshot: 0,
            wal_since_snapshot: 0,
            last_snapshot_bytes: 0,
            stats: StoreStats::default(),
            staged: Vec::new(),
            frame_buf: Vec::new(),
            group: None,
        }
    }

    /// Begin a serializable transaction.
    pub fn begin(&mut self) -> Txn<'_> {
        self.staged.clear();
        Txn { store: self, last_append: None }
    }

    /// Committed read.
    pub fn get(&self, table: &str, key: &[u8]) -> Option<&[u8]> {
        match self.tables.get(table)? {
            Table::Map(rows) => rows.get(key).map(Vec::as_slice),
            Table::Log(log) => log.get(key),
        }
    }

    /// Iterate a table's committed rows in key order.
    pub fn scan<'a>(
        &'a self,
        table: &str,
    ) -> impl DoubleEndedIterator<Item = (&'a [u8], &'a [u8])> + 'a {
        let (map, log) = match self.tables.get(table) {
            Some(Table::Map(rows)) => (Some(rows), None),
            Some(Table::Log(log)) => (None, Some(log)),
            None => (None, None),
        };
        let map = map.into_iter().flatten().map(|(k, v)| (k.as_slice(), v.as_slice()));
        map.chain(log.into_iter().flat_map(LogTable::rows))
    }

    /// A table's highest key — O(1) on a log table, where it is the key
    /// of the latest append.
    pub fn last_key(&self, table: &str) -> Option<&[u8]> {
        match self.tables.get(table)? {
            Table::Map(rows) => rows.last_key_value().map(|(k, _)| k.as_slice()),
            Table::Log(log) => log.last_key(),
        }
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> usize {
        match self.tables.get(table) {
            Some(Table::Map(rows)) => rows.len(),
            Some(Table::Log(log)) => log.starts.len(),
            None => 0,
        }
    }

    /// Force a snapshot checkpoint now, **truncating** the log: the
    /// snapshot frame becomes the entire device image (the
    /// checkpoint + rename a real store performs), so the device — and
    /// recovery — stay O(live rows) instead of O(history). The frame is
    /// built in place: map rows are encoded as puts straight from the
    /// tables, a log table contributes its arena in one copy. Any open
    /// group-commit batch is flushed first so the checkpoint never
    /// captures state the log has not made durable.
    pub fn snapshot(&mut self) {
        self.flush_group_buffer();
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.frame_buf.clear();
        let start = wal::begin_frame(RecordKind::Snapshot, lsn, &mut self.frame_buf);
        for (name, table) in &self.tables {
            match table {
                Table::Map(rows) => {
                    for (k, v) in rows {
                        wal::push_op(&mut self.frame_buf, OpKind::Put, name, k, v);
                    }
                }
                Table::Log(log) => self.frame_buf.extend_from_slice(&log.image),
            }
        }
        wal::end_frame(&mut self.frame_buf, start);
        self.disk.replace(&self.frame_buf);
        self.stats.wal_bytes += self.frame_buf.len() as u64;
        self.stats.snapshots += 1;
        self.commits_since_snapshot = 0;
        self.wal_since_snapshot = 0;
        self.last_snapshot_bytes = self.frame_buf.len() as u64;
    }

    /// Enter group-commit mode: subsequent commits apply immediately but
    /// defer WAL framing + fsync until [`Store::group_flush`]. Idempotent
    /// — an already-open batch keeps accumulating.
    pub fn group_begin(&mut self) {
        if self.group.is_none() {
            self.group = Some(GroupState::default());
        }
    }

    /// Make every deferred commit durable as ONE `Batch` WAL record with
    /// ONE fsync, then run the (deferred) snapshot-cadence check. A
    /// no-op when the batch is empty. The store stays in group mode.
    pub fn group_flush(&mut self) {
        self.flush_group_buffer();
        self.maybe_snapshot();
    }

    /// Flush any open batch and leave group-commit mode.
    pub fn group_end(&mut self) {
        self.group_flush();
        self.group = None;
    }

    /// Commits sitting in the open batch, not yet durable.
    pub fn group_pending(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.count)
    }

    fn flush_group_buffer(&mut self) {
        let Some(g) = self.group.as_mut().filter(|g| g.count > 0) else { return };
        g.count = 0;
        wal::end_frame(&mut g.frame, 0);
        self.disk.append(&g.frame);
        self.disk.fsync();
        self.stats.wal_bytes += g.frame.len() as u64;
        self.wal_since_snapshot += g.frame.len() as u64;
        self.stats.batches += 1;
    }

    /// Simulate a crash, returning the surviving device image. An open
    /// group-commit batch is deliberately **not** flushed: its commits
    /// were never durable, and recovery rolls back the whole batch.
    pub fn crash(self, rng: &mut DetRng) -> SimDisk {
        self.disk.crash(rng)
    }

    /// Cleanly stop, returning the device (everything synced, any open
    /// group-commit batch flushed).
    pub fn shutdown(mut self) -> SimDisk {
        self.flush_group_buffer();
        self.disk.fsync();
        self.disk
    }

    /// Bytes currently on the device — what a recovery scan must read.
    /// Truncating snapshots keep this O(live rows) rather than
    /// O(history).
    pub fn device_len(&self) -> usize {
        self.disk.len()
    }

    /// Statistics for this store instance (not carried across recovery).
    pub fn stats(&self) -> StoreStats {
        StoreStats { fsyncs: self.disk.fsyncs, ..self.stats }
    }

    /// Log the staged operations, then apply them by parsing what was
    /// logged.
    fn commit_staged(&mut self) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        if let Some(g) = self.group.as_mut() {
            // Group mode: stage the framing in the open batch; durability
            // (and the snapshot-cadence check, which must not checkpoint
            // state ahead of the log) waits for `group_flush`.
            if g.count == 0 {
                g.frame.clear();
                wal::begin_frame(RecordKind::Batch, lsn, &mut g.frame);
            }
            wal::push_batch_txn(&mut g.frame, &self.staged);
            g.count += 1;
        } else {
            // WAL first, then fsync, then apply: crash before the fsync
            // loses the whole transaction, never half of it.
            self.frame_buf.clear();
            wal::encode_into(RecordKind::Commit, lsn, &self.staged, &mut self.frame_buf);
            self.disk.append(&self.frame_buf);
            self.disk.fsync();
            self.stats.wal_bytes += self.frame_buf.len() as u64;
            self.wal_since_snapshot += self.frame_buf.len() as u64;
        }
        apply_payload(&mut self.tables, &self.staged);
        self.stats.commits += 1;
        self.commits_since_snapshot += 1;
        if self.group.is_none() {
            self.maybe_snapshot();
        }
        lsn
    }

    /// Snapshot if the commit cadence is due and the WAL has grown
    /// enough since the last one (see [`StoreConfig`]).
    fn maybe_snapshot(&mut self) {
        if let Some(every) = self.config.snapshot_every {
            let wal_due = self.wal_since_snapshot
                >= self.config.snapshot_wal_factor.saturating_mul(self.last_snapshot_bytes);
            if self.commits_since_snapshot >= every && wal_due {
                self.snapshot();
            }
        }
    }
}

/// A serializable write transaction. Operations are staged in WAL op
/// encoding in the store's staging buffer; dropping without
/// [`Txn::commit`] rolls back (nothing was applied or logged).
#[derive(Debug)]
pub struct Txn<'s> {
    store: &'s mut Store,
    /// Where the latest staged append starts in the staging buffer — the
    /// shortcut that keeps a many-row append transaction's order checks
    /// O(1) each.
    last_append: Option<usize>,
}

impl Txn<'_> {
    /// Stage a put on a map table.
    pub fn put(&mut self, table: &str, key: &[u8], value: &[u8]) {
        self.stage(OpKind::Put, table, key, value);
    }

    /// Stage a delete on a map table.
    pub fn delete(&mut self, table: &str, key: &[u8]) {
        self.stage(OpKind::Delete, table, key, &[]);
    }

    /// Stage an append to a log table: `key` must be above every key
    /// the table holds and every key this transaction already appended.
    pub fn append(&mut self, table: &str, key: &[u8], value: &[u8]) {
        self.stage(OpKind::Append, table, key, value);
    }

    /// Validate an operation against the table's kind (see the module
    /// docs) and encode it. Panics on misuse, before anything is logged.
    fn stage(&mut self, kind: OpKind, table: &str, key: &[u8], value: &[u8]) {
        let staged = &self.store.staged;
        let appends = kind == OpKind::Append;
        // The table's kind: as committed, else as the first operation
        // this transaction staged on it will make it.
        let is_log = match self.store.tables.get(table) {
            Some(committed) => Some(matches!(committed, Table::Log(_))),
            None => wal::ops(staged)
                .find(|op| op.table == table && op.kind != OpKind::Delete)
                .map(|op| op.kind == OpKind::Append),
        };
        assert!(
            is_log.is_none_or(|is_log| is_log == appends),
            "{kind:?} on the wrong kind of table `{table}`"
        );
        if appends {
            let staged_tail = self.last_append.and_then(|at| {
                let latest = wal::ops(&staged[at..]).next().expect("staged ops parse");
                if latest.table == table {
                    return Some(latest.key);
                }
                // Appends to several log tables interleaved: look back.
                let mine = |op: &Op<'_>| op.kind == OpKind::Append && op.table == table;
                wal::ops(staged).filter(mine).last().map(|op| op.key)
            });
            let tail = staged_tail.or_else(|| self.store.last_key(table));
            assert!(
                tail.is_none_or(|tail| tail < key),
                "append to log table `{table}` at or below its last key"
            );
            self.last_append = Some(staged.len());
        }
        wal::push_op(&mut self.store.staged, kind, table, key, value);
    }

    /// Durably commit: WAL append + fsync + apply. Returns the LSN.
    pub fn commit(self) -> u64 {
        self.store.commit_staged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new(StoreConfig { snapshot_every: None, ..Default::default() })
    }

    #[test]
    fn committed_writes_are_visible() {
        let mut s = store();
        let mut t = s.begin();
        t.put("vnis", b"100", b"allocated");
        t.commit();
        assert_eq!(s.get("vnis", b"100"), Some(b"allocated".as_slice()));
        assert_eq!(s.row_count("vnis"), 1);
    }

    #[test]
    fn dropped_txn_rolls_back() {
        let mut s = store();
        {
            let mut t = s.begin();
            t.put("vnis", b"100", b"allocated");
            // dropped without commit
        }
        assert_eq!(s.get("vnis", b"100"), None);
        assert_eq!(s.stats().commits, 0);
    }

    #[test]
    fn recovery_replays_committed_transactions() {
        let mut s = store();
        for i in 0..10u32 {
            let mut t = s.begin();
            t.put("vnis", &i.to_le_bytes(), b"row");
            t.commit();
        }
        let disk = s.shutdown();
        let r = Store::recover(disk, StoreConfig::default());
        assert_eq!(r.row_count("vnis"), 10);
    }

    #[test]
    fn crash_loses_at_most_the_uncommitted_tail() {
        // Commit fsyncs, so *every* committed txn must survive any crash.
        let mut s = store();
        for i in 0..20u32 {
            let mut t = s.begin();
            t.put("vnis", &i.to_le_bytes(), b"row");
            t.commit();
        }
        for seed in 0..16 {
            let mut rng = DetRng::new(seed);
            // no un-fsynced tail exists; crash must preserve all 20 rows
            let mut s2 = Store::recover(
                Store::recover(s.shutdown_clone(), StoreConfig::default())
                    .crash(&mut rng),
                StoreConfig::default(),
            );
            assert_eq!(s2.row_count("vnis"), 20, "seed {seed}");
            // And the recovered store keeps working.
            let mut t = s2.begin();
            t.put("vnis", b"extra", b"row");
            t.commit();
            assert_eq!(s2.row_count("vnis"), 21);
        }
    }

    #[test]
    fn snapshot_then_recover_matches_state() {
        let mut s = Store::new(StoreConfig { snapshot_every: Some(4), ..Default::default() });
        for i in 0..10u32 {
            let mut t = s.begin();
            t.put("a", &i.to_le_bytes(), &(i * 2).to_le_bytes());
            t.commit();
        }
        // Delete a few, snapshot happened automatically along the way.
        let mut t = s.begin();
        t.delete("a", &3u32.to_le_bytes());
        t.commit();
        assert!(s.stats().snapshots >= 2);
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            s.scan("a").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            r.scan("a").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn wal_factor_defers_snapshots_until_wal_grows() {
        // With factor 1, a snapshot is only due once the WAL has grown by
        // at least the previous snapshot's size — tiny commits against a
        // large table must not trigger O(table) re-encoding every N
        // commits.
        let mut s = Store::new(StoreConfig {
            snapshot_every: Some(4),
            snapshot_wal_factor: 1,
        });
        // Build a large table; the first snapshot (nothing snapshotted
        // yet, last_snapshot_bytes == 0) fires on the fixed cadence.
        for i in 0..64u32 {
            let mut t = s.begin();
            t.put("big", &i.to_le_bytes(), &[0u8; 128]);
            t.commit();
        }
        let after_fill = s.stats().snapshots;
        assert!(after_fill >= 1);
        // Tiny commits: far more than `snapshot_every` of them, but their
        // combined WAL bytes stay below one snapshot's size — no new
        // snapshot may fire.
        for _ in 0..8 {
            let mut t = s.begin();
            t.put("small", b"k", b"v");
            t.commit();
        }
        assert_eq!(s.stats().snapshots, after_fill);
        // Keep committing until the WAL growth catches up: eventually a
        // snapshot fires again, and recovery still sees everything.
        for i in 0..4096u32 {
            let mut t = s.begin();
            t.put("small", &i.to_le_bytes(), &[7u8; 64]);
            t.commit();
            if s.stats().snapshots > after_fill {
                break;
            }
        }
        assert!(s.stats().snapshots > after_fill);
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        assert_eq!(r.row_count("big"), 64);
    }

    #[test]
    fn lsns_are_monotone() {
        let mut s = store();
        let mut prev = 0;
        for _ in 0..5 {
            let mut t = s.begin();
            t.put("t", b"k", b"v");
            let lsn = t.commit();
            assert!(lsn > prev);
            prev = lsn;
        }
    }

    #[test]
    fn group_commit_batches_many_txns_into_one_fsync() {
        let mut s = store();
        s.group_begin();
        for i in 0..16u32 {
            let mut t = s.begin();
            t.put("vnis", &i.to_le_bytes(), b"row");
            t.commit();
        }
        assert_eq!(s.group_pending(), 16);
        assert_eq!(s.stats().fsyncs, 0, "durability is deferred");
        assert_eq!(s.get("vnis", &3u32.to_le_bytes()), Some(b"row".as_slice()));
        s.group_flush();
        assert_eq!(s.group_pending(), 0);
        let st = s.stats();
        assert_eq!(st.commits, 16);
        assert_eq!(st.batches, 1);
        assert_eq!(st.fsyncs, 1, "16 commits, one barrier");
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        assert_eq!(r.row_count("vnis"), 16);
    }

    #[test]
    fn group_batch_recovery_advances_lsn_by_txn_count() {
        let mut s = store();
        s.group_begin();
        for i in 0..5u32 {
            let mut t = s.begin();
            t.put("t", &i.to_le_bytes(), b"v");
            t.commit();
        }
        s.group_end();
        let mut r = Store::recover(s.shutdown(), StoreConfig::default());
        let mut t = r.begin();
        t.put("t", b"next", b"v");
        let lsn = t.commit();
        assert_eq!(lsn, 6, "5 batched txns occupied LSNs 1..=5");
    }

    #[test]
    fn crash_before_group_flush_rolls_back_the_whole_batch() {
        let mut s = store();
        let mut t = s.begin();
        t.put("t", b"durable", b"v");
        t.commit();
        s.group_begin();
        s.group_flush(); // empty flush is a no-op
        assert_eq!(s.stats().batches, 0);
        for i in 0..8u32 {
            let mut t = s.begin();
            t.put("t", &i.to_le_bytes(), b"volatile");
            t.commit();
        }
        assert_eq!(s.row_count("t"), 9, "batched writes are visible before the crash");
        for seed in 0..16 {
            let mut rng = DetRng::new(seed);
            let r = Store::recover(s.disk_clone().crash(&mut rng), StoreConfig::default());
            assert_eq!(
                r.row_count("t"),
                1,
                "seed {seed}: only the pre-batch row survives, never part of the batch"
            );
        }
    }

    #[test]
    fn torn_batch_frame_is_rolled_back_whole() {
        // Flush a batch, then tear the device inside the batch frame at
        // every possible offset: recovery must see either all 8 txns or
        // none — never a prefix of the batch.
        let mut s = store();
        s.group_begin();
        for i in 0..8u32 {
            let mut t = s.begin();
            t.put("t", &i.to_le_bytes(), b"v");
            t.commit();
        }
        s.group_flush();
        let full = s.shutdown();
        for cut in 0..full.len() {
            let mut torn = SimDisk::new();
            torn.append(&full.contents()[..cut]);
            torn.fsync();
            let r = Store::recover(torn, StoreConfig::default());
            let n = r.row_count("t");
            assert!(n == 0 || n == 8, "cut {cut}: partial batch visible ({n} rows)");
        }
    }

    #[test]
    fn group_flush_then_crash_keeps_every_batched_txn() {
        let mut s = store();
        s.group_begin();
        for i in 0..8u32 {
            let mut t = s.begin();
            t.put("t", &i.to_le_bytes(), b"v");
            t.commit();
        }
        s.group_flush();
        for seed in 0..8 {
            let mut rng = DetRng::new(seed);
            let r = Store::recover(s.disk_clone().crash(&mut rng), StoreConfig::default());
            assert_eq!(r.row_count("t"), 8, "seed {seed}");
        }
    }

    #[test]
    fn truncating_snapshot_bounds_the_device_by_live_rows() {
        let mut s = Store::new(StoreConfig { snapshot_every: Some(64), snapshot_wal_factor: 0 });
        // Churn one hot key far past the snapshot cadence: history grows,
        // live state stays one row, so the device must stop growing.
        let mut peak_after_snapshot = 0usize;
        for i in 0..4096u32 {
            let mut t = s.begin();
            t.put("hot", b"k", &i.to_le_bytes());
            t.commit();
            if s.stats().snapshots == 1 && peak_after_snapshot == 0 {
                peak_after_snapshot = s.device_len();
            }
        }
        assert!(s.stats().snapshots > 10);
        // Between snapshots at most `snapshot_every` commit frames pile
        // up, so the device never exceeds snapshot + cadence worth of
        // frames — independent of the 4096-commit history.
        assert!(
            s.device_len() < peak_after_snapshot + 64 * 64,
            "device_len {} should be bounded by live rows + cadence, not history",
            s.device_len()
        );
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        assert_eq!(r.row_count("hot"), 1);
        assert_eq!(r.get("hot", b"k"), Some(4095u32.to_le_bytes().as_slice()));
    }

    #[test]
    fn snapshot_during_open_batch_flushes_it_first() {
        let mut s = Store::new(StoreConfig { snapshot_every: None, ..Default::default() });
        s.group_begin();
        let mut t = s.begin();
        t.put("t", b"k", b"v");
        t.commit();
        s.snapshot();
        assert_eq!(s.group_pending(), 0, "snapshot drained the batch");
        assert_eq!(s.stats().batches, 1);
        // The batch flush preceded the truncation, so the image is just
        // the snapshot and recovery still sees the row.
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        assert_eq!(r.get("t", b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn commit_after_torn_recovery_survives_the_next_recovery() {
        // Regression: recovery used to leave the torn tail on the device,
        // so the next commit was appended behind garbage and the
        // following recovery stopped before reaching it.
        let mut s = store();
        for i in 0..3u32 {
            let mut t = s.begin();
            t.put("t", &i.to_le_bytes(), b"v");
            t.commit();
        }
        let full = s.shutdown();
        let mut torn = SimDisk::new();
        torn.append(&full.contents()[..full.len() - 3]);
        torn.fsync();
        let mut r = Store::recover(torn, StoreConfig::default());
        assert_eq!(r.row_count("t"), 2, "the torn third commit is rolled back");
        let two_frames = full.len() / 3 * 2;
        assert_eq!(r.device_len(), two_frames, "and its bytes are cut off the device");
        let mut t = r.begin();
        t.put("t", b"late", b"row");
        t.commit();
        let r2 = Store::recover(r.shutdown(), StoreConfig::default());
        assert_eq!(r2.get("t", b"late"), Some(b"row".as_slice()));
        assert_eq!(r2.row_count("t"), 3);
    }

    fn seq(i: u64) -> [u8; 8] {
        i.to_be_bytes()
    }

    #[test]
    fn log_table_appends_read_back_in_order() {
        let mut s = store();
        assert_eq!(s.last_key("log"), None);
        for i in [1u64, 2, 5, 9] {
            let mut t = s.begin();
            t.append("log", &seq(i), format!("entry-{i}").as_bytes());
            t.put("rows", &seq(i % 2), b"overwritten");
            t.commit();
        }
        assert_eq!(s.row_count("log"), 4);
        assert_eq!(s.last_key("log"), Some(&seq(9)[..]));
        assert_eq!(s.last_key("rows"), Some(&seq(1)[..]));
        assert_eq!(s.get("log", &seq(5)), Some(&b"entry-5"[..]));
        assert_eq!(s.get("log", &seq(3)), None);
        assert_eq!(s.get("log", &seq(10)), None);
        let keys: Vec<&[u8]> = s.scan("log").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&seq(1)[..], &seq(2)[..], &seq(5)[..], &seq(9)[..]]);
        assert_eq!(s.scan("log").next_back().map(|(_, v)| v), Some(&b"entry-9"[..]));
    }

    #[test]
    fn one_txn_appends_many_rows_to_several_log_tables() {
        let mut s = store();
        let mut t = s.begin();
        for i in 0..4u64 {
            t.append("a", &seq(i), b"a-row");
            t.append("b", &seq(100 + i), b"b-row");
        }
        t.commit();
        assert_eq!((s.row_count("a"), s.row_count("b")), (4, 4));
        assert_eq!(s.last_key("b"), Some(&seq(103)[..]));
    }

    #[test]
    fn log_tables_survive_snapshot_and_replay_with_their_kind() {
        let mut s = Store::new(StoreConfig { snapshot_every: Some(4), ..Default::default() });
        s.group_begin();
        for i in 0..11u64 {
            let mut t = s.begin();
            t.append("log", &seq(i), &[i as u8; 3]);
            t.put("rows", &seq(i % 3), &seq(i));
            t.commit();
            if i % 3 == 2 {
                s.group_flush();
            }
        }
        s.group_end();
        assert!(s.stats().snapshots >= 1);
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            s.scan("log").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(want.len(), 11);
        let mut r = Store::recover(s.shutdown(), StoreConfig::default());
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            r.scan("log").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, want);
        assert_eq!(r.row_count("rows"), 3);
        // Still a log table: the next append must ascend.
        let mut t = r.begin();
        t.append("log", &seq(11), b"next");
        t.commit();
        assert_eq!(r.row_count("log"), 12);
    }

    #[test]
    fn misuse_of_a_table_kind_panics_before_anything_is_logged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = store();
        let mut t = s.begin();
        t.append("log", &seq(5), b"entry");
        t.put("rows", b"k", b"v");
        t.commit();
        let device = s.device_len();
        type Misuse = (&'static str, fn(&mut Txn<'_>));
        let misuses: [Misuse; 7] = [
            ("append below the last key", |t| t.append("log", &seq(4), b"x")),
            ("append at the last key", |t| t.append("log", &seq(5), b"x")),
            ("append below a staged key", |t| {
                t.append("log", &seq(7), b"x");
                t.append("log", &seq(6), b"x");
            }),
            ("put on a log table", |t| t.put("log", &seq(9), b"x")),
            ("delete on a log table", |t| t.delete("log", &seq(5))),
            ("append on a map table", |t| t.append("rows", b"z", b"x")),
            ("both kinds on a new table", |t| {
                t.put("fresh", b"k", b"v");
                t.append("fresh", b"l", b"v");
            }),
        ];
        for (what, misuse) in misuses {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut t = s.begin();
                misuse(&mut t);
                t.commit();
            }));
            assert!(outcome.is_err(), "{what} must panic");
            assert_eq!(s.device_len(), device, "{what}: nothing reached the log");
            assert_eq!((s.row_count("log"), s.row_count("rows")), (1, 1), "{what}");
        }
        // The store is unharmed and the correct call still works.
        let mut t = s.begin();
        t.append("log", &seq(6), b"entry");
        t.commit();
        assert_eq!(s.row_count("log"), 2);
    }

    #[test]
    fn empty_commit_is_durable_noop() {
        let mut s = store();
        s.begin().commit();
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        assert_eq!(r.row_count("t"), 0);
    }

    impl Store {
        /// Test helper: clone the synced device image without consuming.
        fn shutdown_clone(&self) -> SimDisk {
            let mut d = self.disk.clone();
            d.fsync();
            d
        }

        /// Test helper: clone the device as-is (unsynced tail and any
        /// open group batch stay volatile).
        fn disk_clone(&self) -> SimDisk {
            self.disk.clone()
        }
    }
}
