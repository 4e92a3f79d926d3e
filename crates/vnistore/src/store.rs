//! The transactional store: serializable transactions over named tables,
//! durable through a WAL and a log segment on the simulated device, with
//! snapshot checkpoints and crash recovery.
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
//! ([`crate::wal`]), in buffers the store recycles. [`Txn::commit`]
//! writes those bytes as they are and then updates the tables by
//! *parsing them* — the same routines recovery runs over the device.
//! There is no second, in-memory representation of an operation, so the
//! live tables cannot disagree with what a recovery would rebuild.
//!
//! # Map tables and log tables
//!
//! A table is one of two kinds, fixed by the first operation on it:
//!
//! * a **map** table ([`Txn::put`] / [`Txn::delete`]) is an ordered map
//!   of owned rows, overwritten and removed freely. Its keys are at most
//!   [`MAX_MAP_KEY`] (15) bytes: each is packed inline into one 16-byte
//!   word — the bytes zero-padded, the length in the last byte — whose
//!   big-endian `u128` order is exactly the byte-string order (`ab` <
//!   `ab\0` < `ab\x01` < `abc`), so a lookup compares machine words
//!   instead of following a pointer to a heap key per comparison;
//! * a **log** table ([`Txn::append`]) only grows, and every appended
//!   key must be above the last. Its rows live on the device, in the
//!   log segment, and the table keeps nothing in memory but where each
//!   one starts: an append is a write to the segment and one offset, the
//!   last key and the row count are O(1), a lookup is a binary search
//!   reading the segment, and the history costs the process 8 bytes a
//!   row however long its rows are. An audit log is this shape.
//!
//! Mixing the kinds — `put` or `delete` on a log table, `append` on a
//! map table, an append at or below the table's last key — or a map key
//! longer than [`MAX_MAP_KEY`] is a bug in the caller and panics when the
//! operation is staged, before anything reaches the device.
//!
//! # The device: a WAL and a log segment
//!
//! The [`SimDisk`] holds two append-only files. The **log segment** is
//! every log table's rows back to back, in the order they committed,
//! each written once. The **WAL** holds frames of map-table operations;
//! every frame also carries a [`SegmentMark`] — the segment length its
//! state includes and the CRC of that whole prefix.
//!
//! * A commit (or a group flush) appends its log rows to the segment,
//!   then its frame to the WAL, then issues one fsync barrier for both.
//!   The mark makes the order of the two writes immaterial: a frame
//!   whose rows did not all reach the segment fails its mark at
//!   recovery and is refused.
//! * Recovery accepts WAL frames in order while each one is intact
//!   *and* the segment holds its marked prefix with the marked CRC. It
//!   cuts both files back to the last accepted frame and its mark — rows
//!   that ran ahead of the WAL, a torn row, a torn frame — replays map
//!   operations from the latest accepted snapshot on, and rebuilds each
//!   log table by walking the segment's row lengths. No log row is
//!   copied.
//! * A snapshot writes the map tables and the current mark as a new WAL
//!   ([`SimDisk`]'s crash-atomic rewrite) and leaves the segment alone,
//!   so checkpoint work and the WAL stay O(live rows) and the history
//!   is written once.
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

use crate::codec::read_slice;
use crate::disk::SimDisk;
use crate::wal::{self, Op, OpKind, RecordKind, SegmentMark};

/// An append-only table (see the module docs): where each of its rows
/// starts in the log segment. Keys strictly ascend.
#[derive(Debug, Default)]
struct LogTable {
    starts: Vec<u64>,
    /// How far into a row its key's length prefix sits. Every row names
    /// the same table, so this is one offset for all of them, and a read
    /// skips straight to the key instead of parsing the tag and name.
    key_field: usize,
}

impl LogTable {
    fn row_at<'a>(&self, segment: &'a [u8], start: u64) -> (&'a [u8], &'a [u8]) {
        let mut off = start as usize + self.key_field;
        let key = read_slice(segment, &mut off).expect("log rows are whole ops");
        let value = read_slice(segment, &mut off).expect("log rows are whole ops");
        (key, value)
    }

    fn rows<'a>(
        &'a self,
        segment: &'a [u8],
    ) -> impl DoubleEndedIterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.starts.iter().map(move |&s| self.row_at(segment, s))
    }

    fn last_key<'a>(&self, segment: &'a [u8]) -> Option<&'a [u8]> {
        self.starts.last().map(|&s| self.row_at(segment, s).0)
    }

    fn get<'a>(&self, segment: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
        let i = self.starts.binary_search_by(|&s| self.row_at(segment, s).0.cmp(key)).ok()?;
        Some(self.row_at(segment, self.starts[i]).1)
    }

    /// Index `op`, a row that sits at `start` in `segment`.
    fn push(&mut self, segment: &[u8], start: u64, op: &Op<'_>) {
        // Staging already refused this for a live transaction; a
        // recovered segment gets the same check, because `get` depends
        // on it.
        assert!(
            self.last_key(segment).is_none_or(|last| last < op.key),
            "append to log table `{}` at or below its last key",
            op.table
        );
        // `op.key` is a slice of `op.raw`: its offset there is its
        // offset in the row.
        self.key_field = op.key.as_ptr().addr() - op.raw.as_ptr().addr() - size_of::<u32>();
        self.starts.push(start);
    }
}

/// The longest key a map table accepts (see the module docs).
pub(crate) const MAX_MAP_KEY: usize = 15;

/// A map-table key packed inline: up to [`MAX_MAP_KEY`] bytes,
/// zero-padded, with the length in the last byte. Ordered as one
/// big-endian `u128`, which is the byte-string order of the keys it
/// packs: the padding sorts a key before every longer key it prefixes,
/// and the length byte separates `ab` from `ab\0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapKey([u8; 16]);

impl MapKey {
    /// Pack `key`, or `None` when it is too long to be a map key.
    fn pack(key: &[u8]) -> Option<MapKey> {
        if key.len() > MAX_MAP_KEY {
            return None;
        }
        let mut word = [0u8; 16];
        word[..key.len()].copy_from_slice(key);
        word[MAX_MAP_KEY] = key.len() as u8;
        Some(MapKey(word))
    }

    /// The key's bytes, borrowed from the word.
    fn bytes(&self) -> &[u8] {
        &self.0[..self.0[MAX_MAP_KEY] as usize]
    }
}

impl Ord for MapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        u128::from_be_bytes(self.0).cmp(&u128::from_be_bytes(other.0))
    }
}

impl PartialOrd for MapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
enum Table {
    Map(BTreeMap<MapKey, Vec<u8>>),
    Log(LogTable),
}

/// Pack a key staged or replayed on a map table; a longer one is a bug in
/// the caller (see the module docs).
fn map_key(table: &str, key: &[u8]) -> MapKey {
    MapKey::pack(key).unwrap_or_else(|| {
        panic!("{}-byte key on map table `{table}` (at most {MAX_MAP_KEY})", key.len())
    })
}

impl Table {
    fn apply(&mut self, op: &Op<'_>) {
        match (self, op.kind) {
            // One descent either way; an overwrite keeps the row's value
            // allocation.
            (Table::Map(rows), OpKind::Put) => match rows.entry(map_key(op.table, op.key)) {
                Entry::Occupied(mut row) => {
                    row.get_mut().clear();
                    row.get_mut().extend_from_slice(op.value);
                }
                Entry::Vacant(slot) => {
                    slot.insert(op.value.to_vec());
                }
            },
            (Table::Map(rows), OpKind::Delete) => {
                rows.remove(&map_key(op.table, op.key));
            }
            (_, kind) => panic!("{kind:?} on the wrong kind of table `{}`", op.table),
        }
    }
}

/// The store's tables by name, in name order (the order a snapshot
/// writes them in). A store holds a handful of tables and every
/// operation names one, so finding it is a short scan in which a wrong
/// name is usually refused by its length alone — where a tree would
/// follow a pointer to a heap name and compare bytes at every step.
#[derive(Debug, Default)]
struct Tables(Vec<(String, Table)>);

impl Tables {
    fn get(&self, name: &str) -> Option<&Table> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// The table `name`, created as `new` makes it when it is not there
    /// yet (keeping name order).
    fn get_or_insert(&mut self, name: &str, new: impl FnOnce() -> Table) -> &mut Table {
        // Probe first: the common case (the table exists) must not
        // allocate the table name.
        let at = match self.0.iter().position(|(n, _)| n == name) {
            Some(at) => at,
            None => {
                let at = self.0.partition_point(|(n, _)| n.as_str() < name);
                self.0.insert(at, (name.to_string(), new()));
                at
            }
        };
        &mut self.0[at].1
    }
}

/// Apply a commit or snapshot payload of map-table operations to the
/// tables — the one routine behind both a live commit and recovery's
/// replay.
fn apply_payload(tables: &mut Tables, payload: &[u8]) {
    for op in wal::ops(payload) {
        if op.kind == OpKind::Delete && tables.get(op.table).is_none() {
            continue;
        }
        tables.get_or_insert(op.table, || Table::Map(BTreeMap::new())).apply(&op);
    }
}

/// Index the log rows in `segment` from byte `from` to its end — the one
/// routine behind both a live commit (its own rows) and recovery (every
/// accepted row).
fn index_rows(tables: &mut Tables, segment: &[u8], from: usize) {
    let rows = &segment[from..];
    for op in wal::ops(rows) {
        let start = (from + (op.raw.as_ptr().addr() - rows.as_ptr().addr())) as u64;
        match tables.get_or_insert(op.table, || Table::Log(LogTable::default())) {
            Table::Log(log) if op.kind == OpKind::Append => log.push(segment, start, &op),
            _ => panic!("{:?} on the wrong kind of table `{}`", op.kind, op.table),
        }
    }
}

/// Extend `framed` over the rows `segment` gained since it was taken:
/// the mark of the frame about to be written.
fn mark_segment(framed: &mut SegmentMark, segment: &[u8]) -> SegmentMark {
    let new_rows = &segment[framed.end as usize..];
    *framed = SegmentMark { end: segment.len() as u64, crc: wal::crc32_extend(framed.crc, new_rows) };
    *framed
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
    /// A fixed cadence re-encodes every map row each `snapshot_every`
    /// commits, which is O(table size) work on a schedule that does not
    /// scale with it. A factor of 1 makes each snapshot "pay for itself"
    /// in WAL growth, bounding amortized snapshot work per commit by a
    /// constant while recovery still replays at most one
    /// snapshot-equivalent of tail records. Log rows never count: they
    /// go to the log segment, which a snapshot does not rewrite.
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
    /// Bytes appended to the WAL over the store's lifetime (log rows go
    /// to the log segment and are not counted).
    pub wal_bytes: u64,
    /// fsync barriers issued.
    pub fsyncs: u64,
}

/// The transactional store.
#[derive(Debug)]
pub struct Store {
    disk: SimDisk,
    tables: Tables,
    next_lsn: u64,
    config: StoreConfig,
    commits_since_snapshot: u64,
    /// WAL bytes appended since the last snapshot (commit frames only).
    wal_since_snapshot: u64,
    /// Size of the last snapshot frame (0 before the first snapshot).
    last_snapshot_bytes: u64,
    stats: StoreStats,
    /// The open transaction's map-table operations in WAL op encoding;
    /// `begin` empties it, so steady-state staging allocates nothing.
    staged: Vec<u8>,
    /// The open transaction's log rows, in the same encoding: what its
    /// commit appends to the log segment.
    staged_rows: Vec<u8>,
    /// Scratch for a single commit's frame, appended to the device whole.
    /// (A snapshot is encoded straight into the device instead; a group
    /// batch keeps its own buffer, `GroupState::frame`.)
    frame_buf: Vec<u8>,
    /// The segment prefix the latest frame covers: the mark the next
    /// frame extends by the rows appended since.
    framed: SegmentMark,
    /// Group-commit state: while `Some`, committed transactions apply to
    /// the tables immediately (reads see them) but their WAL framing and
    /// fsync are deferred into this accumulating batch; `group_flush`
    /// writes the whole batch as ONE `Batch` record with one fsync. A
    /// crash before the flush loses the entire open batch — never part
    /// of it (the batch frame's CRC is all-or-nothing, and its rows in
    /// the segment count only once a frame marks them).
    group: Option<GroupState>,
}

/// Accumulator for an open group-commit batch.
#[derive(Debug, Default)]
struct GroupState {
    /// The batch frame under construction: opened at the first deferred
    /// commit (whose LSN is the frame's), then `u32 len | ops` per
    /// transaction in commit order; sealed by the flush. It is built
    /// here, not in the device's tail: a frame opened there but not yet
    /// sealed has length 0 and CRC 0 — which is the CRC of an empty
    /// payload — so a crash would leave a frame recovery accepts as a
    /// valid empty batch.
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
    /// Every frame is CRC-verified, and accepted only while the log
    /// segment holds the prefix its mark covers, with the marked CRC.
    /// Replay starts at the latest accepted snapshot and runs through
    /// all later committed transactions (group-commit batches count one
    /// LSN per contained transaction), feeding each payload to the
    /// tables as a slice of the image; the log tables are rebuilt by one
    /// walk over the accepted segment prefix. Both files are then cut
    /// back to what was accepted, so the next commit lands directly
    /// behind it.
    pub fn recover(mut disk: SimDisk, config: StoreConfig) -> Self {
        let segment = disk.segment();
        let mut scan = wal::frames(disk.wal());
        let mut frames = Vec::new();
        let (mut framed, mut wal_len) = (SegmentMark::default(), 0);
        while let Some(frame) = scan.next() {
            let mark = frame.segment;
            // Rows since the previous frame: absent when the segment is
            // shorter than the mark (or the mark runs backwards).
            let Some(rows) = segment.get(framed.end as usize..mark.end as usize) else { break };
            if wal::crc32_extend(framed.crc, rows) != mark.crc {
                break;
            }
            framed = mark;
            wal_len = scan.consumed();
            frames.push(frame);
        }
        let mut tables = Tables::default();
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
        let segment_len = framed.end as usize;
        index_rows(&mut tables, &segment[..segment_len], 0);
        disk.truncate(wal_len, segment_len);
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
            staged_rows: Vec::new(),
            frame_buf: Vec::new(),
            framed,
            group: None,
        }
    }

    /// Begin a serializable transaction.
    pub fn begin(&mut self) -> Txn<'_> {
        self.staged.clear();
        self.staged_rows.clear();
        Txn { store: self, last_append: None }
    }

    /// Committed read.
    pub fn get(&self, table: &str, key: &[u8]) -> Option<&[u8]> {
        match self.tables.get(table)? {
            Table::Map(rows) => rows.get(&MapKey::pack(key)?).map(Vec::as_slice),
            Table::Log(log) => log.get(self.disk.segment(), key),
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
        let map = map.into_iter().flatten().map(|(k, v)| (k.bytes(), v.as_slice()));
        let segment = self.disk.segment();
        map.chain(log.into_iter().flat_map(move |log| log.rows(segment)))
    }

    /// A table's highest key — O(1) on a log table, where it is the key
    /// of the latest append.
    pub fn last_key(&self, table: &str) -> Option<&[u8]> {
        match self.tables.get(table)? {
            Table::Map(rows) => rows.last_key_value().map(|(k, _)| k.bytes()),
            Table::Log(log) => log.last_key(self.disk.segment()),
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

    /// Force a snapshot checkpoint now, **truncating** the WAL: a frame
    /// holding every map row as a put, marked with the log segment's
    /// current end, becomes the entire WAL (the checkpoint + rename a
    /// real store performs), so the WAL — and recovery's replay — stay
    /// O(live rows) instead of O(history). Log rows are not copied: the
    /// mark names the segment prefix that already holds them. The frame
    /// is encoded straight into the device ([`SimDisk`]'s WAL rewrite),
    /// with no scratch copy. Any open group-commit batch is flushed first
    /// so the checkpoint never captures state the log has not made
    /// durable.
    pub fn snapshot(&mut self) {
        self.flush_group_buffer();
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mark = mark_segment(&mut self.framed, self.disk.segment());
        let tables = &self.tables;
        self.disk.rewrite_wal(|image| {
            wal::begin_frame(RecordKind::Snapshot, lsn, image);
            for (name, table) in &tables.0 {
                if let Table::Map(rows) = table {
                    for (k, v) in rows {
                        wal::push_op(image, OpKind::Put, name, k.bytes(), v);
                    }
                }
            }
            wal::end_frame(image, 0, mark);
        });
        let frame_len = self.disk.wal().len() as u64;
        self.stats.wal_bytes += frame_len;
        self.stats.snapshots += 1;
        self.commits_since_snapshot = 0;
        self.wal_since_snapshot = 0;
        self.last_snapshot_bytes = frame_len;
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
    #[cfg(test)]
    fn group_pending(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.count)
    }

    fn flush_group_buffer(&mut self) {
        let Some(g) = self.group.as_mut().filter(|g| g.count > 0) else { return };
        g.count = 0;
        let mark = mark_segment(&mut self.framed, self.disk.segment());
        wal::end_frame(&mut g.frame, 0, mark);
        self.disk.append_wal(&g.frame);
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

    /// The device as it stands, unsynced tails included: the WAL stays
    /// O(live rows) under truncating snapshots, and the log segment
    /// holds the history once.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
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
        // Rows first: a frame's mark can only cover bytes already in the
        // segment.
        let rows_at = self.disk.segment().len();
        self.disk.append_segment(&self.staged_rows);
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
            // Rows, frame, one barrier: a crash before the barrier loses
            // the whole transaction, never half of it.
            let mark = mark_segment(&mut self.framed, self.disk.segment());
            self.frame_buf.clear();
            wal::encode_into(RecordKind::Commit, lsn, mark, &self.staged, &mut self.frame_buf);
            self.disk.append_wal(&self.frame_buf);
            self.disk.fsync();
            self.stats.wal_bytes += self.frame_buf.len() as u64;
            self.wal_since_snapshot += self.frame_buf.len() as u64;
        }
        apply_payload(&mut self.tables, &self.staged);
        index_rows(&mut self.tables, self.disk.segment(), rows_at);
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
/// encoding in the store's staging buffers; dropping without
/// [`Txn::commit`] rolls back (nothing was applied or logged).
#[derive(Debug)]
pub struct Txn<'s> {
    store: &'s mut Store,
    /// Where the latest staged append starts among the staged rows — the
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

    /// Validate an operation against the table's kind and key rules (see
    /// the module docs) and encode it. Panics on misuse, before anything
    /// is logged.
    fn stage(&mut self, kind: OpKind, table: &str, key: &[u8], value: &[u8]) {
        let store = &*self.store;
        let appends = kind == OpKind::Append;
        if !appends {
            map_key(table, key);
        }
        let committed = store.tables.get(table);
        // The table's kind: as committed, else as the operations this
        // transaction staged on it make it.
        let is_log = match committed {
            Some(committed) => Some(matches!(committed, Table::Log(_))),
            None if wal::ops(&store.staged_rows).any(|op| op.table == table) => Some(true),
            None => wal::ops(&store.staged)
                .any(|op| op.table == table && op.kind == OpKind::Put)
                .then_some(false),
        };
        assert!(
            is_log.is_none_or(|is_log| is_log == appends),
            "{kind:?} on the wrong kind of table `{table}`"
        );
        if !appends {
            wal::push_op(&mut self.store.staged, kind, table, key, value);
            return;
        }
        let rows = &store.staged_rows;
        let staged_tail = self.last_append.and_then(|at| {
            let latest = wal::ops(&rows[at..]).next().expect("staged ops parse");
            if latest.table == table {
                return Some(latest.key);
            }
            // Appends to several log tables interleaved: look back.
            wal::ops(rows).filter(|op| op.table == table).last().map(|op| op.key)
        });
        let tail = staged_tail.or_else(|| match committed {
            Some(Table::Log(log)) => log.last_key(store.disk.segment()),
            _ => None,
        });
        assert!(
            tail.is_none_or(|tail| tail < key),
            "append to log table `{table}` at or below its last key"
        );
        self.last_append = Some(rows.len());
        wal::push_op(&mut self.store.staged_rows, kind, table, key, value);
    }

    /// Durably commit: log rows + WAL frame + fsync + apply. Returns the
    /// LSN.
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
            let r = Store::recover(s.disk().clone().crash(&mut rng), StoreConfig::default());
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
        for cut in 0..full.wal().len() {
            let torn = SimDisk::from_images(&full.wal()[..cut], full.segment());
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
            let r = Store::recover(s.disk().clone().crash(&mut rng), StoreConfig::default());
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
                peak_after_snapshot = s.disk().len();
            }
        }
        assert!(s.stats().snapshots > 10);
        // Between snapshots at most `snapshot_every` commit frames pile
        // up, so the device never exceeds snapshot + cadence worth of
        // frames — independent of the 4096-commit history.
        assert!(
            s.disk().len() < peak_after_snapshot + 64 * 64,
            "device_len {} should be bounded by live rows + cadence, not history",
            s.disk().len()
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
        let torn = SimDisk::from_images(&full.wal()[..full.wal().len() - 3], full.segment());
        let mut r = Store::recover(torn, StoreConfig::default());
        assert_eq!(r.row_count("t"), 2, "the torn third commit is rolled back");
        let two_frames = full.wal().len() / 3 * 2;
        assert_eq!(r.disk().wal().len(), two_frames, "and its bytes are cut off the device");
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

    /// One transaction per step: a hot map row and one log row.
    fn audit_step(s: &mut Store, i: u64) {
        let mut t = s.begin();
        t.put("rows", &seq(i % 4), &seq(i));
        t.append("log", &seq(i), format!("entry-{i}").as_bytes());
        t.commit();
    }

    #[test]
    fn log_rows_are_written_once_and_snapshots_leave_them_in_place() {
        let mut s = Store::new(StoreConfig { snapshot_every: Some(16), snapshot_wal_factor: 0 });
        let mut row_bytes = 0;
        for i in 0..1_000u64 {
            audit_step(&mut s, i);
            let mut row = Vec::new();
            wal::push_op(&mut row, OpKind::Append, "log", &seq(i), format!("entry-{i}").as_bytes());
            row_bytes += row.len();
            assert_eq!(s.disk().segment().len(), row_bytes, "step {i}: each row lands once");
        }
        assert!(s.stats().snapshots > 50);
        // The WAL is the last snapshot (four map rows, no log row) plus
        // fewer than `snapshot_every` commit frames.
        assert!(s.disk().wal().len() < 16 * 128, "WAL {} B", s.disk().wal().len());
        assert!(s.last_snapshot_bytes < 256, "a snapshot holds no history");
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            s.scan("log").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let r = Store::recover(s.shutdown(), StoreConfig::default());
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            r.scan("log").map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, want);
        assert_eq!(r.get("log", &seq(777)), Some(&b"entry-777"[..]));
        assert_eq!(r.row_count("rows"), 4);
    }

    #[test]
    fn a_frame_whose_rows_are_not_all_in_the_segment_is_refused() {
        let mut s = store();
        let mut ends = Vec::new();
        for i in 0..3 {
            audit_step(&mut s, i);
            ends.push((s.disk().wal().len(), s.disk().segment().len()));
        }
        let full = s.shutdown();
        // The WAL is whole; the segment loses one byte of the third
        // commit's row, then the second commit's whole row.
        for (cut, commits) in [(ends[2].1 - 1, 2), (ends[1].1 - 1, 1), (ends[0].1, 1)] {
            let torn = SimDisk::from_images(full.wal(), &full.segment()[..cut]);
            let r = Store::recover(torn, StoreConfig::default());
            assert_eq!(r.row_count("log"), commits, "segment cut at {cut}");
            assert_eq!(r.last_key("rows"), Some(&seq(commits as u64 - 1)[..]), "map rows too");
            let (wal, segment) = ends[commits - 1];
            assert_eq!((r.disk().wal().len(), r.disk().segment().len()), (wal, segment));
        }
    }

    #[test]
    fn rows_that_ran_ahead_of_the_wal_are_cut_and_later_commits_survive() {
        let mut s = store();
        audit_step(&mut s, 0);
        s.group_begin();
        for i in 1..5 {
            audit_step(&mut s, i);
        }
        // Four committed rows reached the segment, but no frame marks them.
        let ahead = s.disk().segment().len();
        let disk = s.disk().clone();
        let mut r = Store::recover(disk, StoreConfig::default());
        assert_eq!((r.row_count("log"), r.row_count("rows")), (1, 1));
        assert!(r.disk().segment().len() < ahead, "the unmarked rows are cut");
        audit_step(&mut r, 1);
        let r2 = Store::recover(r.shutdown(), StoreConfig::default());
        let keys: Vec<&[u8]> = r2.scan("log").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&seq(0)[..], &seq(1)[..]]);
    }

    #[test]
    fn misuse_of_a_table_kind_panics_before_anything_is_logged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = store();
        let mut t = s.begin();
        t.append("log", &seq(5), b"entry");
        t.put("rows", b"k", b"v");
        t.commit();
        let device = s.disk().len();
        type Misuse = (&'static str, fn(&mut Txn<'_>));
        let misuses: [Misuse; 9] = [
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
            ("put with a 16-byte key", |t| t.put("rows", &[7; 16], b"x")),
            ("delete with a 16-byte key", |t| t.delete("rows", &[7; 16])),
        ];
        for (what, misuse) in misuses {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut t = s.begin();
                misuse(&mut t);
                t.commit();
            }));
            assert!(outcome.is_err(), "{what} must panic");
            assert_eq!(s.disk().len(), device, "{what}: nothing reached the log");
            assert_eq!((s.row_count("log"), s.row_count("rows")), (1, 1), "{what}");
        }
        // The store is unharmed and the correct call still works.
        let mut t = s.begin();
        t.append("log", &seq(6), b"entry");
        t.commit();
        assert_eq!(s.row_count("log"), 2);
    }

    #[test]
    fn packed_keys_sort_as_byte_strings() {
        let keys: [&[u8]; 9] =
            [b"", b"\0", b"\0\0", b"a", b"ab", b"ab\0", b"ab\x01", b"abc", &[0xff; 15]];
        for pair in keys.windows(2) {
            let (a, b) = (MapKey::pack(pair[0]).unwrap(), MapKey::pack(pair[1]).unwrap());
            assert!(a < b, "{a:?} < {b:?}");
            assert_eq!((a.bytes(), b.bytes()), (pair[0], pair[1]));
        }
        assert!(MapKey::pack(&[0; 16]).is_none());
        // A key too long to store is simply absent on a read.
        let mut s = store();
        let mut t = s.begin();
        t.put("rows", b"k", b"v");
        t.commit();
        assert_eq!(s.get("rows", &[0; 16]), None);
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
    }
}
