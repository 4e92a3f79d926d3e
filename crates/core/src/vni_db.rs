//! The VNI Database (§III-C2): typed schema over the ACID store, with
//! write-through in-memory indexes keeping every control-plane hot path
//! at O(log n).
//!
//! Tables:
//! * `vnis` — one row per VNI that is allocated or quarantined,
//!   including its owner and (for claims) its user list;
//! * `audit_log` — append-only log of every allocation, release, and
//!   user add/remove, as the paper requires ("we keep a log for all VNI
//!   allocation and release requests, as well as VNI user addition and
//!   removal requests"). It is a store *log table*: entries are appended
//!   under a strictly ascending sequence key, so writing one is a copy
//!   onto the end of one arena, and the last key and the length are O(1)
//!   however long the history grows.
//!
//! Every public operation is a single serializable transaction, so the
//! check-then-allocate races the paper worries about (§III-C2 TOCTOU)
//! cannot produce double allocations — property-tested in
//! `tests/vni_exclusivity.rs`, and checked against a naive scan-based
//! oracle in `tests/vni_oracle.rs`.
//!
//! # Indexes
//!
//! The store remains the single durable source of truth; the database
//! additionally maintains four in-memory indexes, rebuilt by one table
//! scan in [`VniDb::recover`] and updated **only after** a transaction
//! commits. Failed operations never touch the store, the audit cursor,
//! or any store-derived index state; the only bookkeeping a failing
//! `acquire` may perform is expiry promotion/demotion, which re-sorts
//! quarantined VNIs between the heap and the expired sets without
//! changing what any of them mean. The indexes:
//!
//! * a **free set** of range VNIs with no row — `acquire` takes the
//!   minimum in O(log n) instead of scanning the range;
//! * **owner maps** (job/claim key → VNI) — `find_by_owner` and the
//!   idempotent re-acquire probe are lookups, not table scans;
//! * a **quarantine map** (VNI → release instant) mirroring every
//!   quarantined row;
//! * an **expiry min-heap** ordered by release-instant + window —
//!   [`VniDb::sweep_expired`] pops only actually-expired entries
//!   instead of decoding the whole table.
//!
//! Rows and audit entries are stored in a compact length-prefixed
//! binary codec (`shs_vnistore::codec`); JSON stays available through
//! [`VniDb::export_diagnostics`] for humans and deterministic reports.
//!
//! # Example
//!
//! Allocate, release into quarantine, and watch the 30 s window gate
//! reuse:
//!
//! ```
//! use shs_des::{SimDur, SimTime};
//! use slingshot_k8s::vni_db::{VniDb, VniDbConfig, VniOwner};
//!
//! let mut db = VniDb::new(VniDbConfig { range: 1024..1026, quarantine: SimDur::from_secs(30) });
//! let owner = VniOwner::Job { key: "tenant/train".into() };
//! let vni = db.acquire(owner, SimTime::ZERO).unwrap();
//! db.release(vni, SimTime::from_nanos(1_000_000_000)).unwrap();
//!
//! // 10 s later the VNI is still quarantined...
//! let stats = db.stats(SimTime::from_nanos(11_000_000_000));
//! assert_eq!((stats.allocated, stats.quarantined), (0, 1));
//! // ...but once the window passes, a stats read sweeps it back to free.
//! let stats = db.stats(SimTime::from_nanos(31_000_000_000));
//! assert_eq!((stats.quarantined, stats.free), (0, 2));
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use serde::{Deserialize, Serialize};
use shs_des::{SimDur, SimTime};
use shs_fabric::Vni;
use shs_vnistore::codec::{
    push_bytes, push_u16, push_u32, push_u64, read_slice, read_u16, read_u32, read_u64, read_u8,
};
use shs_vnistore::{Store, StoreConfig};

/// Who owns an allocated VNI.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VniOwner {
    /// A job (Per-Resource VNI model).
    Job {
        /// `namespace/name` of the job.
        key: String,
    },
    /// A VNI Claim (VNI Claim model).
    Claim {
        /// `namespace/name` of the claim.
        key: String,
    },
}

/// Row state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VniState {
    /// Allocated to an owner.
    Allocated,
    /// Released; unusable until the quarantine window passes (§III-C1:
    /// "we only hand out a VNI after it has been released for more than
    /// 30 seconds").
    Quarantined {
        /// Release instant (ns since sim start).
        released_at_ns: u64,
    },
}

/// One `vnis` table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VniRow {
    /// The VNI.
    pub vni: u16,
    /// Current state.
    pub state: VniState,
    /// Owner at allocation time (kept through quarantine for the log).
    pub owner: VniOwner,
    /// Users (jobs) attached to a claim-owned VNI.
    pub users: Vec<String>,
}

/// An audit-log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Event time (ns).
    pub at_ns: u64,
    /// What happened.
    pub event: String,
    /// Affected VNI.
    pub vni: u16,
}

/// Database errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VniDbError {
    /// No VNI available in the configured range (all allocated or in
    /// quarantine).
    Exhausted,
    /// VNI not found or not in the expected state.
    NotFound,
    /// The claim still has users attached (deletion must stall, §III-C2).
    ClaimInUse,
}

impl core::fmt::Display for VniDbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            VniDbError::Exhausted => "VNI range exhausted",
            VniDbError::NotFound => "VNI not found",
            VniDbError::ClaimInUse => "claim still has users",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VniDbError {}

/// Configuration of the VNI database.
#[derive(Debug, Clone)]
pub struct VniDbConfig {
    /// Allocatable VNI range (half-open). VNI 1 is reserved as the
    /// global single-tenant VNI, so ranges start above it.
    pub range: core::ops::Range<u16>,
    /// Quarantine window before reuse.
    pub quarantine: SimDur,
}

impl Default for VniDbConfig {
    fn default() -> Self {
        VniDbConfig { range: 1024..4096, quarantine: SimDur::from_secs(30) }
    }
}

const T_VNIS: &str = "vnis";
const T_AUDIT: &str = "audit_log";

// ---- Binary row/audit codec ---------------------------------------------
//
// Length-prefixed binary (shs_vnistore::codec primitives), one version
// tag byte up front.

const CODEC_V1: u8 = 1;

fn encode_row_into(out: &mut Vec<u8>, row: &VniRow) {
    out.push(CODEC_V1);
    push_u16(out, row.vni);
    match row.state {
        VniState::Allocated => out.push(0),
        VniState::Quarantined { released_at_ns } => {
            out.push(1);
            push_u64(out, released_at_ns);
        }
    }
    let (tag, key) = owner_slot(&row.owner);
    out.push(tag as u8);
    push_bytes(out, key.as_bytes());
    push_u32(out, row.users.len() as u32);
    for user in &row.users {
        push_bytes(out, user.as_bytes());
    }
}

fn try_decode_row(bytes: &[u8]) -> Option<VniRow> {
    let mut off = 0usize;
    if read_u8(bytes, &mut off)? != CODEC_V1 {
        return None;
    }
    let vni = read_u16(bytes, &mut off)?;
    let state = match read_u8(bytes, &mut off)? {
        0 => VniState::Allocated,
        1 => VniState::Quarantined { released_at_ns: read_u64(bytes, &mut off)? },
        _ => return None,
    };
    let owner_tag = read_u8(bytes, &mut off)?;
    let key = String::from_utf8(read_slice(bytes, &mut off)?.to_vec()).ok()?;
    let owner = match owner_tag {
        0 => VniOwner::Job { key },
        1 => VniOwner::Claim { key },
        _ => return None,
    };
    let n_users = read_u32(bytes, &mut off)? as usize;
    let mut users = Vec::with_capacity(n_users.min(64));
    for _ in 0..n_users {
        users.push(String::from_utf8(read_slice(bytes, &mut off)?.to_vec()).ok()?);
    }
    (off == bytes.len()).then_some(VniRow { vni, state, owner, users })
}

/// Encode an [`AuditEntry`] whose event string is `event` followed by
/// `detail` (`"add_user:"` + the user), without building the string.
fn encode_audit_into(out: &mut Vec<u8>, at_ns: u64, vni: u16, event: &str, detail: &str) {
    out.push(CODEC_V1);
    push_u64(out, at_ns);
    push_u16(out, vni);
    push_u32(out, (event.len() + detail.len()) as u32);
    out.extend_from_slice(event.as_bytes());
    out.extend_from_slice(detail.as_bytes());
}

fn try_decode_audit(bytes: &[u8]) -> Option<AuditEntry> {
    let mut off = 0usize;
    if read_u8(bytes, &mut off)? != CODEC_V1 {
        return None;
    }
    let at_ns = read_u64(bytes, &mut off)?;
    let vni = read_u16(bytes, &mut off)?;
    let event = String::from_utf8(read_slice(bytes, &mut off)?.to_vec()).ok()?;
    (off == bytes.len()).then_some(AuditEntry { at_ns, event, vni })
}

/// Owner-map slots: one map per owner kind, so lookups borrow a `&str`
/// instead of cloning an owner.
const SLOT_JOB: usize = 0;
const SLOT_CLAIM: usize = 1;

fn owner_slot(owner: &VniOwner) -> (usize, &str) {
    match owner {
        VniOwner::Job { key } => (SLOT_JOB, key.as_str()),
        VniOwner::Claim { key } => (SLOT_CLAIM, key.as_str()),
    }
}

fn audit_seq_of(key: &[u8]) -> u64 {
    u64::from_be_bytes(key.try_into().expect("8-byte audit key"))
}

/// Allocator-level counters: how allocations were satisfied and how much
/// expiry bookkeeping the indexes performed. Exposed by
/// [`VniDb::counters`] and surfaced by `bench-run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct VniDbCounters {
    /// Successful acquisitions.
    pub acquires: u64,
    /// Acquisitions satisfied from the never-used free pool.
    pub fresh_allocs: u64,
    /// Acquisitions that reused a VNI whose quarantine had expired.
    pub reuse_allocs: u64,
    /// Acquisitions refused because nothing was allocatable.
    pub exhaustions: u64,
    /// Successful releases into quarantine.
    pub releases: u64,
    /// Successful user additions.
    pub user_adds: u64,
    /// Successful user removals.
    pub user_removes: u64,
    /// [`VniDb::sweep_expired`] invocations.
    pub sweeps: u64,
    /// Quarantine rows deleted by sweeps.
    pub swept_rows: u64,
    /// Heap entries promoted from quarantined to allocatable.
    pub expiry_promotions: u64,
}

/// The write-through in-memory indexes. Invariants (checked by
/// [`VniDb::check_index_consistency`]):
///
/// * `free` = range VNIs with **no row** in the store;
/// * `owners[slot]` maps exactly the owners of **Allocated** rows;
/// * `quarantined` maps exactly the **Quarantined** rows (expired or
///   not) to their release instant;
/// * every quarantined VNI is covered **once**: either still in the
///   `expiry` heap (window not yet observed to pass) or in
///   `expired`/`expired_out` (allocatable / sweep-only).
#[derive(Debug, Default)]
struct Indexes {
    free: BTreeSet<u16>,
    expired: BTreeSet<u16>,
    /// Expired rows outside the configured range (possible after a
    /// recovery with a narrower range): swept, but never re-allocated —
    /// matching the scan allocator, which only probed in-range VNIs.
    expired_out: BTreeSet<u16>,
    quarantined: BTreeMap<u16, u64>,
    expiry: BinaryHeap<Reverse<(u64, u16)>>,
    owners: [BTreeMap<String, u16>; 2],
    /// Highest `now` promotions have been evaluated at. The expired
    /// sets are only valid relative to this instant; a call with an
    /// earlier `now` (the public API takes arbitrary `SimTime`s)
    /// triggers a demotion pass so quarantine is judged against the
    /// caller's clock, exactly like the per-call scan predicate did.
    watermark_ns: u64,
}

/// The VNI database.
#[derive(Debug)]
pub struct VniDb {
    store: Store,
    config: VniDbConfig,
    next_audit_seq: u64,
    idx: Indexes,
    counters: VniDbCounters,
    /// Scratch for the row and audit entry a transaction is about to
    /// write, so encoding them allocates nothing.
    scratch: Vec<u8>,
}

impl VniDb {
    /// Store tuning for the allocator: the audit log is append-only, so
    /// fixed-cadence snapshots re-encode an ever-growing table. Require
    /// the WAL to grow by a full snapshot's worth of bytes between
    /// checkpoints so snapshot cost stays amortized O(1) per commit.
    fn store_config() -> StoreConfig {
        StoreConfig { snapshot_wal_factor: 1, ..Default::default() }
    }

    /// Fresh database.
    pub fn new(config: VniDbConfig) -> Self {
        VniDb::recover(shs_vnistore::SimDisk::new(), config)
    }

    /// Recover a database from a crashed/persisted store image. One scan
    /// of the `vnis` table rebuilds every index.
    ///
    /// The audit cursor resumes from the highest persisted key + 1, not
    /// the row count: a database serving as one shard of a
    /// [`ShardedVniDb`](crate::sharded_db::ShardedVniDb) holds a sparse
    /// slice of the *global* sequence, so counting rows would re-issue
    /// keys another shard already owns. For a standalone log the keys
    /// are contiguous and the two are equal.
    pub fn recover(disk: shs_vnistore::SimDisk, config: VniDbConfig) -> Self {
        let store = Store::recover(disk, VniDb::store_config());
        let next_audit_seq = store.last_key(T_AUDIT).map_or(0, |k| audit_seq_of(k) + 1);
        let mut idx = Indexes { free: config.range.clone().collect(), ..Default::default() };
        let q_ns = config.quarantine.as_nanos();
        for (_, bytes) in store.scan(T_VNIS) {
            let row = Self::decode_row(bytes);
            idx.free.remove(&row.vni);
            match row.state {
                VniState::Allocated => {
                    let (slot, key) = owner_slot(&row.owner);
                    idx.owners[slot].insert(key.to_string(), row.vni);
                }
                VniState::Quarantined { released_at_ns } => {
                    idx.quarantined.insert(row.vni, released_at_ns);
                    idx.expiry.push(Reverse((released_at_ns.saturating_add(q_ns), row.vni)));
                }
            }
        }
        VniDb {
            store,
            config,
            next_audit_seq,
            idx,
            counters: VniDbCounters::default(),
            scratch: Vec::new(),
        }
    }

    /// Access the underlying store (crash injection in tests).
    pub fn into_store(self) -> Store {
        self.store
    }

    /// The configured quarantine window.
    pub fn quarantine(&self) -> SimDur {
        self.config.quarantine
    }

    /// Allocator counters for this instance (not carried across
    /// recovery).
    pub fn counters(&self) -> VniDbCounters {
        self.counters
    }

    /// Committed transactions on the backing store (not carried across
    /// recovery) — the paper's "one ACID transaction per operation"
    /// invariant made countable.
    pub fn txn_count(&self) -> u64 {
        self.store.stats().commits
    }

    /// Enter group-commit mode on the backing store: subsequent
    /// transactions apply (and are readable) immediately, but WAL
    /// framing + fsync are deferred until [`VniDb::group_flush`] — many
    /// control-plane commits, one durability barrier.
    pub fn group_begin(&mut self) {
        self.store.group_begin();
    }

    /// Make every deferred commit durable as ONE batch WAL record with
    /// ONE fsync.
    pub fn group_flush(&mut self) {
        self.store.group_flush();
    }

    /// Flush any open batch and leave group-commit mode.
    pub fn group_end(&mut self) {
        self.store.group_end();
    }

    // ---- Sharding hooks (crate-private) ---------------------------------
    //
    // A `ShardedVniDb` owns the *global* audit sequence and allocation
    // order; these hooks let it thread that state through each shard
    // while every per-shard invariant stays locally checkable.

    /// Current audit cursor (the next sequence this database would
    /// assign).
    pub(crate) fn audit_seq(&self) -> u64 {
        self.next_audit_seq
    }

    /// Point the audit cursor at a facade-assigned global sequence.
    pub(crate) fn set_audit_seq(&mut self, seq: u64) {
        self.next_audit_seq = seq;
    }

    /// Audit entries paired with their persisted sequence keys — the
    /// k-way-merge input for the facade's global audit view.
    pub(crate) fn audit_with_seq(&self) -> Vec<(u64, AuditEntry)> {
        self.store
            .scan(T_AUDIT)
            .map(|(k, v)| (audit_seq_of(k), try_decode_audit(v).expect("audit rows decode")))
            .collect()
    }

    /// The persisted audit sequence keys, ascending, without decoding
    /// the entries under them (the facade's contiguity check).
    pub(crate) fn audit_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.store.scan(T_AUDIT).map(|(k, _)| audit_seq_of(k))
    }

    /// Whether a row (allocated or quarantined) exists for `vni` — the
    /// facade's directory probe, which needs presence, not the row.
    pub(crate) fn has_row(&self, vni: u16) -> bool {
        self.store.get(T_VNIS, &Self::key(vni)).is_some()
    }

    /// The VNI `acquire` would hand out at `now`, without allocating —
    /// the facade probes every shard with this and routes the acquire
    /// to the shard holding the global minimum, so sharded allocation
    /// order is identical to a single store's.
    pub(crate) fn peek_min_allocatable(&mut self, now: SimTime) -> Option<u16> {
        self.promote_expired(now);
        match (self.idx.free.first(), self.idx.expired.first()) {
            (Some(&f), Some(&e)) => Some(f.min(e)),
            (Some(&f), None) => Some(f),
            (None, Some(&e)) => Some(e),
            (None, None) => None,
        }
    }

    /// Owner-index lookup without promotion side effects (the facade's
    /// idempotent re-acquire probe).
    pub(crate) fn owner_vni(&self, owner: &VniOwner) -> Option<u16> {
        let (slot, key) = owner_slot(owner);
        self.idx.owners[slot].get(key).copied()
    }

    /// Quarantined-index size (valid after a sweep at the caller's
    /// clock).
    pub(crate) fn quarantined_count(&self) -> usize {
        self.idx.quarantined.len()
    }

    /// Free-set size.
    pub(crate) fn free_count(&self) -> usize {
        self.idx.free.len()
    }

    fn key(vni: u16) -> [u8; 2] {
        vni.to_be_bytes()
    }

    fn decode_row(bytes: &[u8]) -> VniRow {
        try_decode_row(bytes).expect("vnis rows decode")
    }

    /// Look up a row.
    pub fn row(&self, vni: Vni) -> Option<VniRow> {
        self.store.get(T_VNIS, &Self::key(vni.raw())).map(Self::decode_row)
    }

    /// All rows (diagnostics / recovery checks).
    pub fn rows(&self) -> Vec<VniRow> {
        self.store.scan(T_VNIS).map(|(_, v)| Self::decode_row(v)).collect()
    }

    /// Audit log length.
    pub fn audit_len(&self) -> usize {
        self.store.row_count(T_AUDIT)
    }

    /// Audit entries in order, as currently persisted. Prefer
    /// [`VniDb::audit_at`] when a simulation clock is in hand: this raw
    /// read does not sweep expired quarantines, so it may lag the state
    /// `acquire` would act on.
    pub fn audit(&self) -> Vec<AuditEntry> {
        self.store
            .scan(T_AUDIT)
            .map(|(_, v)| try_decode_audit(v).expect("audit rows decode"))
            .collect()
    }

    /// Consistent audit read at `now`: sweeps expired quarantines first,
    /// so the returned log contains a `quarantine_expire` entry for
    /// every VNI that `acquire` would already treat as free.
    pub fn audit_at(&mut self, now: SimTime) -> Vec<AuditEntry> {
        self.sweep_expired(now);
        self.audit()
    }

    /// JSON view of the full database state (rows, audit log, allocator
    /// counters) for diagnostics export. The hot tables are binary on
    /// disk; this is the human-readable escape hatch, and it is
    /// deterministic for a deterministic history.
    pub fn export_diagnostics(&self) -> serde_json::Value {
        serde_json::json!({
            "rows": self.rows(),
            "audit": self.audit(),
            "counters": self.counters,
        })
    }

    /// Find the VNI owned by `owner`, if any (idempotent re-sync path).
    /// An owner-index lookup plus one row fetch — no table scan.
    pub fn find_by_owner(&self, owner: &VniOwner) -> Option<VniRow> {
        let (slot, key) = owner_slot(owner);
        let vni = *self.idx.owners[slot].get(key)?;
        self.row(Vni(vni))
    }

    /// Bring the expired sets in line with `now`: every heap entry whose
    /// quarantine window has passed moves into the allocatable/sweepable
    /// sets, and — should `now` lie **before** an earlier promotion
    /// point — entries whose window has *not* passed at this clock are
    /// demoted back into the heap. Quarantine is therefore always judged
    /// against the caller's `now`, matching the old per-call scan
    /// predicate even for non-monotonic timestamps. Index-only: rows are
    /// untouched, so this is safe on paths that subsequently fail.
    fn promote_expired(&mut self, now: SimTime) {
        let q_ns = self.config.quarantine.as_nanos();
        if now.as_nanos() < self.idx.watermark_ns {
            let unexpired: Vec<(u16, u64)> = self
                .idx
                .expired
                .iter()
                .chain(self.idx.expired_out.iter())
                .filter_map(|vni| {
                    let rel = *self.idx.quarantined.get(vni)?;
                    (rel.saturating_add(q_ns) > now.as_nanos()).then_some((*vni, rel))
                })
                .collect();
            for (vni, rel) in unexpired {
                self.idx.expired.remove(&vni);
                self.idx.expired_out.remove(&vni);
                self.idx.expiry.push(Reverse((rel.saturating_add(q_ns), vni)));
            }
        }
        self.idx.watermark_ns = now.as_nanos();
        while let Some(&Reverse((expires_at, vni))) = self.idx.expiry.peek() {
            if expires_at > now.as_nanos() {
                break;
            }
            self.idx.expiry.pop();
            // Guard against a heap entry outliving its row (cannot happen
            // under the covered-once invariant, but cheap to enforce).
            if self.idx.quarantined.contains_key(&vni) {
                if self.config.range.contains(&vni) {
                    self.idx.expired.insert(vni);
                } else {
                    self.idx.expired_out.insert(vni);
                }
                self.counters.expiry_promotions += 1;
            }
        }
    }

    /// Atomically acquire a fresh VNI for `owner`: the minimum of the
    /// free set and the expired-quarantine set — the same VNI the range
    /// scan would have found, in O(log n). Check and insert happen in
    /// one transaction.
    pub fn acquire(&mut self, owner: VniOwner, now: SimTime) -> Result<Vni, VniDbError> {
        // Idempotency: an owner re-acquiring gets its existing VNI.
        {
            let (slot, key) = owner_slot(&owner);
            if let Some(&vni) = self.idx.owners[slot].get(key) {
                return Ok(Vni(vni));
            }
        }
        self.promote_expired(now);
        let vni = match (self.idx.free.first(), self.idx.expired.first()) {
            (Some(&f), Some(&e)) => f.min(e),
            (Some(&f), None) => f,
            (None, Some(&e)) => e,
            (None, None) => {
                self.counters.exhaustions += 1;
                return Err(VniDbError::Exhausted);
            }
        };
        let row = VniRow { vni, state: VniState::Allocated, owner, users: Vec::new() };
        self.commit_row(&row, now, "acquire", "");
        // Committed: fold the allocation into the indexes.
        if self.idx.free.remove(&vni) {
            self.counters.fresh_allocs += 1;
        } else {
            // Reused an expired quarantine row (overwritten by the put).
            self.idx.expired.remove(&vni);
            self.idx.quarantined.remove(&vni);
            self.counters.reuse_allocs += 1;
        }
        let (slot, key) = match row.owner {
            VniOwner::Job { key } => (SLOT_JOB, key),
            VniOwner::Claim { key } => (SLOT_CLAIM, key),
        };
        self.idx.owners[slot].insert(key, vni);
        self.counters.acquires += 1;
        Ok(Vni(vni))
    }

    /// The transaction every single-row operation is: write `row` and
    /// append its audit entry (`event` + `detail`) under the next
    /// sequence key.
    fn commit_row(&mut self, row: &VniRow, now: SimTime, event: &str, detail: &str) {
        self.scratch.clear();
        encode_row_into(&mut self.scratch, row);
        let audit_at = self.scratch.len();
        encode_audit_into(&mut self.scratch, now.as_nanos(), row.vni, event, detail);
        let (row_bytes, audit_bytes) = self.scratch.split_at(audit_at);
        let mut txn = self.store.begin();
        txn.put(T_VNIS, &Self::key(row.vni), row_bytes);
        txn.append(T_AUDIT, &self.next_audit_seq.to_be_bytes(), audit_bytes);
        txn.commit();
        self.next_audit_seq += 1;
    }

    /// Atomically release a VNI into quarantine.
    pub fn release(&mut self, vni: Vni, now: SimTime) -> Result<(), VniDbError> {
        let bytes = self.store.get(T_VNIS, &Self::key(vni.raw())).ok_or(VniDbError::NotFound)?;
        let mut row = Self::decode_row(bytes);
        if row.state != VniState::Allocated {
            return Err(VniDbError::NotFound);
        }
        row.state = VniState::Quarantined { released_at_ns: now.as_nanos() };
        row.users.clear();
        self.commit_row(&row, now, "release", "");
        let (slot, key) = owner_slot(&row.owner);
        self.idx.owners[slot].remove(key);
        self.idx.quarantined.insert(vni.raw(), now.as_nanos());
        self.idx
            .expiry
            .push(Reverse((now.as_nanos().saturating_add(self.config.quarantine.as_nanos()), vni.raw())));
        self.counters.releases += 1;
        Ok(())
    }

    /// Find the VNI allocated to a claim by claim key (`ns/name`).
    pub fn find_by_claim(&self, claim_key: &str) -> Option<VniRow> {
        let vni = *self.idx.owners[SLOT_CLAIM].get(claim_key)?;
        self.row(Vni(vni))
    }

    /// Atomically add a user (a job key) to a claim-owned VNI.
    pub fn add_user(&mut self, vni: Vni, user: &str, now: SimTime) -> Result<(), VniDbError> {
        let bytes = self.store.get(T_VNIS, &Self::key(vni.raw())).ok_or(VniDbError::NotFound)?;
        let mut row = Self::decode_row(bytes);
        if row.state != VniState::Allocated {
            return Err(VniDbError::NotFound);
        }
        if !row.users.iter().any(|u| u == user) {
            row.users.push(user.to_string());
        }
        self.commit_row(&row, now, "add_user:", user);
        self.counters.user_adds += 1;
        Ok(())
    }

    /// Atomically remove a user; returns how many remain.
    pub fn remove_user(
        &mut self,
        vni: Vni,
        user: &str,
        now: SimTime,
    ) -> Result<usize, VniDbError> {
        let bytes = self.store.get(T_VNIS, &Self::key(vni.raw())).ok_or(VniDbError::NotFound)?;
        let mut row = Self::decode_row(bytes);
        if row.state != VniState::Allocated {
            return Err(VniDbError::NotFound);
        }
        row.users.retain(|u| u != user);
        let remaining = row.users.len();
        self.commit_row(&row, now, "remove_user:", user);
        self.counters.user_removes += 1;
        Ok(remaining)
    }

    /// Release a claim-owned VNI, refusing while users remain (§III-C2:
    /// "the deletion request is only granted once all users of the VNI
    /// claim have been removed").
    pub fn release_claim(&mut self, claim_key: &str, now: SimTime) -> Result<(), VniDbError> {
        let Some(row) = self.find_by_claim(claim_key) else {
            return Err(VniDbError::NotFound);
        };
        if !row.users.is_empty() {
            return Err(VniDbError::ClaimInUse);
        }
        self.release(Vni(row.vni), now)
    }

    /// Count of currently allocated VNIs — an index size, not a scan.
    pub fn allocated_count(&self) -> usize {
        self.idx.owners[SLOT_JOB].len() + self.idx.owners[SLOT_CLAIM].len()
    }

    /// Sweep quarantined rows whose window has passed: each is deleted
    /// (returning the VNI to the free pool) and a `quarantine_expire`
    /// audit entry is appended, all in one transaction. Returns the
    /// number of rows swept. Touches only actually-expired rows — the
    /// expiry heap finds them without decoding the table.
    ///
    /// Allocation has always *treated* expired rows as free; before this
    /// sweep existed, audit/stats readers still saw them as quarantined,
    /// so reported counts disagreed with what `acquire` would actually
    /// do. [`VniDb::stats`] calls this first for consistent reads.
    pub fn sweep_expired(&mut self, now: SimTime) -> usize {
        self.counters.sweeps += 1;
        self.promote_expired(now);
        if self.idx.expired.is_empty() && self.idx.expired_out.is_empty() {
            return 0;
        }
        // Ascending-VNI order, like the scan-based sweep appended.
        let expired: Vec<u16> = self
            .idx
            .expired
            .iter()
            .chain(self.idx.expired_out.iter())
            .copied()
            .collect::<BTreeSet<u16>>()
            .into_iter()
            .collect();
        let mut seq = self.next_audit_seq;
        let mut txn = self.store.begin();
        for &vni in &expired {
            txn.delete(T_VNIS, &Self::key(vni));
            self.scratch.clear();
            encode_audit_into(&mut self.scratch, now.as_nanos(), vni, "quarantine_expire", "");
            txn.append(T_AUDIT, &seq.to_be_bytes(), &self.scratch);
            seq += 1;
        }
        txn.commit();
        for &vni in &expired {
            self.idx.expired.remove(&vni);
            self.idx.expired_out.remove(&vni);
            self.idx.quarantined.remove(&vni);
            if self.config.range.contains(&vni) {
                self.idx.free.insert(vni);
            }
        }
        self.next_audit_seq = seq;
        self.counters.swept_rows += expired.len() as u64;
        expired.len()
    }

    /// Consistent occupancy split of the configured range at `now`.
    /// Sweeps expired quarantines first, so `quarantined` only counts
    /// VNIs that `acquire` would actually refuse — then the split is
    /// three index sizes, O(1).
    pub fn stats(&mut self, now: SimTime) -> VniDbStats {
        self.sweep_expired(now);
        VniDbStats {
            allocated: self.allocated_count(),
            quarantined: self.idx.quarantined.len(),
            free: self.idx.free.len(),
        }
    }

    /// Verify every index invariant against a full (slow) table scan.
    /// Diagnostics/tests only — the regression and oracle suites call
    /// this after every operation, including failed ones.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        let mut want_owners: [BTreeMap<String, u16>; 2] = Default::default();
        let mut want_quar: BTreeMap<u16, u64> = BTreeMap::new();
        let mut present: BTreeSet<u16> = BTreeSet::new();
        for (_, bytes) in self.store.scan(T_VNIS) {
            let row = try_decode_row(bytes)
                .ok_or_else(|| "undecodable row in vnis table".to_string())?;
            present.insert(row.vni);
            match row.state {
                VniState::Allocated => {
                    let (slot, key) = owner_slot(&row.owner);
                    want_owners[slot].insert(key.to_string(), row.vni);
                }
                VniState::Quarantined { released_at_ns } => {
                    want_quar.insert(row.vni, released_at_ns);
                }
            }
        }
        let want_free: BTreeSet<u16> =
            self.config.range.clone().filter(|v| !present.contains(v)).collect();
        if self.idx.free != want_free {
            return Err(format!(
                "free index diverged: idx={:?} store={:?}",
                self.idx.free, want_free
            ));
        }
        if self.idx.owners != want_owners {
            return Err(format!(
                "owner index diverged: idx={:?} store={:?}",
                self.idx.owners, want_owners
            ));
        }
        if self.idx.quarantined != want_quar {
            return Err(format!(
                "quarantine index diverged: idx={:?} store={:?}",
                self.idx.quarantined, want_quar
            ));
        }
        // Covered-once: heap ∪ expired ∪ expired_out = quarantined keys,
        // with no VNI counted twice and heap deadlines matching rows.
        let q_ns = self.config.quarantine.as_nanos();
        let mut covered: BTreeSet<u16> =
            self.idx.expired.union(&self.idx.expired_out).copied().collect();
        if covered.len() != self.idx.expired.len() + self.idx.expired_out.len() {
            return Err("a VNI is in both expired sets".into());
        }
        for &Reverse((expires_at, vni)) in self.idx.expiry.iter() {
            let Some(&rel) = self.idx.quarantined.get(&vni) else {
                return Err(format!("stale heap entry for VNI {vni}"));
            };
            if rel.saturating_add(q_ns) != expires_at {
                return Err(format!("heap deadline mismatch for VNI {vni}"));
            }
            if !covered.insert(vni) {
                return Err(format!("VNI {vni} covered twice (heap + expired set)"));
            }
        }
        let quar_keys: BTreeSet<u16> = self.idx.quarantined.keys().copied().collect();
        if covered != quar_keys {
            return Err(format!(
                "quarantine coverage diverged: covered={covered:?} rows={quar_keys:?}"
            ));
        }
        // The cursor may run ahead of this database's own rows (as one
        // shard of a global sequence) but must never lag them; the
        // sharded facade's check restores full strictness by requiring
        // the union of shard keys to be contiguous.
        let min_next = self.store.last_key(T_AUDIT).map_or(0, |k| audit_seq_of(k) + 1);
        if self.next_audit_seq < min_next {
            return Err(format!(
                "audit cursor lags persisted keys: next_audit_seq={} max key+1={}",
                self.next_audit_seq, min_next
            ));
        }
        Ok(())
    }
}

/// Occupancy of the VNI range as reported by [`VniDb::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VniDbStats {
    /// VNIs currently allocated to an owner.
    pub allocated: usize,
    /// VNIs inside an unexpired quarantine window.
    pub quarantined: usize,
    /// VNIs a fresh `acquire` could hand out.
    pub free: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> VniDb {
        VniDb::new(VniDbConfig { range: 1024..1030, quarantine: SimDur::from_secs(30) })
    }

    fn job(key: &str) -> VniOwner {
        VniOwner::Job { key: key.to_string() }
    }

    fn encode_row(row: &VniRow) -> Vec<u8> {
        let mut out = Vec::new();
        encode_row_into(&mut out, row);
        out
    }

    #[test]
    fn acquire_hands_out_distinct_vnis() {
        let mut db = db();
        let a = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        let b = db.acquire(job("ns/b"), SimTime::ZERO).unwrap();
        assert_ne!(a, b);
        assert_eq!(db.allocated_count(), 2);
        assert_eq!(db.audit_len(), 2);
    }

    #[test]
    fn acquire_is_idempotent_per_owner() {
        let mut db = db();
        let a1 = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        let a2 = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(db.allocated_count(), 1);
    }

    #[test]
    fn quarantine_blocks_reuse_for_thirty_seconds() {
        let mut db = db();
        // Exhaust the 6-wide range.
        for i in 0..6 {
            db.acquire(job(&format!("ns/j{i}")), SimTime::ZERO).unwrap();
        }
        assert_eq!(db.acquire(job("ns/late"), SimTime::ZERO).unwrap_err(), VniDbError::Exhausted);
        // Release one at t=10s.
        db.release(Vni(1024), SimTime::from_nanos(10_000_000_000)).unwrap();
        // 29.9s after release: still quarantined.
        let t_early = SimTime::from_nanos(39_900_000_000);
        assert_eq!(db.acquire(job("ns/late"), t_early).unwrap_err(), VniDbError::Exhausted);
        // 30s after release: reusable.
        let t_ok = SimTime::from_nanos(40_000_000_000);
        assert_eq!(db.acquire(job("ns/late"), t_ok).unwrap(), Vni(1024));
    }

    #[test]
    fn release_requires_allocated_state() {
        let mut db = db();
        assert_eq!(db.release(Vni(1024), SimTime::ZERO).unwrap_err(), VniDbError::NotFound);
        db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.release(Vni(1024), SimTime::ZERO).unwrap();
        assert_eq!(db.release(Vni(1024), SimTime::ZERO).unwrap_err(), VniDbError::NotFound);
    }

    #[test]
    fn claim_users_lifecycle() {
        let mut db = db();
        let claim = VniOwner::Claim { key: "ns/shared".into() };
        let v = db.acquire(claim, SimTime::ZERO).unwrap();
        db.add_user(v, "ns/job1", SimTime::ZERO).unwrap();
        db.add_user(v, "ns/job2", SimTime::ZERO).unwrap();
        db.add_user(v, "ns/job1", SimTime::ZERO).unwrap(); // idempotent
        assert_eq!(db.row(v).unwrap().users.len(), 2);
        // Deletion stalls while users remain.
        assert_eq!(
            db.release_claim("ns/shared", SimTime::ZERO).unwrap_err(),
            VniDbError::ClaimInUse
        );
        assert_eq!(db.remove_user(v, "ns/job1", SimTime::ZERO).unwrap(), 1);
        assert_eq!(db.remove_user(v, "ns/job2", SimTime::ZERO).unwrap(), 0);
        db.release_claim("ns/shared", SimTime::ZERO).unwrap();
        assert_eq!(db.allocated_count(), 0);
    }

    #[test]
    fn find_by_claim_resolves_redemption() {
        let mut db = db();
        let v = db
            .acquire(VniOwner::Claim { key: "tenant/experiment".into() }, SimTime::ZERO)
            .unwrap();
        let row = db.find_by_claim("tenant/experiment").unwrap();
        assert_eq!(row.vni, v.raw());
        assert!(db.find_by_claim("tenant/other").is_none());
    }

    #[test]
    fn audit_log_records_every_operation() {
        let mut db = db();
        let v = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.add_user(v, "u", SimTime::ZERO).unwrap();
        db.remove_user(v, "u", SimTime::ZERO).unwrap();
        db.release(v, SimTime::ZERO).unwrap();
        let events: Vec<String> = db.audit().into_iter().map(|e| e.event).collect();
        assert_eq!(events, vec!["acquire", "add_user:u", "remove_user:u", "release"]);
    }

    #[test]
    fn stats_sweep_expires_stale_quarantines_consistently() {
        let mut db = db();
        db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.acquire(job("ns/b"), SimTime::ZERO).unwrap();
        db.release(Vni(1024), SimTime::from_nanos(5_000_000_000)).unwrap();
        // Inside the window: reported as quarantined, nothing swept.
        let s = db.stats(SimTime::from_nanos(10_000_000_000));
        assert_eq!((s.allocated, s.quarantined, s.free), (1, 1, 4));
        // Regression: before the sweep existed, a stats/audit read after
        // the window still reported the row as quarantined even though
        // acquire() would have handed it out.
        let s = db.stats(SimTime::from_nanos(35_000_000_000));
        assert_eq!((s.allocated, s.quarantined, s.free), (1, 0, 5));
        // audit_at is the consistent audit read; here it sweeps nothing
        // further but returns the expire entry stats() just recorded.
        let events: Vec<String> =
            db.audit_at(SimTime::from_nanos(35_000_000_000)).into_iter().map(|e| e.event).collect();
        assert_eq!(
            events,
            vec!["acquire", "acquire", "release", "quarantine_expire"],
            "the sweep is visible in the audit log"
        );
        // The swept VNI is genuinely free again.
        assert_eq!(
            db.acquire(job("ns/c"), SimTime::from_nanos(35_000_000_000)).unwrap(),
            Vni(1024)
        );
        // Idempotent: a second read sweeps nothing further.
        assert_eq!(db.sweep_expired(SimTime::from_nanos(36_000_000_000)), 0);
    }

    #[test]
    fn state_survives_crash_recovery() {
        let mut db = db();
        let v = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.add_user(v, "u", SimTime::ZERO).unwrap();
        let mut rng = shs_des::DetRng::new(4);
        let disk = db.into_store().crash(&mut rng);
        let db2 = VniDb::recover(
            disk,
            VniDbConfig { range: 1024..1030, quarantine: SimDur::from_secs(30) },
        );
        let row = db2.row(v).unwrap();
        assert_eq!(row.state, VniState::Allocated);
        assert_eq!(row.users, vec!["u".to_string()]);
        assert_eq!(db2.audit_len(), 2);
        db2.check_index_consistency().expect("rebuilt indexes agree with the store");
    }

    #[test]
    fn row_codec_roundtrips_every_shape() {
        let rows = [
            VniRow {
                vni: 1024,
                state: VniState::Allocated,
                owner: VniOwner::Job { key: "ns/j".into() },
                users: vec![],
            },
            VniRow {
                vni: 4095,
                state: VniState::Quarantined { released_at_ns: u64::MAX },
                owner: VniOwner::Claim { key: "".into() },
                users: vec!["a/b".into(), "c/d".into()],
            },
        ];
        for row in rows {
            assert_eq!(try_decode_row(&encode_row(&row)), Some(row));
        }
        let entry = AuditEntry { at_ns: 7, event: "add_user:n/x".into(), vni: 2048 };
        let mut bytes = Vec::new();
        encode_audit_into(&mut bytes, 7, 2048, "add_user:", "n/x");
        assert_eq!(try_decode_audit(&bytes), Some(entry));
    }

    #[test]
    fn row_codec_rejects_truncation_and_trailing_garbage() {
        let row = VniRow {
            vni: 1500,
            state: VniState::Quarantined { released_at_ns: 123 },
            owner: VniOwner::Job { key: "t/j".into() },
            users: vec!["u1".into()],
        };
        let bytes = encode_row(&row);
        for cut in 0..bytes.len() {
            assert_eq!(try_decode_row(&bytes[..cut]), None, "truncated at {cut}");
        }
        // Trailing garbage is rejected too (off must land exactly at end).
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(try_decode_row(&long), None);
    }

    #[test]
    fn counters_track_allocation_sources() {
        let mut db = db();
        let v = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.release(v, SimTime::ZERO).unwrap();
        // Reuse after expiry: the same VNI comes back from the expired set.
        let t = SimTime::from_nanos(31_000_000_000);
        assert_eq!(db.acquire(job("ns/b"), t).unwrap(), v);
        let c = db.counters();
        assert_eq!((c.acquires, c.fresh_allocs, c.reuse_allocs), (2, 1, 1));
        assert_eq!((c.releases, c.expiry_promotions), (1, 1));
        // Exhaustion counts, and failed acquires leave indexes intact.
        let mut tiny = VniDb::new(VniDbConfig {
            range: 2000..2001,
            quarantine: SimDur::from_secs(30),
        });
        tiny.acquire(job("t/a"), SimTime::ZERO).unwrap();
        assert!(tiny.acquire(job("t/b"), SimTime::ZERO).is_err());
        assert_eq!(tiny.counters().exhaustions, 1);
        tiny.check_index_consistency().unwrap();
    }

    #[test]
    fn export_diagnostics_is_json_with_rows_audit_counters() {
        let mut db = db();
        let v = db.acquire(job("ns/a"), SimTime::ZERO).unwrap();
        db.add_user(v, "u", SimTime::ZERO).unwrap();
        let diag = db.export_diagnostics();
        assert_eq!(diag["rows"].as_array().unwrap().len(), 1);
        assert_eq!(diag["audit"].as_array().unwrap().len(), 2);
        assert_eq!(diag["counters"]["acquires"].as_u64(), Some(1));
        // Deterministic for a deterministic history.
        let twice = db.export_diagnostics();
        assert_eq!(
            serde_json::to_string_pretty(&diag).unwrap(),
            serde_json::to_string_pretty(&twice).unwrap()
        );
    }

    #[test]
    fn quarantine_is_judged_against_the_callers_clock_even_backwards() {
        // The public API takes arbitrary SimTimes. A late observation
        // must not leave a VNI marked reusable for an earlier caller:
        // the scan allocator re-evaluated expiry per call, and the
        // indexed one must match (regression for sticky promotion).
        let mut db = VniDb::new(VniDbConfig {
            range: 2048..2051,
            quarantine: SimDur::from_secs(30),
        });
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        let a = db.acquire(job("ns/a"), t(0)).unwrap();
        let b = db.acquire(job("ns/b"), t(0)).unwrap();
        assert_eq!((a, b), (Vni(2048), Vni(2049)));
        db.release(a, t(0)).unwrap();
        db.release(b, t(0)).unwrap();
        // An acquire far past the window promotes BOTH expired entries
        // but allocates only the lower one — 2049 stays promoted.
        assert_eq!(db.acquire(job("ns/c"), t(100)).unwrap(), Vni(2048));
        // Clock rewinds to t=10s, inside 2049's window: the allocator
        // must demote it and hand out the genuinely free 2050 instead.
        assert_eq!(db.acquire(job("ns/d"), t(10)).unwrap(), Vni(2050));
        db.check_index_consistency().unwrap();
        // A sweep at the earlier clock must not delete the unexpired row
        // or log a premature quarantine_expire.
        assert_eq!(db.sweep_expired(t(10)), 0);
        assert_eq!(db.stats(t(10)).quarantined, 1, "2049 is still quarantined at t=10");
        assert_eq!(
            db.acquire(job("ns/e"), t(10)).unwrap_err(),
            VniDbError::Exhausted,
            "nothing allocatable at t=10"
        );
        db.check_index_consistency().unwrap();
        // Once the clock genuinely passes the window, 2049 comes back.
        assert_eq!(db.acquire(job("ns/e"), t(30)).unwrap(), Vni(2049));
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn indexes_stay_consistent_through_a_lifecycle() {
        let mut db = db();
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        let claim = VniOwner::Claim { key: "ns/c".into() };
        let v = db.acquire(claim, t(0)).unwrap();
        db.check_index_consistency().unwrap();
        db.add_user(v, "ns/u", t(1)).unwrap();
        db.check_index_consistency().unwrap();
        assert!(db.release_claim("ns/c", t(2)).is_err());
        db.check_index_consistency().unwrap();
        db.remove_user(v, "ns/u", t(3)).unwrap();
        db.release_claim("ns/c", t(4)).unwrap();
        db.check_index_consistency().unwrap();
        db.sweep_expired(t(35));
        db.check_index_consistency().unwrap();
        assert_eq!(db.stats(t(35)), VniDbStats { allocated: 0, quarantined: 0, free: 6 });
    }
}
