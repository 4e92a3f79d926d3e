//! The sharded VNI control plane: N independent [`VniDb`] stores behind
//! one facade that preserves the single-store API, allocation order,
//! and audit semantics **exactly**.
//!
//! # Directory
//!
//! The configured VNI range is partitioned into N contiguous sub-ranges
//! (ascending by shard id) — a range-based directory, so `vni → shard`
//! is a lookup and cross-shard "rebalancing" needs no row movement:
//! when a shard's sub-range exhausts, allocation simply overflows to the
//! next shard holding the global minimum (see below). Tenants also get
//! a *home shard* by key hash; that only steers lookup probe order
//! (`find_by_claim` tries the home shard first), never placement, so it
//! cannot perturb determinism.
//!
//! # Why allocation is global-min, not hash-local
//!
//! A naive hash-by-tenant allocator would hand out each shard's local
//! minimum, so the *values* of allocated VNIs would depend on the shard
//! count — and every downstream report (the stress report, the audit
//! log) would differ between shard counts. Instead the
//! facade asks every shard for the VNI its `acquire` *would* hand out
//! (`VniDb::peek_min_allocatable`, an O(log n) index peek) and has the
//! shard owning the global minimum allocate exactly that VNI
//! (`VniDb::allocate`, without probing again) — the same VNI a single
//! store over the whole range would pick. Stress reports are therefore
//! **byte-identical at any shard count** (property-tested against a
//! single-store oracle in `tests/vni_sharded_oracle.rs`).
//!
//! # Global audit sequence
//!
//! Each shard persists audit rows under *global* sequence keys: the
//! facade owns the cursor and threads it through the owning shard
//! around every mutating operation, so the merged log
//! ([`ShardedVniDb::audit`], a k-way merge by key) is byte-identical to
//! the single-store log. [`ShardedVniDb::check_index_consistency`]
//! verifies every per-shard invariant plus global contiguity of the
//! sequence.
//!
//! # Group commit
//!
//! [`ShardedVniDb::group_begin`]/[`ShardedVniDb::group_flush`] put
//! every shard's store into group-commit mode: commits inside a window
//! apply immediately but share one batched WAL record and one fsync per
//! shard per flush (`shs_vnistore`'s `Batch` framing, all-or-nothing
//! under crashes).

use std::ops::Range;

use shs_des::{SimDur, SimTime};
use shs_fabric::Vni;
use shs_vnistore::SimDisk;

use crate::vni_db::{
    AuditEntry, VniDb, VniDbConfig, VniDbCounters, VniDbError, VniDbStats, VniOwner, VniRow,
};

/// Split a VNI range into `n` contiguous sub-ranges, ascending, sizes
/// balanced to within one.
fn partition(range: &Range<u16>, n: usize) -> Vec<Range<u16>> {
    let len = (range.end - range.start) as usize;
    let (base, rem) = (len / n, len % n);
    let mut out = Vec::with_capacity(n);
    let mut start = range.start;
    for i in 0..n {
        let end = start + (base + usize::from(i < rem)) as u16;
        out.push(start..end);
        start = end;
    }
    out
}

/// N independent VNI stores behind the single-store API. See the module
/// docs for the equivalence contract.
#[derive(Debug)]
pub struct ShardedVniDb {
    shards: Vec<VniDb>,
    /// Shard id → its contiguous VNI sub-range (the directory).
    ranges: Vec<Range<u16>>,
    config: VniDbConfig,
    /// The global audit cursor (shards persist keys from this sequence).
    next_audit_seq: u64,
    /// Logical transactions: one per successful facade-level operation,
    /// regardless of how many per-shard store commits it decomposed
    /// into. Equals the store commit count at one shard.
    logical_txns: u64,
    /// Facade-level sweep count (each logical sweep visits every shard).
    sweeps: u64,
    /// Facade-level exhaustion count (a shard is never asked to acquire
    /// from an empty global pool, so shard counters stay zero).
    exhaustions: u64,
}

impl ShardedVniDb {
    /// Fresh sharded database over `shards` stores (min 1).
    pub fn new(config: VniDbConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let ranges = partition(&config.range, n);
        let shards = ranges
            .iter()
            .map(|r| {
                VniDb::new(VniDbConfig { range: r.clone(), quarantine: config.quarantine })
            })
            .collect();
        ShardedVniDb {
            shards,
            ranges,
            config,
            next_audit_seq: 0,
            logical_txns: 0,
            sweeps: 0,
            exhaustions: 0,
        }
    }

    /// Recover from per-shard device images (same shard layout as the
    /// run that produced them: `disks.len()` shards over the same
    /// range). The global cursor resumes past the highest key on any
    /// shard.
    pub fn recover(disks: Vec<SimDisk>, config: VniDbConfig) -> Self {
        let n = disks.len().max(1);
        let ranges = partition(&config.range, n);
        let shards: Vec<VniDb> = disks
            .into_iter()
            .zip(ranges.iter())
            .map(|(disk, r)| {
                VniDb::recover(
                    disk,
                    VniDbConfig { range: r.clone(), quarantine: config.quarantine },
                )
            })
            .collect();
        let next_audit_seq = shards.iter().map(|s| s.audit_seq()).max().unwrap_or(0);
        ShardedVniDb {
            shards,
            ranges,
            config,
            next_audit_seq,
            logical_txns: 0,
            sweeps: 0,
            exhaustions: 0,
        }
    }

    /// Crash every shard's store (in shard-id order, sharing the rng),
    /// returning the surviving device images for [`ShardedVniDb::recover`].
    pub fn crash(self, rng: &mut shs_des::DetRng) -> Vec<SimDisk> {
        self.shards.into_iter().map(|s| s.into_store().crash(rng)).collect()
    }

    /// Cleanly stop every shard, returning synced device images.
    pub fn into_disks(self) -> Vec<SimDisk> {
        self.shards.into_iter().map(|s| s.into_store().shutdown()).collect()
    }

    /// The configured quarantine window.
    pub fn quarantine(&self) -> SimDur {
        self.config.quarantine
    }

    /// Directory lookup: the shard whose sub-range contains `vni`
    /// (clamped to the nearest end shard for out-of-range values, which
    /// preserves global ordering of merged views).
    fn shard_of(&self, vni: u16) -> usize {
        self.ranges
            .iter()
            .position(|r| r.contains(&vni))
            .unwrap_or(if vni < self.config.range.start { 0 } else { self.shards.len() - 1 })
    }

    /// The shard actually holding a row for `vni`: directory first, then
    /// a fallback probe (a recovered image may hold rows outside the
    /// current range on any shard).
    fn shard_holding(&self, vni: u16) -> Option<usize> {
        let dir = self.shard_of(vni);
        if self.shards[dir].has_row(vni) {
            return Some(dir);
        }
        (0..self.shards.len()).find(|&i| i != dir && self.shards[i].has_row(vni))
    }

    /// Deterministic home shard for a tenant key (FNV-1a) — lookup probe
    /// order only, never placement.
    fn home_shard(&self, key: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    // ---- Group commit ----------------------------------------------------

    /// Enter group-commit mode on every shard's store.
    pub fn group_begin(&mut self) {
        for s in &mut self.shards {
            s.group_begin();
        }
    }

    /// Flush every shard's open batch: one batched WAL record + one
    /// fsync per shard with pending commits.
    pub fn group_flush(&mut self) {
        for s in &mut self.shards {
            s.group_flush();
        }
    }

    /// Flush and leave group-commit mode on every shard.
    pub fn group_end(&mut self) {
        for s in &mut self.shards {
            s.group_end();
        }
    }

    // ---- Mutating operations (global-min + threaded audit cursor) -------

    /// Acquire the globally minimal allocatable VNI for `owner` — the
    /// same VNI a single store over the whole range would hand out.
    pub fn acquire(&mut self, owner: VniOwner, now: SimTime) -> Result<Vni, VniDbError> {
        // Idempotency first, like the single store: a re-acquiring owner
        // gets its VNI back without touching promotion watermarks.
        if let Some(vni) = self.owner_vni(&owner) {
            return Ok(vni);
        }
        // Probe every shard (promoting expired quarantines at `now`,
        // exactly as one store would across the whole range) and route
        // to the global minimum.
        let mut best: Option<(u16, usize)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(v) = s.peek_min_allocatable(now) {
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, i));
                }
            }
        }
        let Some((vni, si)) = best else {
            self.exhaustions += 1;
            return Err(VniDbError::Exhausted);
        };
        // The winner allocates what it was probed for: the owner lookup,
        // the promotion and the min probe above are not run twice.
        self.on_shard(si, |shard| Ok(shard.allocate(owner, vni, now)))
    }

    /// Run one mutating operation on shard `si` under the global audit
    /// cursor, counting it as a logical transaction if it succeeds.
    fn on_shard<T>(
        &mut self,
        si: usize,
        op: impl FnOnce(&mut VniDb) -> Result<T, VniDbError>,
    ) -> Result<T, VniDbError> {
        let shard = &mut self.shards[si];
        shard.set_audit_seq(self.next_audit_seq);
        let out = op(shard);
        self.next_audit_seq = shard.audit_seq();
        if out.is_ok() {
            self.logical_txns += 1;
        }
        out
    }

    /// Release a VNI into quarantine on its owning shard: the directory
    /// shard's own lookup decides, and the other shards are probed only
    /// when it holds no row for `vni` at all.
    pub fn release(&mut self, vni: Vni, now: SimTime) -> Result<(), VniDbError> {
        let dir = self.shard_of(vni.raw());
        let out = self.on_shard(dir, |shard| shard.release(vni, now));
        if out.is_err() {
            if let Some(si) = self.shard_holding(vni.raw()).filter(|&si| si != dir) {
                return self.on_shard(si, |shard| shard.release(vni, now));
            }
        }
        out
    }

    /// Add a user to a claim-owned VNI.
    pub fn add_user(&mut self, vni: Vni, user: &str, now: SimTime) -> Result<(), VniDbError> {
        let Some(si) = self.shard_holding(vni.raw()) else {
            return Err(VniDbError::NotFound);
        };
        self.on_shard(si, |shard| shard.add_user(vni, user, now))
    }

    /// Remove a user; returns how many remain.
    pub fn remove_user(
        &mut self,
        vni: Vni,
        user: &str,
        now: SimTime,
    ) -> Result<usize, VniDbError> {
        let Some(si) = self.shard_holding(vni.raw()) else {
            return Err(VniDbError::NotFound);
        };
        self.on_shard(si, |shard| shard.remove_user(vni, user, now))
    }

    /// Release a claim-owned VNI, refusing while users remain.
    pub fn release_claim(&mut self, claim_key: &str, now: SimTime) -> Result<(), VniDbError> {
        let Some(row) = self.find_by_claim(claim_key) else {
            return Err(VniDbError::NotFound);
        };
        if !row.users.is_empty() {
            return Err(VniDbError::ClaimInUse);
        }
        self.release(Vni(row.vni), now)
    }

    /// Sweep expired quarantines on every shard, in shard-id order
    /// (= ascending VNI sub-ranges, so the appended `quarantine_expire`
    /// audit entries land in the same globally ascending VNI order the
    /// single store writes). One logical transaction if anything was
    /// swept.
    pub fn sweep_expired(&mut self, now: SimTime) -> usize {
        self.sweeps += 1;
        let mut total = 0usize;
        for s in &mut self.shards {
            s.set_audit_seq(self.next_audit_seq);
            total += s.sweep_expired(now);
            self.next_audit_seq = s.audit_seq();
        }
        if total > 0 {
            self.logical_txns += 1;
        }
        total
    }

    // ---- Reads (merged in shard-id order) --------------------------------

    /// Look up a row.
    pub fn row(&self, vni: Vni) -> Option<VniRow> {
        self.shard_holding(vni.raw()).and_then(|si| self.shards[si].row(vni))
    }

    /// All rows in ascending VNI order, merged across shards.
    pub fn rows(&self) -> Vec<VniRow> {
        let mut rows: Vec<VniRow> =
            self.shards.iter().flat_map(|s| s.rows()).collect();
        rows.sort_by_key(|r| r.vni);
        rows
    }

    /// The VNI `owner` holds, from the shards' owner indexes alone — a
    /// presence probe that reads no row.
    pub(crate) fn owner_vni(&self, owner: &VniOwner) -> Option<Vni> {
        self.shards.iter().find_map(|s| s.owner_vni(owner)).map(Vni)
    }

    /// Find the VNI allocated to a claim by claim key (`ns/name`).
    pub fn find_by_claim(&self, claim_key: &str) -> Option<VniRow> {
        let home = self.home_shard(claim_key);
        self.shards[home].find_by_claim(claim_key).or_else(|| {
            self.shards
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != home)
                .find_map(|(_, s)| s.find_by_claim(claim_key))
        })
    }

    /// Global audit log: a k-way merge of shard logs by their global
    /// sequence keys — byte-identical to the single-store log.
    pub fn audit(&self) -> Vec<AuditEntry> {
        let mut entries: Vec<(u64, AuditEntry)> =
            self.shards.iter().flat_map(|s| s.audit_with_seq()).collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, e)| e).collect()
    }

    /// Total audit-log length across shards.
    pub fn audit_len(&self) -> usize {
        self.shards.iter().map(|s| s.audit_len()).sum()
    }

    /// Count of currently allocated VNIs.
    pub fn allocated_count(&self) -> usize {
        self.shards.iter().map(|s| s.allocated_count()).sum()
    }

    /// Consistent occupancy split at `now` (sweeps first, like the
    /// single store).
    pub fn stats(&mut self, now: SimTime) -> VniDbStats {
        self.sweep_expired(now);
        VniDbStats {
            allocated: self.allocated_count(),
            quarantined: self.shards.iter().map(|s| s.quarantined_count()).sum(),
            free: self.shards.iter().map(|s| s.free_count()).sum(),
        }
    }

    /// Allocator counters summed across shards. `sweeps` and
    /// `exhaustions` are facade-level: a logical sweep visits every
    /// shard (summing would multiply it by N) and a shard is never
    /// asked to acquire from an exhausted global pool (summing would
    /// always read zero).
    pub fn counters(&self) -> VniDbCounters {
        let mut sum = VniDbCounters::default();
        for s in &self.shards {
            let c = s.counters();
            sum.acquires += c.acquires;
            sum.fresh_allocs += c.fresh_allocs;
            sum.reuse_allocs += c.reuse_allocs;
            sum.releases += c.releases;
            sum.user_adds += c.user_adds;
            sum.user_removes += c.user_removes;
            sum.swept_rows += c.swept_rows;
            sum.expiry_promotions += c.expiry_promotions;
        }
        sum.sweeps = self.sweeps;
        sum.exhaustions = self.exhaustions;
        sum
    }

    /// Logical transactions: one per successful facade operation (a
    /// sweep counts once however many shards it touched). Equals the
    /// physical store commit count at one shard, which keeps scenario
    /// reports byte-identical across shard counts.
    pub fn txn_count(&self) -> u64 {
        self.logical_txns
    }

    /// JSON view of the merged state (rows, audit log, counters).
    pub fn export_diagnostics(&self) -> serde_json::Value {
        serde_json::json!({
            "rows": self.rows(),
            "audit": self.audit(),
            "counters": self.counters(),
            "shards": self.shards.len(),
        })
    }

    /// Verify every shard's index invariants, then the global audit
    /// contract: the union of shard keys must be exactly the contiguous
    /// sequence `0..next_audit_seq` — no gaps, no duplicates, cursor in
    /// agreement.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.check_index_consistency().map_err(|e| format!("shard {i}: {e}"))?;
        }
        let keys = self.audit_len() as u64;
        if keys != self.next_audit_seq {
            return Err(format!(
                "global audit cursor diverged: {keys} keys, cursor {}",
                self.next_audit_seq
            ));
        }
        // Merge the shards' ascending key streams against the expected
        // sequence: each `want` must be some shard's next key. With as
        // many keys as sequence numbers, finding every number also rules
        // out duplicates.
        let mut heads: Vec<_> = self.shards.iter().map(|s| s.audit_keys().peekable()).collect();
        for want in 0..self.next_audit_seq {
            match heads.iter_mut().position(|h| h.peek() == Some(&want)) {
                Some(shard) => heads[shard].next(),
                None => return Err(format!("audit sequence gap: no shard holds key {want}")),
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vni_db::VniState;

    fn cfg(range: Range<u16>) -> VniDbConfig {
        VniDbConfig { range, quarantine: SimDur::from_secs(30) }
    }

    fn job(key: &str) -> VniOwner {
        VniOwner::Job { key: key.to_string() }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn partition_is_contiguous_ascending_and_balanced() {
        let parts = partition(&(1024..1031), 3);
        assert_eq!(parts, vec![1024..1027, 1027..1029, 1029..1031]);
        let parts = partition(&(10..12), 4);
        assert_eq!(parts, vec![10..11, 11..12, 12..12, 12..12]);
    }

    #[test]
    fn allocation_order_matches_single_store_across_shard_counts() {
        let mut single = VniDb::new(cfg(1024..1040));
        let mut got_single = Vec::new();
        for i in 0..16 {
            got_single.push(single.acquire(job(&format!("ns/j{i}")), t(0)).unwrap());
        }
        for shards in [1usize, 2, 3, 4] {
            let mut db = ShardedVniDb::new(cfg(1024..1040), shards);
            let got: Vec<Vni> = (0..16)
                .map(|i| db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap())
                .collect();
            assert_eq!(got, got_single, "shards={shards}");
            db.check_index_consistency().unwrap();
        }
    }

    #[test]
    fn acquire_overflows_to_the_next_shard_on_local_exhaustion() {
        // Shard 0 owns 1024..1026; once both are allocated the global
        // minimum comes from shard 1 without any error surfacing.
        let mut db = ShardedVniDb::new(cfg(1024..1028), 2);
        for i in 0..4 {
            let v = db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
            assert_eq!(v, Vni(1024 + i));
        }
        assert_eq!(db.acquire(job("ns/late"), t(0)).unwrap_err(), VniDbError::Exhausted);
        assert_eq!(db.counters().exhaustions, 1);
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn audit_log_merges_to_global_sequence_order() {
        let mut db = ShardedVniDb::new(cfg(1024..1028), 2);
        let a = db.acquire(job("ns/a"), t(0)).unwrap(); // shard 0
        let b = db.acquire(job("ns/b"), t(1)).unwrap();
        let c = db.acquire(job("ns/c"), t(2)).unwrap(); // lands on shard 1
        assert_eq!((a, b, c), (Vni(1024), Vni(1025), Vni(1026)));
        db.release(a, t(3)).unwrap();
        db.release(c, t(4)).unwrap();
        let events: Vec<(String, u16)> =
            db.audit().into_iter().map(|e| (e.event, e.vni)).collect();
        assert_eq!(
            events,
            vec![
                ("acquire".to_string(), 1024),
                ("acquire".to_string(), 1025),
                ("acquire".to_string(), 1026),
                ("release".to_string(), 1024),
                ("release".to_string(), 1026),
            ],
            "interleaved cross-shard ops stay in global order"
        );
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn sweep_appends_expire_entries_in_ascending_vni_order() {
        let mut db = ShardedVniDb::new(cfg(1024..1032), 4);
        for i in 0..6 {
            db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
        }
        // Release in a scrambled order; the sweep must still log
        // ascending VNIs (shard-id order = ascending sub-ranges).
        for vni in [1029u16, 1024, 1027, 1025] {
            db.release(Vni(vni), t(1)).unwrap();
        }
        assert_eq!(db.sweep_expired(t(40)), 4);
        let tail: Vec<u16> = db
            .audit()
            .into_iter()
            .filter(|e| e.event == "quarantine_expire")
            .map(|e| e.vni)
            .collect();
        assert_eq!(tail, vec![1024, 1025, 1027, 1029]);
        assert_eq!(db.counters().sweeps, 1, "one logical sweep");
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn logical_txn_count_is_shard_count_invariant() {
        let mut counts = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut db = ShardedVniDb::new(cfg(1024..1040), shards);
            for i in 0..8 {
                db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
            }
            for vni in 1024..1028 {
                db.release(Vni(vni), t(1)).unwrap();
            }
            db.sweep_expired(t(40));
            counts.push(db.txn_count());
            if shards == 1 {
                assert_eq!(
                    db.txn_count(),
                    db.shards.iter().map(|s| s.txn_count()).sum::<u64>(),
                    "logical == physical at one shard"
                );
            }
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn crash_recover_preserves_state_and_global_cursor() {
        let mut db = ShardedVniDb::new(cfg(1024..1032), 4);
        for i in 0..6 {
            db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
        }
        db.release(Vni(1025), t(1)).unwrap();
        let audit_before = db.audit();
        let rows_before = db.rows();
        let mut rng = shs_des::DetRng::new(7);
        let disks = db.crash(&mut rng);
        let mut db2 = ShardedVniDb::recover(disks, cfg(1024..1032));
        assert_eq!(db2.rows(), rows_before);
        assert_eq!(db2.audit(), audit_before);
        db2.check_index_consistency().unwrap();
        // The resumed cursor continues the global sequence without gaps.
        db2.acquire(job("ns/after"), t(2)).unwrap();
        db2.check_index_consistency().unwrap();
    }

    #[test]
    fn release_finds_a_row_outside_its_directory_shard() {
        // Allocate 1024..=1028 over two 4-wide shards (1028 lands on
        // shard 1), then recover over a wider range: the directory now
        // maps 1028 to shard 0, but its row is still on shard 1.
        let mut db = ShardedVniDb::new(cfg(1024..1032), 2);
        for i in 0..5 {
            db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
        }
        let mut db = ShardedVniDb::recover(db.into_disks(), cfg(1024..1040));
        assert_eq!(db.shard_of(1028), 0);
        assert_eq!(db.shard_holding(1028), Some(1));
        db.release(Vni(1028), t(1)).unwrap();
        let released = VniState::Quarantined { released_at_ns: t(1).as_nanos() };
        assert_eq!(db.row(Vni(1028)).unwrap().state, released);
        // Quarantined on shard 1 now: a second release is refused there,
        // and a VNI no shard holds is refused outright.
        assert_eq!(db.release(Vni(1028), t(2)).unwrap_err(), VniDbError::NotFound);
        assert_eq!(db.release(Vni(1039), t(2)).unwrap_err(), VniDbError::NotFound);
        // A quarantined row on the directory shard is refused without
        // consulting the others.
        db.release(Vni(1024), t(3)).unwrap();
        assert_eq!(db.release(Vni(1024), t(3)).unwrap_err(), VniDbError::NotFound);
        assert_eq!(db.txn_count(), 2, "only the two successful releases count");
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn claim_lifecycle_works_across_the_facade() {
        let mut db = ShardedVniDb::new(cfg(1024..1032), 2);
        let claim = VniOwner::Claim { key: "ns/shared".into() };
        let v = db.acquire(claim, t(0)).unwrap();
        db.add_user(v, "ns/job1", t(0)).unwrap();
        assert_eq!(
            db.release_claim("ns/shared", t(1)).unwrap_err(),
            VniDbError::ClaimInUse
        );
        assert_eq!(db.remove_user(v, "ns/job1", t(1)).unwrap(), 0);
        db.release_claim("ns/shared", t(2)).unwrap();
        assert_eq!(db.allocated_count(), 0);
        assert_eq!(db.find_by_claim("ns/shared"), None);
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn group_commit_spans_every_shard() {
        let mut db = ShardedVniDb::new(cfg(1024..1040), 4);
        db.group_begin();
        for i in 0..12 {
            db.acquire(job(&format!("ns/j{i}")), t(0)).unwrap();
        }
        db.group_flush();
        db.group_end();
        // Crash after the flush: every batched acquire survives.
        let mut rng = shs_des::DetRng::new(3);
        let db2 = ShardedVniDb::recover(db.crash(&mut rng), cfg(1024..1040));
        assert_eq!(db2.allocated_count(), 12);
        db2.check_index_consistency().unwrap();
    }
}
