//! Control-plane **stress** scenarios: tenants churning directly through
//! a sharded VNI database under group commit, without the cluster around
//! it. Independent of the spec/engine/report modules — it shares only
//! the `scenario-run` front end with them.

use serde::Serialize;
use shs_des::DetRng;

use crate::sharded_db::ShardedVniDb;
use crate::vni_db::VniDbConfig;
use crate::workloads::VniStressWorkload;

/// A control-plane stress scenario: tenants churning directly through a
/// sharded VNI database under group commit, without the cluster around
/// it — the scale test for the million-tenant control plane
/// (`shs-harness scenario-run` reports these under `control_reports`).
#[derive(Debug, Clone)]
pub struct VniStressScenario {
    /// Scenario name (`vni-stress-10k`, `vni-stress-1m`).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Crash-recovery seed.
    pub seed: u64,
    /// Distinct tenant identities cycled through the run.
    pub tenants: u64,
    /// Control-plane transactions to execute.
    pub ops: u64,
    /// Store shards (overridable by `scenario-run --shards`).
    pub shards: usize,
}

/// Deterministic end-state report of a [`VniStressScenario`]. Every
/// field is shard-count-invariant, so for one seed the report bytes are
/// identical at any `--shards` value — the facade's equivalence
/// contract, asserted by `tests/report_identity.rs`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VniStressReport {
    /// Scenario name.
    pub scenario: String,
    /// Human description.
    pub description: String,
    /// Crash-recovery seed.
    pub seed: u64,
    /// Tenant identities cycled.
    pub tenants: u64,
    /// Steps executed.
    pub ops: u64,
    /// Successful acquisitions.
    pub acquires: u64,
    /// Acquisitions satisfied by recycling an expired quarantine row.
    pub reuse_allocs: u64,
    /// Releases into quarantine.
    pub releases: u64,
    /// Acquire attempts refused on an exhausted range.
    pub exhaustions: u64,
    /// Audit-log entries persisted.
    pub audit_len: u64,
    /// Logical control-plane transactions.
    pub txns: u64,
    /// Allocated rows at the end of the run.
    pub allocated_at_end: u64,
    /// Quarantined rows at the end of the run.
    pub quarantined_at_end: u64,
    /// Simulated horizon in milliseconds.
    pub horizon_ms: u64,
    /// Index invariants held at the end of the run.
    pub consistent: bool,
    /// A crash + recovery reproduced rows, audit length, and passed the
    /// consistency check.
    pub recovered: bool,
    /// All checks passed.
    pub passed: bool,
}

/// Execute a control-plane stress scenario (see [`VniStressWorkload`]
/// for the step semantics): run the churn, audit the end state, then
/// crash every shard and verify recovery reproduces it.
pub fn run_vni_stress(scenario: &VniStressScenario) -> VniStressReport {
    let mut w = VniStressWorkload::new(scenario.shards, scenario.tenants);
    for _ in 0..scenario.ops {
        w.step();
    }
    let (mut db, now, ops, _) = w.finish();
    let consistent = db.check_index_consistency().is_ok();
    let stats = db.stats(now);
    let c = db.counters();
    let rows = db.rows();
    let audit_len = db.audit_len() as u64;
    let txns = db.txn_count();

    // Crash-recovery audit: after the final group flush, a crash at any
    // shard must lose nothing.
    let config = VniDbConfig { range: VniStressWorkload::RANGE, quarantine: db.quarantine() };
    let mut rng = DetRng::new(scenario.seed);
    let recovered_db = ShardedVniDb::recover(db.crash(&mut rng), config);
    let recovered = recovered_db.rows() == rows
        && recovered_db.audit_len() as u64 == audit_len
        && recovered_db.check_index_consistency().is_ok();

    VniStressReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        seed: scenario.seed,
        tenants: scenario.tenants,
        ops,
        acquires: c.acquires,
        reuse_allocs: c.reuse_allocs,
        releases: c.releases,
        exhaustions: c.exhaustions,
        audit_len,
        txns,
        allocated_at_end: stats.allocated as u64,
        quarantined_at_end: stats.quarantined as u64,
        horizon_ms: now.as_nanos() / 1_000_000,
        consistent,
        recovered,
        passed: consistent && recovered,
    }
}

/// The control-plane stress library executed by `scenario-run` (smoke
/// scale; the million-tenant configuration is reachable by name).
pub fn stress_library(seed: u64) -> Vec<VniStressScenario> {
    vec![vni_stress(seed, "vni-stress-10k", 10_000, 100_000)]
}

/// Look up a stress scenario by name, including the full-scale
/// `vni-stress-1m` (1M tenants, 10M transactions) which is too heavy
/// for the default suite.
pub fn stress_by_name(name: &str, seed: u64) -> Option<VniStressScenario> {
    if name == "vni-stress-1m" {
        return Some(vni_stress(seed, "vni-stress-1m", 1_000_000, 10_000_000));
    }
    stress_library(seed).into_iter().find(|s| s.name == name)
}

fn vni_stress(seed: u64, name: &str, tenants: u64, ops: u64) -> VniStressScenario {
    VniStressScenario {
        name: name.into(),
        description: format!(
            "{tenants} tenants churning {ops} control-plane transactions through the \
             sharded VNI database under WAL group commit, with a crash-recovery audit"
        ),
        seed,
        tenants,
        ops,
        shards: 1,
    }
}
