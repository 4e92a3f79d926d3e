//! The VNI Endpoint (§III-C2): webhook backend of the VNI Controller.
//!
//! Implements Metacontroller's apply-semantics hooks for the two parent
//! kinds the paper watches:
//!
//! * **Jobs** annotated `vni: true` (Per-Resource model) get an owning
//!   VNI CRD child; jobs annotated `vni: <claim-name>` redeeming a claim
//!   get a *virtual* (non-owning) VNI child and are registered as users
//!   of the claim's VNI.
//! * **VniClaims** own a VNI for their lifetime; deletion stalls until
//!   the user list is empty.
//!
//! All state transitions go through single
//! [`VniDb`](crate::vni_db::VniDb) transactions, so concurrent
//! controller events cannot double-allocate.

use std::cell::RefCell;
use std::rc::Rc;

use shs_des::SimTime;
use shs_fabric::Vni;
use shs_k8s::{
    ApiObject, DecoratorHooks, FinalizeResponse, Spec, SyncResponse, VniCrdSpec, VNI_ANNOTATION,
};

use crate::vni_db::{VniDb, VniDbError, VniOwner};

/// Endpoint counters (observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointCounters {
    /// Successful VNI acquisitions.
    pub acquisitions: u64,
    /// VNI releases.
    pub releases: u64,
    /// Claim redemptions (user additions).
    pub redemptions: u64,
    /// Sync calls that found no claim with the requested name.
    pub missing_claims: u64,
    /// Acquisitions refused because the range was exhausted.
    pub exhaustions: u64,
    /// Claim deletions deferred because users remained.
    pub stalled_claim_deletes: u64,
}

/// The endpoint: VNI database + webhook logic.
#[derive(Debug)]
pub struct VniEndpoint {
    /// The ACID-backed VNI database.
    pub db: VniDb,
    /// Counters.
    pub counters: EndpointCounters,
}

impl VniEndpoint {
    /// Build an endpoint over a database.
    pub fn new(db: VniDb) -> Self {
        VniEndpoint { db, counters: EndpointCounters::default() }
    }

    /// Child object name for a job's VNI CRD instance.
    pub(crate) fn child_name_for_job(job: &str) -> String {
        format!("vni-{job}")
    }

    /// Child object name for a claim's VNI CRD instance.
    pub(crate) fn child_name_for_claim(claim: &str) -> String {
        format!("vni-claim-{claim}")
    }

    fn job_key(parent: &ApiObject) -> String {
        format!("{}/{}", parent.meta.namespace, parent.meta.name)
    }

    /// `/sync` for an annotated job.
    fn sync_job(&mut self, parent: &ApiObject, now: SimTime) -> SyncResponse {
        let ann = parent.annotation(VNI_ANNOTATION).unwrap_or_default().to_string();
        let ns = parent.meta.namespace.clone();
        let job_key = Self::job_key(parent);
        if ann == "true" {
            // Per-Resource model: the job owns a fresh VNI. Re-syncs of
            // an already-decorated job are idempotent and not counted.
            let owner = VniOwner::Job { key: job_key };
            let fresh = self.db.owner_vni(&owner).is_none();
            match self.db.acquire(owner, now) {
                Ok(vni) => {
                    if fresh {
                        self.counters.acquisitions += 1;
                    }
                    SyncResponse {
                        desired_children: vec![make_vni_child(
                            &ns,
                            &Self::child_name_for_job(&parent.meta.name),
                            VniCrdSpec { vni: vni.raw(), r#virtual: false, claim: None },
                        )],
                    }
                }
                Err(VniDbError::Exhausted) => {
                    self.counters.exhaustions += 1;
                    SyncResponse::default()
                }
                Err(_) => SyncResponse::default(),
            }
        } else {
            // Claim redemption: attach as user, decorate with a virtual
            // (non-owning) VNI instance.
            let claim_key = format!("{ns}/{ann}");
            match self.db.find_by_claim(&claim_key) {
                Some(row) => {
                    let vni = Vni(row.vni);
                    // Re-syncs of an already-attached user are idempotent
                    // and not counted (mirrors the dedicated path).
                    let fresh = !row.users.iter().any(|u| u == &job_key);
                    if self.db.add_user(vni, &job_key, now).is_ok() && fresh {
                        self.counters.redemptions += 1;
                    }
                    SyncResponse {
                        desired_children: vec![make_vni_child(
                            &ns,
                            &Self::child_name_for_job(&parent.meta.name),
                            VniCrdSpec {
                                vni: row.vni,
                                r#virtual: true,
                                claim: Some(ann.clone()),
                            },
                        )],
                    }
                }
                None => {
                    // "Jobs will fail to launch if no VNI claim with the
                    // annotated name has been found" — no child, so the
                    // CNI plugin refuses the pod.
                    self.counters.missing_claims += 1;
                    SyncResponse::default()
                }
            }
        }
    }

    /// `/finalize` for a job being deleted.
    fn finalize_job(&mut self, parent: &ApiObject, now: SimTime) -> FinalizeResponse {
        let ann = parent.annotation(VNI_ANNOTATION).unwrap_or_default().to_string();
        let job_key = Self::job_key(parent);
        if ann == "true" {
            if let Some(vni) = self.db.owner_vni(&VniOwner::Job { key: job_key }) {
                if self.db.release(Vni(vni), now).is_ok() {
                    self.counters.releases += 1;
                }
            }
        } else {
            let claim_key = format!("{}/{ann}", parent.meta.namespace);
            if let Some(row) = self.db.find_by_claim(&claim_key) {
                let _ = self.db.remove_user(Vni(row.vni), &job_key, now);
            }
        }
        FinalizeResponse { desired_children: vec![], finalized: true }
    }

    /// `/sync` for a VNI Claim.
    fn sync_claim(&mut self, parent: &ApiObject, now: SimTime) -> SyncResponse {
        let claim_key = Self::job_key(parent); // same ns/name shape
        let owner = VniOwner::Claim { key: claim_key };
        let fresh = self.db.owner_vni(&owner).is_none();
        match self.db.acquire(owner, now) {
            Ok(vni) => {
                if fresh {
                    self.counters.acquisitions += 1;
                }
                SyncResponse {
                    desired_children: vec![make_vni_child(
                        &parent.meta.namespace,
                        &Self::child_name_for_claim(&parent.meta.name),
                        VniCrdSpec {
                            vni: vni.raw(),
                            r#virtual: false,
                            claim: Some(parent.meta.name.to_string()),
                        },
                    )],
                }
            }
            Err(_) => {
                self.counters.exhaustions += 1;
                SyncResponse::default()
            }
        }
    }

    /// `/finalize` for a VNI Claim being deleted: stalls while jobs are
    /// still attached (keeps the child so redeeming pods keep working).
    fn finalize_claim(&mut self, parent: &ApiObject, now: SimTime) -> FinalizeResponse {
        let claim_key = Self::job_key(parent);
        match self.db.release_claim(&claim_key, now) {
            Ok(()) => {
                self.counters.releases += 1;
                FinalizeResponse { desired_children: vec![], finalized: true }
            }
            Err(VniDbError::ClaimInUse) => {
                self.counters.stalled_claim_deletes += 1;
                // Keep the existing child; do not finalize yet.
                let child = self.db.find_by_claim(&claim_key).map(|row| {
                    make_vni_child(
                        &parent.meta.namespace,
                        &Self::child_name_for_claim(&parent.meta.name),
                        VniCrdSpec {
                            vni: row.vni,
                            r#virtual: false,
                            claim: Some(parent.meta.name.to_string()),
                        },
                    )
                });
                FinalizeResponse {
                    desired_children: child.into_iter().collect(),
                    finalized: false,
                }
            }
            Err(_) => FinalizeResponse { desired_children: vec![], finalized: true },
        }
    }
}

fn make_vni_child(ns: &str, name: &str, spec: VniCrdSpec) -> ApiObject {
    ApiObject::from_spec(ns, name, Spec::Vni(spec))
}

/// Which parent kind a controller instance serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointRole {
    /// Decorating Jobs.
    Jobs,
    /// Decorating VniClaims.
    Claims,
}

/// Shared handle so the two decorator controllers (jobs, claims) talk to
/// the same endpoint + database, like the paper's single VNI Endpoint
/// pod.
#[derive(Debug, Clone)]
pub struct EndpointHandle {
    /// Shared endpoint.
    pub endpoint: Rc<RefCell<VniEndpoint>>,
    /// Which hook set this handle serves.
    pub role: EndpointRole,
}

impl DecoratorHooks for EndpointHandle {
    fn sync(
        &mut self,
        parent: &ApiObject,
        _children: &[Rc<ApiObject>],
        now: SimTime,
    ) -> SyncResponse {
        let mut ep = self.endpoint.borrow_mut();
        match self.role {
            EndpointRole::Jobs => ep.sync_job(parent, now),
            EndpointRole::Claims => ep.sync_claim(parent, now),
        }
    }

    fn finalize(
        &mut self,
        parent: &ApiObject,
        _children: &[Rc<ApiObject>],
        now: SimTime,
    ) -> FinalizeResponse {
        let mut ep = self.endpoint.borrow_mut();
        match self.role {
            EndpointRole::Jobs => ep.finalize_job(parent, now),
            EndpointRole::Claims => ep.finalize_claim(parent, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vni_db::VniDbConfig;
    use serde_json::json;
    use shs_k8s::kinds;

    fn endpoint() -> VniEndpoint {
        VniEndpoint::new(VniDb::new(VniDbConfig::default()))
    }

    fn job(ns: &str, name: &str, ann: &str) -> ApiObject {
        let spec = json!({"parallelism": 1, "template": {"image": "alpine"}});
        let mut j = ApiObject::new(kinds::JOB, ns, name, spec);
        j.meta.annotations.insert(VNI_ANNOTATION.into(), ann.into());
        j
    }

    fn claim(ns: &str, name: &str) -> ApiObject {
        ApiObject::new(kinds::VNI_CLAIM, ns, name, json!({"name": name}))
    }

    #[test]
    fn per_resource_job_gets_owning_child() {
        let mut ep = endpoint();
        let resp = ep.sync_job(&job("t", "j1", "true"), SimTime::ZERO);
        assert_eq!(resp.desired_children.len(), 1);
        let child = &resp.desired_children[0];
        assert_eq!(&*child.meta.name, "vni-j1");
        let spec = child.vni_spec().clone();
        assert!(!spec.r#virtual);
        assert_eq!(ep.counters.acquisitions, 1);
        // Re-sync is idempotent (same VNI).
        let resp2 = ep.sync_job(&job("t", "j1", "true"), SimTime::ZERO);
        let spec2 = resp2.desired_children[0].vni_spec().clone();
        assert_eq!(spec.vni, spec2.vni);
        assert_eq!(ep.db.allocated_count(), 1);
    }

    #[test]
    fn distinct_jobs_get_distinct_vnis() {
        let mut ep = endpoint();
        let r1 = ep.sync_job(&job("t", "j1", "true"), SimTime::ZERO);
        let r2 = ep.sync_job(&job("t", "j2", "true"), SimTime::ZERO);
        let s1 = r1.desired_children[0].vni_spec().clone();
        let s2 = r2.desired_children[0].vni_spec().clone();
        assert_ne!(s1.vni, s2.vni, "per-tenant isolation");
    }

    #[test]
    fn job_finalize_releases_the_vni() {
        let mut ep = endpoint();
        ep.sync_job(&job("t", "j1", "true"), SimTime::ZERO);
        let resp = ep.finalize_job(&job("t", "j1", "true"), SimTime::ZERO);
        assert!(resp.finalized);
        assert_eq!(ep.db.allocated_count(), 0);
        assert_eq!(ep.counters.releases, 1);
        // Double finalize is harmless.
        assert!(ep.finalize_job(&job("t", "j1", "true"), SimTime::ZERO).finalized);
    }

    #[test]
    fn claim_sync_then_job_redemption() {
        let mut ep = endpoint();
        let cr = ep.sync_claim(&claim("t", "shared"), SimTime::ZERO);
        let cs = cr.desired_children[0].vni_spec().clone();
        // Two jobs redeem the claim by name.
        let r1 = ep.sync_job(&job("t", "j1", "shared"), SimTime::ZERO);
        let r2 = ep.sync_job(&job("t", "j2", "shared"), SimTime::ZERO);
        let s1 = r1.desired_children[0].vni_spec().clone();
        let s2 = r2.desired_children[0].vni_spec().clone();
        assert_eq!(s1.vni, cs.vni, "redeemers share the claim's VNI");
        assert_eq!(s2.vni, cs.vni);
        assert!(s1.r#virtual && s2.r#virtual, "virtual non-owning instances");
        assert_eq!(ep.counters.redemptions, 2);
        assert_eq!(ep.db.allocated_count(), 1, "one VNI for the whole claim");
    }

    #[test]
    fn missing_claim_yields_no_child() {
        let mut ep = endpoint();
        let r = ep.sync_job(&job("t", "j1", "nonexistent"), SimTime::ZERO);
        assert!(r.desired_children.is_empty());
        assert_eq!(ep.counters.missing_claims, 1);
    }

    #[test]
    fn claims_are_namespaced() {
        let mut ep = endpoint();
        ep.sync_claim(&claim("tenant-a", "shared"), SimTime::ZERO);
        // A job in a different namespace cannot redeem it.
        let r = ep.sync_job(&job("tenant-b", "j1", "shared"), SimTime::ZERO);
        assert!(r.desired_children.is_empty());
    }

    #[test]
    fn claim_deletion_stalls_until_users_leave() {
        let mut ep = endpoint();
        ep.sync_claim(&claim("t", "shared"), SimTime::ZERO);
        ep.sync_job(&job("t", "j1", "shared"), SimTime::ZERO);
        let f1 = ep.finalize_claim(&claim("t", "shared"), SimTime::ZERO);
        assert!(!f1.finalized, "user still attached");
        assert_eq!(f1.desired_children.len(), 1, "child kept while stalled");
        assert_eq!(ep.counters.stalled_claim_deletes, 1);
        // Job goes away, then the claim may finalize.
        ep.finalize_job(&job("t", "j1", "shared"), SimTime::ZERO);
        let f2 = ep.finalize_claim(&claim("t", "shared"), SimTime::ZERO);
        assert!(f2.finalized);
        assert_eq!(ep.db.allocated_count(), 0);
    }

    #[test]
    fn exhaustion_yields_no_child() {
        let cfg = VniDbConfig { range: 2000..2001, quarantine: shs_des::SimDur::from_secs(30) };
        let mut ep = VniEndpoint::new(VniDb::new(cfg));
        ep.sync_job(&job("t", "j1", "true"), SimTime::ZERO);
        let r = ep.sync_job(&job("t", "j2", "true"), SimTime::ZERO);
        assert!(r.desired_children.is_empty());
        assert_eq!(ep.counters.exhaustions, 1);
    }

    #[test]
    fn handle_routes_by_role() {
        let ep = Rc::new(RefCell::new(endpoint()));
        let mut jobs = EndpointHandle { endpoint: Rc::clone(&ep), role: EndpointRole::Jobs };
        let mut claims = EndpointHandle { endpoint: Rc::clone(&ep), role: EndpointRole::Claims };
        let c = claims.sync(&claim("t", "x"), &[], SimTime::ZERO);
        assert_eq!(&*c.desired_children[0].meta.name, "vni-claim-x");
        let j = jobs.sync(&job("t", "j", "x"), &[], SimTime::ZERO);
        assert_eq!(&*j.desired_children[0].meta.name, "vni-j");
        assert_eq!(ep.borrow().db.allocated_count(), 1);
    }
}
