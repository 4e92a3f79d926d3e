//! The CXI kernel driver model: privileged service management and the
//! authenticated endpoint-allocation path.
//!
//! Authentication happens **only** at endpoint creation (§II-C:
//! "Authentication against CXI services is only performed during endpoint
//! creation"), after which communication is kernel-bypass. The member
//! check below is therefore the entire control-plane cost on the data
//! path — once per application start, never per message.

use shs_cassini::{CassiniNic, EpIdx, NicError, ServiceEntry, SvcId};
use shs_des::SimDur;
use shs_fabric::{TrafficClass, Vni};
use shs_oslinux::{Creds, Host, OsError, Pid, Uid};

use crate::svc::{AuthMode, CxiService, CxiServiceDesc, SvcMember};

/// Driver operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CxiError {
    /// Caller lacks privilege for a management operation.
    NotPermitted,
    /// Service id unknown.
    NoSuchService,
    /// No service member matched the caller's credentials.
    AuthFailed,
    /// The requested VNI is not offered by the service.
    VniNotAllowed,
    /// A netns member was supplied but the driver extension is not loaded.
    NetNsExtensionMissing,
    /// Underlying NIC error.
    Nic(NicError),
    /// Underlying OS error.
    Os(OsError),
}

impl From<NicError> for CxiError {
    fn from(e: NicError) -> Self {
        CxiError::Nic(e)
    }
}

impl From<OsError> for CxiError {
    fn from(e: OsError) -> Self {
        CxiError::Os(e)
    }
}

impl core::fmt::Display for CxiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CxiError::NotPermitted => f.write_str("not permitted"),
            CxiError::NoSuchService => f.write_str("no such CXI service"),
            CxiError::AuthFailed => f.write_str("no matching service member"),
            CxiError::VniNotAllowed => f.write_str("VNI not offered by service"),
            CxiError::NetNsExtensionMissing => {
                f.write_str("netns member type requires the extended driver")
            }
            CxiError::Nic(e) => write!(f, "NIC: {e}"),
            CxiError::Os(e) => write!(f, "OS: {e}"),
        }
    }
}

impl std::error::Error for CxiError {}

/// Control-path timing constants (these are *not* on the message path;
/// they surface in job-admission overhead, Figs. 9-12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxiDriverParams {
    /// Service creation: ioctl + NIC programming.
    pub svc_alloc: SimDur,
    /// Service destruction.
    pub svc_destroy: SimDur,
    /// Endpoint allocation: auth + queue setup.
    pub ep_alloc: SimDur,
}

impl Default for CxiDriverParams {
    fn default() -> Self {
        CxiDriverParams {
            svc_alloc: SimDur::from_micros(800),
            svc_destroy: SimDur::from_micros(500),
            ep_alloc: SimDur::from_micros(60),
        }
    }
}

/// The per-node CXI driver instance.
#[derive(Debug)]
pub struct CxiDriver {
    auth_mode: AuthMode,
    /// Whether the paper's netns member-type patch is applied.
    netns_extension: bool,
    params: CxiDriverParams,
    services: Vec<CxiService>,
    next_svc: u32,
}

impl CxiDriver {
    /// Stock driver: legacy auth, no netns members.
    pub fn stock() -> Self {
        CxiDriver::new(AuthMode::Legacy, false, CxiDriverParams::default())
    }

    /// The paper's extended driver: userns-aware credentials *and* the
    /// netns member type.
    pub fn extended() -> Self {
        CxiDriver::new(AuthMode::UserNsAware, true, CxiDriverParams::default())
    }

    /// Fully explicit construction.
    pub fn new(auth_mode: AuthMode, netns_extension: bool, params: CxiDriverParams) -> Self {
        CxiDriver { auth_mode, netns_extension, params, services: Vec::new(), next_svc: 1 }
    }

    /// Timing constants.
    pub fn params(&self) -> &CxiDriverParams {
        &self.params
    }

    /// The configured authentication mode.
    pub fn auth_mode(&self) -> AuthMode {
        self.auth_mode
    }

    /// Registered services (diagnostics; `cxi_service list` equivalent).
    pub fn services(&self) -> &[CxiService] {
        &self.services
    }

    /// Look up a service.
    pub fn service(&self, id: SvcId) -> Option<&CxiService> {
        self.services.iter().find(|s| s.id == id)
    }

    fn is_privileged(caller: &Creds) -> bool {
        caller.host_uid == Uid::ROOT
    }

    /// Create a CXI service (privileged: root on the host, like the real
    /// driver's `CXI_OP_SVC_ALLOC`). Programs the NIC service table.
    pub fn svc_alloc(
        &mut self,
        caller: &Creds,
        desc: CxiServiceDesc,
        nic: &mut CassiniNic,
    ) -> Result<SvcId, CxiError> {
        if !Self::is_privileged(caller) {
            return Err(CxiError::NotPermitted);
        }
        if !self.netns_extension && desc.members.iter().any(|m| m.needs_netns_extension()) {
            return Err(CxiError::NetNsExtensionMissing);
        }
        let id = SvcId(self.next_svc);
        self.next_svc += 1;
        nic.configure_service(ServiceEntry {
            id,
            vnis: desc.vnis.clone(),
            limits: desc.limits,
            enabled: true,
        });
        self.services.push(CxiService {
            id,
            members: desc.members,
            vnis: desc.vnis,
            limits: desc.limits,
            enabled: true,
            label: desc.label,
        });
        Ok(id)
    }

    /// Destroy a service (privileged). Tears down its NIC endpoints.
    pub fn svc_destroy(
        &mut self,
        caller: &Creds,
        id: SvcId,
        nic: &mut CassiniNic,
    ) -> Result<usize, CxiError> {
        if !Self::is_privileged(caller) {
            return Err(CxiError::NotPermitted);
        }
        let before = self.services.len();
        self.services.retain(|s| s.id != id);
        if self.services.len() == before {
            return Err(CxiError::NoSuchService);
        }
        Ok(nic.remove_service(id))
    }

    /// Destroy every service whose label matches a predicate. Used by the
    /// CNI plugin's DEL handler ("deletes any CXI service associated with
    /// the container being deleted", §III-B). Returns destroyed ids.
    pub fn svc_destroy_matching(
        &mut self,
        caller: &Creds,
        nic: &mut CassiniNic,
        mut pred: impl FnMut(&CxiService) -> bool,
    ) -> Result<Vec<SvcId>, CxiError> {
        if !Self::is_privileged(caller) {
            return Err(CxiError::NotPermitted);
        }
        let doomed: Vec<SvcId> =
            self.services.iter().filter(|s| pred(s)).map(|s| s.id).collect();
        self.services.retain(|s| !doomed.contains(&s.id));
        for id in &doomed {
            nic.remove_service(*id);
        }
        Ok(doomed)
    }

    /// Does any member of `svc` admit the caller under the configured
    /// auth mode? This is the §III-A member check.
    fn member_matches(&self, svc: &CxiService, creds: &Creds) -> bool {
        svc.members.iter().any(|m| match m {
            SvcMember::AllUsers => true,
            SvcMember::Uid(uid) => match self.auth_mode {
                AuthMode::Legacy => creds.uid == *uid,
                AuthMode::UserNsAware => creds.host_uid == *uid,
            },
            SvcMember::Gid(gid) => match self.auth_mode {
                AuthMode::Legacy => creds.gid == *gid,
                AuthMode::UserNsAware => creds.host_gid == *gid,
            },
            // The extended driver reads the netns inode via procfs —
            // kernel-owned state the container cannot influence.
            SvcMember::NetNs(ns) => self.netns_extension && creds.netns == *ns,
        })
    }

    /// Authenticated endpoint allocation: the path every RDMA application
    /// takes once at startup. Extracts the caller's credentials from the
    /// kernel (including the procfs netns inode), finds the service,
    /// checks membership and VNI, then programs the NIC.
    pub fn ep_alloc(
        &self,
        host: &Host,
        pid: Pid,
        svc_id: SvcId,
        vni: Vni,
        tc: TrafficClass,
        nic: &mut CassiniNic,
    ) -> Result<EpIdx, CxiError> {
        let creds = host.credentials(pid)?;
        let svc = self.service(svc_id).ok_or(CxiError::NoSuchService)?;
        if !svc.enabled {
            return Err(CxiError::NoSuchService);
        }
        if !self.member_matches(svc, &creds) {
            return Err(CxiError::AuthFailed);
        }
        if !svc.vnis.contains(&vni) {
            return Err(CxiError::VniNotAllowed);
        }
        Ok(nic.alloc_endpoint(svc_id, vni, tc)?)
    }

    /// Find the first enabled service that admits the caller and offers
    /// `vni` — what libcxi does when the application does not name a
    /// service explicitly ("checks whether any CXI service exists that
    /// (1) lists the requesting user ... (2) is authorized to use the
    /// requested VNIs", §II-C).
    pub fn find_service(&self, host: &Host, pid: Pid, vni: Vni) -> Result<SvcId, CxiError> {
        let creds = host.credentials(pid)?;
        self.services
            .iter()
            .find(|s| s.enabled && s.vnis.contains(&vni) && self.member_matches(s, &creds))
            .map(|s| s.id)
            .ok_or(CxiError::AuthFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_cassini::CassiniParams;
    use shs_des::DetRng;
    use shs_fabric::NicAddr;
    use shs_oslinux::{Gid, IdMapEntry};

    fn rig(driver: CxiDriver) -> (Host, CxiDriver, CassiniNic) {
        let host = Host::new("n0");
        let nic = CassiniNic::new(NicAddr(1), CassiniParams::default(), DetRng::new(5));
        (host, driver, nic)
    }

    fn root_creds(host: &Host) -> Creds {
        host.credentials(Pid(1)).unwrap()
    }

    fn wide_map() -> Vec<IdMapEntry> {
        vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 65_536 }]
    }

    #[test]
    fn svc_alloc_requires_root() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let user = host.spawn_detached("user", Uid(1000), Gid(1000));
        let creds = host.credentials(user).unwrap();
        let err = drv
            .svc_alloc(&creds, CxiServiceDesc::default_service(), &mut nic)
            .unwrap_err();
        assert_eq!(err, CxiError::NotPermitted);
        drv.svc_alloc(&root_creds(&host), CxiServiceDesc::default_service(), &mut nic)
            .unwrap();
    }

    #[test]
    fn uid_member_admits_matching_user() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let desc = CxiServiceDesc {
            members: vec![SvcMember::Uid(Uid(1000))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "t".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), desc, &mut nic).unwrap();
        let alice = host.spawn_detached("alice", Uid(1000), Gid(1000));
        let bob = host.spawn_detached("bob", Uid(2000), Gid(2000));
        drv.ep_alloc(&host, alice, id, Vni(7), TrafficClass::Dedicated, &mut nic)
            .unwrap();
        assert_eq!(
            drv.ep_alloc(&host, bob, id, Vni(7), TrafficClass::Dedicated, &mut nic)
                .unwrap_err(),
            CxiError::AuthFailed
        );
    }

    #[test]
    fn gid_member_admits_matching_group() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let desc = CxiServiceDesc {
            members: vec![SvcMember::Gid(Gid(500))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "t".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), desc, &mut nic).unwrap();
        let member = host.spawn_detached("m", Uid(1), Gid(500));
        let outsider = host.spawn_detached("o", Uid(1), Gid(501));
        drv.ep_alloc(&host, member, id, Vni(7), TrafficClass::Dedicated, &mut nic)
            .unwrap();
        assert_eq!(
            drv.ep_alloc(&host, outsider, id, Vni(7), TrafficClass::Dedicated, &mut nic)
                .unwrap_err(),
            CxiError::AuthFailed
        );
    }

    #[test]
    fn vni_must_be_offered_by_service() {
        let (host, mut drv, mut nic) = rig(CxiDriver::extended());
        let id = drv
            .svc_alloc(&root_creds(&host), CxiServiceDesc::default_service(), &mut nic)
            .unwrap();
        let err = drv
            .ep_alloc(&host, Pid(1), id, Vni(99), TrafficClass::Dedicated, &mut nic)
            .unwrap_err();
        assert_eq!(err, CxiError::VniNotAllowed);
    }

    #[test]
    fn stock_driver_is_spoofable_inside_userns() {
        // The motivating vulnerability (§III): with the stock driver,
        // container root setuid()s to the victim uid and authenticates.
        let (mut host, mut drv, mut nic) = rig(CxiDriver::stock());
        let victim_svc = CxiServiceDesc {
            members: vec![SvcMember::Uid(Uid(4242))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "victim".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), victim_svc, &mut nic).unwrap();
        let mallory = host.spawn_detached("mallory", Uid(3000), Gid(3000));
        host.unshare_user_ns(mallory, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT)
            .unwrap();
        host.setuid(mallory, Uid(4242)).unwrap();
        // Attack succeeds against the stock driver:
        drv.ep_alloc(&host, mallory, id, Vni(7), TrafficClass::Dedicated, &mut nic)
            .expect("stock driver is vulnerable by design");
    }

    #[test]
    fn userns_aware_driver_defeats_uid_spoofing() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let victim_svc = CxiServiceDesc {
            members: vec![SvcMember::Uid(Uid(4242))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "victim".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), victim_svc, &mut nic).unwrap();
        let mallory = host.spawn_detached("mallory", Uid(3000), Gid(3000));
        host.unshare_user_ns(mallory, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT)
            .unwrap();
        host.setuid(mallory, Uid(4242)).unwrap();
        assert_eq!(
            drv.ep_alloc(&host, mallory, id, Vni(7), TrafficClass::Dedicated, &mut nic)
                .unwrap_err(),
            CxiError::AuthFailed,
            "host-resolved uid is 104242, not 4242"
        );
    }

    #[test]
    fn netns_member_admits_only_the_namespace() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let a = host.spawn_detached("pod-a", Uid(1000), Gid(1000));
        let b = host.spawn_detached("pod-b", Uid(1000), Gid(1000));
        let ns_a = host.unshare_net_ns(a).unwrap();
        host.unshare_net_ns(b).unwrap();
        let desc = CxiServiceDesc {
            members: vec![SvcMember::NetNs(ns_a)],
            vnis: vec![Vni(9)],
            limits: Default::default(),
            label: "pod-a".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), desc, &mut nic).unwrap();
        drv.ep_alloc(&host, a, id, Vni(9), TrafficClass::Dedicated, &mut nic)
            .unwrap();
        // Same uid/gid, different namespace: denied.
        assert_eq!(
            drv.ep_alloc(&host, b, id, Vni(9), TrafficClass::Dedicated, &mut nic)
                .unwrap_err(),
            CxiError::AuthFailed
        );
    }

    #[test]
    fn netns_auth_survives_uid_games() {
        // Even with full setuid freedom inside the container, the netns
        // check is unaffected — the kernel owns the namespace identity.
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let pod = host.spawn_detached("pod", Uid(1000), Gid(1000));
        let ns = host.unshare_net_ns(pod).unwrap();
        host.unshare_user_ns(pod, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT)
            .unwrap();
        let desc = CxiServiceDesc {
            members: vec![SvcMember::NetNs(ns)],
            vnis: vec![Vni(9)],
            limits: Default::default(),
            label: "pod".into(),
        };
        let id = drv.svc_alloc(&root_creds(&host), desc, &mut nic).unwrap();
        host.setuid(pod, Uid(12345)).unwrap();
        drv.ep_alloc(&host, pod, id, Vni(9), TrafficClass::Dedicated, &mut nic)
            .expect("netns member is uid-independent");
    }

    #[test]
    fn stock_driver_rejects_netns_members() {
        let (host, mut drv, mut nic) = rig(CxiDriver::stock());
        let desc = CxiServiceDesc {
            members: vec![SvcMember::NetNs(shs_oslinux::NetNsId(1))],
            vnis: vec![Vni(9)],
            limits: Default::default(),
            label: "x".into(),
        };
        assert_eq!(
            drv.svc_alloc(&root_creds(&host), desc, &mut nic).unwrap_err(),
            CxiError::NetNsExtensionMissing
        );
    }

    #[test]
    fn find_service_scans_by_membership_and_vni() {
        let (mut host, mut drv, mut nic) = rig(CxiDriver::extended());
        let alice = host.spawn_detached("alice", Uid(1000), Gid(1000));
        let d1 = CxiServiceDesc {
            members: vec![SvcMember::Uid(Uid(2000))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "other".into(),
        };
        let d2 = CxiServiceDesc {
            members: vec![SvcMember::Uid(Uid(1000))],
            vnis: vec![Vni(7)],
            limits: Default::default(),
            label: "mine".into(),
        };
        drv.svc_alloc(&root_creds(&host), d1, &mut nic).unwrap();
        let id2 = drv.svc_alloc(&root_creds(&host), d2, &mut nic).unwrap();
        assert_eq!(drv.find_service(&host, alice, Vni(7)).unwrap(), id2);
        assert_eq!(
            drv.find_service(&host, alice, Vni(8)).unwrap_err(),
            CxiError::AuthFailed
        );
    }

    #[test]
    fn svc_destroy_matching_by_label() {
        let (host, mut drv, mut nic) = rig(CxiDriver::extended());
        let root = root_creds(&host);
        for label in ["ctr-1", "ctr-1", "ctr-2"] {
            let desc = CxiServiceDesc {
                members: vec![SvcMember::AllUsers],
                vnis: vec![Vni(1)],
                limits: Default::default(),
                label: label.into(),
            };
            drv.svc_alloc(&root, desc, &mut nic).unwrap();
        }
        let gone = drv
            .svc_destroy_matching(&root, &mut nic, |s| s.label == "ctr-1")
            .unwrap();
        assert_eq!(gone.len(), 2);
        assert_eq!(drv.services().len(), 1);
        assert_eq!(drv.services()[0].label, "ctr-2");
    }

    #[test]
    fn svc_destroy_unknown_id_errors() {
        let (host, mut drv, mut nic) = rig(CxiDriver::extended());
        assert_eq!(
            drv.svc_destroy(&root_creds(&host), SvcId(42), &mut nic).unwrap_err(),
            CxiError::NoSuchService
        );
    }
}
