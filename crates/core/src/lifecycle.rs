//! The VNI lifecycle as one executable model — the only place the
//! paper's VNI rules are written as code — and the one online judge of
//! every [`Cluster`](crate::Cluster): the cluster owns a [`Lifecycle`]
//! and feeds it what happens, in the order it happens, and the model
//! keeps a [`Violation`] for every event that breaks a rule.
//! ARCHITECTURE.md § "VNI lifecycle state machine" says where it runs;
//! nothing in the simulated stack consults it.
//!
//! A VNI is [`Phase::Free`], [`Phase::Held`] or [`Phase::Quarantined`].
//! [`Lifecycle::apply`] accepts only the legal transitions:
//!
//! * `acquire` of a free VNI, or of a quarantined one whose window has
//!   passed (§III-C1: "we only hand out a VNI after it has been released
//!   for more than 30 seconds");
//! * `release`, `add_user:` and `remove_user:` of a held VNI;
//! * `quarantine_expire` of a quarantined VNI after its window.
//!
//! Every transition is one audit entry (§III-C2), so a
//! [`replay`](Lifecycle::replay) of the [`VniDb`] audit log must accept
//! every entry and end in the database's rows. A cluster's model reads
//! the same log as it grows, entry by entry from the stored bytes.
//!
//! The second stream is the nodes': the kubelet backend reports
//! workload starts, CNI DELs and sandbox removals, the CXI CNI plugin
//! every CXI service it creates or destroys and every switch grant it
//! adds or revokes, and `Cluster::drain_node` the drain instant. The
//! node rules are [`Rule::StartWithoutAdd`], [`Rule::StartOnDrained`],
//! [`Rule::LeakedService`] and [`Rule::StaleGrant`].
//!
//! The quarantine is safe only while no pod outlives its job by more
//! than the window (`cxi_cni.rs`), so a draining pod may keep its
//! service and grant after its job's VNI is released; what breaks
//! isolation is handing that VNI out again while a node still carries
//! it ([`Rule::AcquireWhileGranted`]).
//!
//! ```
//! use shs_des::SimDur;
//! use slingshot_k8s::{lifecycle::{Lifecycle, Rule}, AuditEntry};
//!
//! let mut model = Lifecycle::new(SimDur::from_secs(30));
//! let at = |s: u64, ev: &str| AuditEntry { at_ns: s * 1_000_000_000, event: ev.into(), vni: 9 };
//! assert!(model.apply(&at(0, "acquire")).and(model.apply(&at(5, "release"))).is_ok());
//! let reissued = model.apply(&at(34, "acquire")).unwrap_err(); // 29 s after its release
//! assert_eq!((reissued.seq, reissued.rule), (2, Rule::AcquireInQuarantine));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use shs_des::{SimDur, SimTime};
use shs_fabric::Vni;

use crate::vni_db::{AuditEntry, VniDb, VniRow, VniState};

/// Where one VNI is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Never allocated, or its quarantine was swept.
    Free,
    /// Allocated; `users` are the jobs attached to a claim-owned VNI,
    /// in the order they were added.
    Held {
        /// Attached users.
        users: Vec<String>,
    },
    /// Released at `since_ns`; unusable until the window passes.
    Quarantined {
        /// Release instant (ns).
        since_ns: u64,
    },
}

/// Which rule an event or a database row broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `acquire` of a VNI that is already held.
    AcquireHeld,
    /// `acquire` of a quarantined VNI before its window passed.
    AcquireInQuarantine,
    /// `release`, `add_user:` or `remove_user:` of a VNI not held.
    NotHeld,
    /// `quarantine_expire` of a VNI that is not quarantined.
    ExpireNotQuarantined,
    /// `quarantine_expire` before the window passed.
    ExpireEarly,
    /// An event the lifecycle does not know.
    UnknownEvent,
    /// The database row disagrees with the model's state.
    RowDiverged,
    /// `acquire` of a VNI that a node still carries in a CXI service or
    /// grants on its switch port.
    AcquireWhileGranted,
    /// A VNI pod's workload started without a live CXI service that its
    /// own ADD created on that node over a VNI the model held.
    StartWithoutAdd,
    /// A workload started on a node after the node was drained.
    StartOnDrained,
    /// A pod's sandbox was removed while a CXI service its ADD created
    /// was still live.
    LeakedService,
    /// After a CNI DEL, a non-global grant on the node's port that no
    /// live CXI service on the node carries — reported once, at the DEL
    /// that destroyed the last service carrying it.
    StaleGrant,
}

/// A verdict: an event the model rejects, or a row it contradicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Audit seq of the entry; for a node rule and for
    /// [`Rule::RowDiverged`], the seq the next entry would take.
    pub seq: u64,
    /// The VNI; `None` for a workload started with no service at all.
    pub vni: Option<u16>,
    /// Event time; for [`Rule::RowDiverged`], the last entry's.
    pub at_ns: u64,
    /// The rule broken.
    pub rule: Rule,
    /// The node, for a node rule and [`Rule::AcquireWhileGranted`].
    pub node: Option<String>,
    /// The pod as `namespace/name`, where a pod is involved.
    pub pod: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = SimTime::from_nanos(self.at_ns);
        write!(f, "{:?} at seq {}, {} s", self.rule, self.seq, at.as_secs_f64())?;
        if let Some(vni) = self.vni {
            write!(f, ", VNI {vni}")?;
        }
        if let Some(node) = &self.node {
            write!(f, ", node {node}")?;
        }
        if let Some(pod) = &self.pod {
            write!(f, ", pod {pod}")?;
        }
        Ok(())
    }
}

/// The pod a node event is about: its uid keys the model's node state,
/// its name goes into verdicts. Both names are the API object's own
/// shared strings, so building one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PodId {
    pub(crate) uid: u64,
    pub(crate) namespace: Rc<str>,
    pub(crate) name: Rc<str>,
}

impl PodId {
    fn label(&self) -> String {
        format!("{}/{}", self.namespace, self.name)
    }
}

/// What a node reports about one pod, in the order it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeEvent {
    /// The pod's CNI ADD created CXI service `svc` carrying `vni`.
    ServiceCreated {
        /// The CXI service id.
        svc: u32,
        /// The service's VNI.
        vni: Vni,
    },
    /// A CNI call granted `vni` on the node's switch port.
    Granted(Vni),
    /// The pod's workload started; `vni_pod` says whether the pod asked
    /// for a VNI.
    Started {
        /// The pod carries the `vni` annotation.
        vni_pod: bool,
    },
    /// A CNI call destroyed CXI service `svc`.
    ServiceDestroyed {
        /// The CXI service id.
        svc: u32,
    },
    /// A CNI call revoked `vni` from the node's switch port.
    Revoked(Vni),
    /// The pod's CNI DEL returned.
    Deleted,
    /// The pod's sandbox was removed.
    SandboxRemoved,
}

/// A live CXI service that a CNI ADD created.
#[derive(Debug, Clone)]
struct Carried {
    svc: u32,
    pod: PodId,
    vni: u16,
    /// The model held `vni` when the ADD created the service.
    held: bool,
}

/// One node as its events describe it.
#[derive(Debug, Clone, Default)]
struct NodeView {
    name: String,
    /// The drain instant, once drained.
    drained_at: Option<u64>,
    /// Every live CNI-created service, keyed by the order its creation
    /// was reported in.
    services: BTreeMap<u64, Carried>,
    /// The key the next reported service takes.
    next_key: u64,
    /// `(CXI service id, key)` of every live service.
    by_svc: BTreeSet<(u32, u64)>,
    /// `(pod uid, key)` of every live service.
    by_pod: BTreeSet<(u64, u64)>,
    /// `(VNI, key)` of every live service.
    by_vni: BTreeSet<(u16, u64)>,
    /// Job VNIs granted on the node's port by CNI calls, ascending (the
    /// global VNI every node holds is no job's).
    grants: Vec<u16>,
    /// VNIs of the services destroyed since the last CNI DEL returned:
    /// the grants that DEL must have let go unless another live
    /// service still carries them.
    dropped: Vec<u16>,
}

impl NodeView {
    fn add_service(&mut self, c: Carried) {
        let key = self.next_key;
        self.next_key += 1;
        self.by_svc.insert((c.svc, key));
        self.by_pod.insert((c.pod.uid, key));
        self.by_vni.insert((c.vni, key));
        self.services.insert(key, c);
    }

    /// Drop every live service with CXI id `svc`, in the order they were
    /// reported, adding their VNIs to `dropped`.
    fn destroy_services(&mut self, svc: u32) {
        while let Some(&(_, key)) = self.by_svc.range((svc, 0)..=(svc, u64::MAX)).next() {
            let c = self.services.remove(&key).expect("indexed services are live");
            self.by_svc.remove(&(svc, key));
            self.by_pod.remove(&(c.pod.uid, key));
            self.by_vni.remove(&(c.vni, key));
            self.dropped.push(c.vni);
        }
    }

    /// The live services pod `uid`'s ADDs created, in the order they
    /// were reported.
    fn services_of(&self, uid: u64) -> impl Iterator<Item = &Carried> {
        let keys = self.by_pod.range((uid, 0)..=(uid, u64::MAX));
        keys.map(|(_, key)| &self.services[key])
    }

    /// The first-reported live service that carries `vni`.
    fn first_carrying(&self, vni: u16) -> Option<&Carried> {
        let (_, key) = self.by_vni.range((vni, 0)..=(vni, u64::MAX)).next()?;
        Some(&self.services[key])
    }
}

/// Count one more (`up`) or one fewer carrier of `vni` in `carried`.
fn carry(carried: &mut BTreeMap<u16, u32>, vni: u16, up: bool) {
    if up {
        *carried.entry(vni).or_insert(0) += 1;
    } else if let Some(n) = carried.get_mut(&vni) {
        *n -= 1;
        if *n == 0 {
            carried.remove(&vni);
        }
    }
}

/// The lifecycle of every VNI one audit log names, the node state the
/// node events describe, and every verdict so far.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    quarantine_ns: u64,
    /// Every VNI that is not free.
    vnis: BTreeMap<u16, Phase>,
    next_seq: u64,
    last_at_ns: u64,
    nodes: Vec<NodeView>,
    /// For each VNI some node carries: its live CNI-created services
    /// plus its port grants, over every node.
    carried: BTreeMap<u16, u32>,
    verdicts: Vec<Violation>,
}

impl Lifecycle {
    /// Every VNI free, under a `quarantine` window, with no nodes.
    pub fn new(quarantine: SimDur) -> Self {
        Lifecycle { quarantine_ns: quarantine.as_nanos(), ..Default::default() }
    }

    /// Replay a whole log from seq 0 and [`finish`](Lifecycle::finish)
    /// against the database's `rows`: the model, and every entry it
    /// rejected and every VNI whose row disagrees.
    pub fn replay(
        quarantine: SimDur,
        audit: &[AuditEntry],
        rows: &[VniRow],
    ) -> (Self, Vec<Violation>) {
        let mut model = Lifecycle::new(quarantine);
        for e in audit {
            if let Err(v) = model.apply(e) {
                model.verdicts.push(v);
            }
        }
        model.finish(rows);
        let verdicts = std::mem::take(&mut model.verdicts);
        (model, verdicts)
    }

    /// Apply the next audit entry. A rejected entry still moves its VNI
    /// to the state the entry names, so one bad transition is reported
    /// once, not again at every later entry.
    pub fn apply(&mut self, e: &AuditEntry) -> Result<(), Violation> {
        self.step(e.at_ns, e.vni, &e.event)
    }

    fn step(&mut self, at_ns: u64, vni: u16, event: &str) -> Result<(), Violation> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.last_at_ns = at_ns;
        let phase = self.vnis.remove(&vni).unwrap_or(Phase::Free);
        let unless = |legal: bool, rule| (!legal).then_some(rule);
        let (next, broken) = match (event, phase) {
            ("acquire", p) => {
                let rule = match p {
                    Phase::Held { .. } => Rule::AcquireHeld,
                    _ => Rule::AcquireInQuarantine,
                };
                (Phase::Held { users: vec![] }, unless(self.reusable_from(&p, at_ns), rule))
            }
            ("release", p) => {
                let held = matches!(p, Phase::Held { .. });
                (Phase::Quarantined { since_ns: at_ns }, unless(held, Rule::NotHeld))
            }
            ("quarantine_expire", p @ Phase::Quarantined { .. }) => {
                (Phase::Free, unless(self.reusable_from(&p, at_ns), Rule::ExpireEarly))
            }
            ("quarantine_expire", _) => (Phase::Free, Some(Rule::ExpireNotQuarantined)),
            (event, Phase::Held { mut users }) => {
                let broken = if let Some(user) = event.strip_prefix("add_user:") {
                    if !users.iter().any(|u| u == user) {
                        users.push(user.to_string());
                    }
                    None
                } else if let Some(user) = event.strip_prefix("remove_user:") {
                    users.retain(|u| u != user);
                    None
                } else {
                    Some(Rule::UnknownEvent)
                };
                (Phase::Held { users }, broken)
            }
            (event, p) => {
                let user_op = event.starts_with("add_user:") || event.starts_with("remove_user:");
                (p, Some(if user_op { Rule::NotHeld } else { Rule::UnknownEvent }))
            }
        };
        if next != Phase::Free {
            self.vnis.insert(vni, next);
        }
        let verdict =
            |rule| Violation { seq, vni: Some(vni), at_ns, rule, node: None, pod: None };
        broken.map_or(Ok(()), |rule| Err(verdict(rule)))
    }

    /// Apply every entry `db`'s audit log gained since the last pull,
    /// keeping a verdict for each one that breaks a rule — including an
    /// `acquire` of a VNI that some node still carries.
    pub(crate) fn pull(&mut self, db: &VniDb) {
        for (at_ns, vni, event) in db.audit_since(self.next_seq) {
            self.take(at_ns, vni, event);
        }
    }

    /// Apply one audit entry, keeping its verdicts.
    fn take(&mut self, at_ns: u64, vni: u16, event: &str) {
        let seq = self.next_seq;
        if let Err(v) = self.step(at_ns, vni, event) {
            self.verdicts.push(v);
        }
        if event == "acquire" {
            if let Some((node, pod)) = self.carrier(vni) {
                let rule = Rule::AcquireWhileGranted;
                self.verdicts.push(Violation { seq, vni: Some(vni), at_ns, rule, node, pod });
            }
        }
    }

    /// Audit entries applied so far: the seq the next one takes.
    pub(crate) fn applied(&self) -> u64 {
        self.next_seq
    }

    /// The first node that carries `vni` in a live CNI-created service,
    /// or grants it on its port, with that service's pod. A VNI no node
    /// carries is one lookup.
    fn carrier(&self, vni: u16) -> Option<(Option<String>, Option<String>)> {
        self.carried.get(&vni)?;
        self.nodes.iter().find_map(|n| {
            let svc = n.first_carrying(vni);
            let carried = svc.is_some() || n.grants.binary_search(&vni).is_ok();
            carried.then(|| (Some(n.name.clone()), svc.map(|c| c.pod.label())))
        })
    }

    /// Compare the model with the database's `rows` and keep a
    /// [`Rule::RowDiverged`] verdict for every VNI whose row disagrees:
    /// a held VNI needs an allocated row with the same users, a
    /// quarantined one a quarantined row with the same release instant,
    /// a free one none.
    pub fn finish(&mut self, rows: &[VniRow]) {
        let by_vni: BTreeMap<u16, &VniRow> = rows.iter().map(|r| (r.vni, r)).collect();
        let vnis: BTreeSet<u16> = by_vni.keys().chain(self.vnis.keys()).copied().collect();
        let diverged = |vni: &u16| match (self.phase(*vni), by_vni.get(vni)) {
            (Phase::Free, None) => false,
            (Phase::Held { users }, Some(row)) => {
                row.state != VniState::Allocated || &row.users != users
            }
            (Phase::Quarantined { since_ns }, Some(row)) => {
                row.state != VniState::Quarantined { released_at_ns: *since_ns }
            }
            _ => true,
        };
        let (seq, at_ns) = (self.next_seq, self.last_at_ns);
        let rule = Rule::RowDiverged;
        let at = |vni| Violation { seq, vni: Some(vni), at_ns, rule, node: None, pod: None };
        let diverged: Vec<Violation> = vnis.into_iter().filter(diverged).map(at).collect();
        self.verdicts.extend(diverged);
    }

    /// Every verdict so far, in the order the events came.
    pub fn verdicts(&self) -> &[Violation] {
        &self.verdicts
    }

    /// Add a node named `name`; node events name it by the index this
    /// returns, which counts up from 0.
    pub(crate) fn add_node(&mut self, name: &str) -> usize {
        self.nodes.push(NodeView { name: name.to_string(), ..Default::default() });
        self.nodes.len() - 1
    }

    /// Node `node` was drained at `at_ns`: nothing may start on it
    /// after that instant.
    pub(crate) fn drained(&mut self, node: usize, at_ns: u64) {
        self.nodes[node].drained_at = Some(at_ns);
    }

    /// Take `ev`, which node `node` reports about `pod` at `at_ns`.
    pub(crate) fn node_event(&mut self, node: usize, pod: &PodId, at_ns: u64, ev: NodeEvent) {
        let mut broken: Vec<(Rule, Option<u16>)> = Vec::new();
        match ev {
            NodeEvent::ServiceCreated { svc, vni } => {
                let vni = vni.raw();
                let held = matches!(self.phase(vni), Phase::Held { .. });
                self.nodes[node].add_service(Carried { svc, pod: pod.clone(), vni, held });
                carry(&mut self.carried, vni, true);
            }
            NodeEvent::Granted(vni) => {
                let grants = &mut self.nodes[node].grants;
                if let Err(i) = grants.binary_search(&vni.raw()) {
                    grants.insert(i, vni.raw());
                    carry(&mut self.carried, vni.raw(), true);
                }
            }
            NodeEvent::Revoked(vni) => {
                let grants = &mut self.nodes[node].grants;
                if let Ok(i) = grants.binary_search(&vni.raw()) {
                    grants.remove(i);
                    carry(&mut self.carried, vni.raw(), false);
                }
            }
            NodeEvent::ServiceDestroyed { svc } => {
                let n = &mut self.nodes[node];
                let first = n.dropped.len();
                n.destroy_services(svc);
                for &vni in &n.dropped[first..] {
                    carry(&mut self.carried, vni, false);
                }
            }
            NodeEvent::Started { vni_pod } => {
                let n = &self.nodes[node];
                let own = n.services_of(pod.uid).next();
                if n.drained_at.is_some_and(|d| at_ns > d) {
                    broken.push((Rule::StartOnDrained, own.map(|c| c.vni)));
                }
                if vni_pod && !own.is_some_and(|c| c.held) {
                    broken.push((Rule::StartWithoutAdd, own.map(|c| c.vni)));
                }
            }
            NodeEvent::Deleted => {
                let n = &mut self.nodes[node];
                n.dropped.sort_unstable();
                n.dropped.dedup();
                for &vni in &n.dropped {
                    let granted = n.grants.binary_search(&vni).is_ok();
                    if granted && n.first_carrying(vni).is_none() {
                        broken.push((Rule::StaleGrant, Some(vni)));
                    }
                }
                n.dropped.clear();
            }
            NodeEvent::SandboxRemoved => {
                let leaked = self.nodes[node].services_of(pod.uid);
                broken.extend(leaked.map(|c| (Rule::LeakedService, Some(c.vni))));
            }
        }
        let seq = self.next_seq;
        for (rule, vni) in broken {
            let node = Some(self.nodes[node].name.clone());
            let v = Violation { seq, vni, at_ns, rule, node, pod: Some(pod.label()) };
            self.verdicts.push(v);
        }
    }

    /// Whether a VNI in `phase` may be handed out at `now_ns`: it is
    /// free, or quarantined and its window has passed.
    fn reusable_from(&self, phase: &Phase, now_ns: u64) -> bool {
        match phase {
            Phase::Free => true,
            Phase::Quarantined { since_ns } => {
                now_ns >= since_ns.saturating_add(self.quarantine_ns)
            }
            Phase::Held { .. } => false,
        }
    }

    /// The phase of `vni`.
    pub fn phase(&self, vni: u16) -> &Phase {
        self.vnis.get(&vni).unwrap_or(&Phase::Free)
    }

    /// Whether `acquire` may hand out `vni` at `now`.
    pub fn reusable(&self, vni: u16, now: SimTime) -> bool {
        self.reusable_from(self.phase(vni), now.as_nanos())
    }

    /// Quarantined VNIs whose window has passed at `now`, ascending —
    /// what a sweep at `now` frees.
    pub fn expired(&self, now: SimTime) -> impl Iterator<Item = u16> + '_ {
        self.iter().filter(move |(vni, _)| self.reusable(*vni, now)).map(|(vni, _)| vni)
    }

    /// Every VNI that is not free, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Phase)> + '_ {
        self.vnis.iter().map(|(&vni, phase)| (vni, phase))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(log: &[(u64, &str)]) -> Vec<(u64, Rule)> {
        let mut model = Lifecycle::new(SimDur::from_secs(30));
        let entry =
            |&(at_ns, event): &(u64, &str)| AuditEntry { at_ns, event: event.into(), vni: 7 };
        let broken = log.iter().filter_map(|e| model.apply(&entry(e)).err());
        broken.map(|v| (v.seq, v.rule)).collect()
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn reuse_exactly_at_the_window_is_legal() {
        assert_eq!(rules(&[(0, "acquire"), (5 * S, "release"), (35 * S, "acquire")]), []);
    }

    #[test]
    fn reuse_one_nanosecond_early_is_illegal() {
        let log = [(0, "acquire"), (5 * S, "release"), (35 * S - 1, "acquire")];
        assert_eq!(rules(&log), [(2, Rule::AcquireInQuarantine)]);
    }

    #[test]
    fn acquiring_a_held_vni_is_illegal() {
        let log = [(0, "acquire"), (S, "add_user:t/a"), (2 * S, "acquire")];
        assert_eq!(rules(&log), [(2, Rule::AcquireHeld)]);
    }

    #[test]
    fn an_early_quarantine_expire_is_illegal() {
        let on_time = [(0, "acquire"), (S, "release"), (31 * S, "quarantine_expire")];
        assert_eq!(rules(&on_time), []);
        let early = [(0, "acquire"), (S, "release"), (31 * S - 1, "quarantine_expire")];
        assert_eq!(rules(&early), [(2, Rule::ExpireEarly)]);
    }

    // ---- Node rules: synthetic event sequences, no cluster -------------

    /// A model with two nodes, `n0` and `n1`.
    fn two_nodes() -> Lifecycle {
        let mut model = Lifecycle::new(SimDur::from_secs(30));
        assert_eq!((model.add_node("n0"), model.add_node("n1")), (0, 1));
        model
    }

    fn pod(uid: u64) -> PodId {
        PodId { uid, namespace: "t".into(), name: format!("p{uid}").into() }
    }

    /// `(rule, vni, node, pod, seq)` of every verdict; `""` for a
    /// verdict that names no node or pod.
    fn verdicts(model: &Lifecycle) -> Vec<(Rule, Option<u16>, &str, &str, u64)> {
        fn named(s: &Option<String>) -> &str {
            s.as_deref().unwrap_or("")
        }
        let v = model.verdicts().iter();
        v.map(|v| (v.rule, v.vni, named(&v.node), named(&v.pod), v.seq)).collect()
    }

    /// Pod `p` on node `n` runs a CNI ADD: service `svc` over `vni`,
    /// then the grant.
    fn add(model: &mut Lifecycle, n: usize, p: &PodId, at: u64, svc: u32, vni: u16) {
        model.node_event(n, p, at, NodeEvent::ServiceCreated { svc, vni: Vni(vni) });
        model.node_event(n, p, at, NodeEvent::Granted(Vni(vni)));
    }

    /// Pod `p` on node `n` runs a CNI DEL: service `svc` destroyed, then
    /// `vni` revoked if `revoke`.
    fn del(model: &mut Lifecycle, n: usize, p: &PodId, at: u64, svc: u32, revoke: Option<u16>) {
        model.node_event(n, p, at, NodeEvent::ServiceDestroyed { svc });
        if let Some(vni) = revoke {
            model.node_event(n, p, at, NodeEvent::Revoked(Vni(vni)));
        }
        model.node_event(n, p, at, NodeEvent::Deleted);
    }

    #[test]
    fn acquiring_a_vni_a_node_still_carries_is_illegal() {
        let mut model = two_nodes();
        let p = pod(1);
        model.take(0, 7, "acquire");
        add(&mut model, 1, &p, S, 3, 7);
        model.take(2 * S, 7, "release");
        // Past the window, but n1 still carries the VNI.
        model.take(40 * S, 7, "acquire");
        assert_eq!(verdicts(&model), [(Rule::AcquireWhileGranted, Some(7), "n1", "t/p1", 2)]);
        // A grant alone carries it too.
        model.take(41 * S, 7, "release");
        model.node_event(1, &p, 41 * S, NodeEvent::ServiceDestroyed { svc: 3 });
        model.take(80 * S, 7, "acquire");
        assert_eq!(verdicts(&model)[1], (Rule::AcquireWhileGranted, Some(7), "n1", "", 4));
        // Once the port lets it go, the VNI may be handed out again.
        model.take(81 * S, 7, "release");
        model.node_event(1, &p, 81 * S, NodeEvent::Revoked(Vni(7)));
        model.take(120 * S, 7, "acquire");
        assert_eq!(model.verdicts().len(), 2);
    }

    #[test]
    fn a_draining_pod_may_keep_its_service_and_grant_past_the_release() {
        let mut model = two_nodes();
        let p = pod(1);
        model.take(0, 7, "acquire");
        add(&mut model, 0, &p, S, 3, 7);
        model.node_event(0, &p, S, NodeEvent::Started { vni_pod: true });
        model.take(10 * S, 7, "release");
        // The pod's DEL lands 20 s after its job's VNI was released.
        del(&mut model, 0, &p, 30 * S, 3, Some(7));
        model.node_event(0, &p, 31 * S, NodeEvent::SandboxRemoved);
        model.take(40 * S, 7, "acquire");
        assert_eq!(verdicts(&model), []);
    }

    #[test]
    fn a_vni_pod_starts_only_after_its_own_add_over_a_held_vni() {
        let mut model = two_nodes();
        let (a, b, plain) = (pod(1), pod(2), pod(3));
        model.take(0, 7, "acquire");
        // Before its ADD, then with its ADD on the other node.
        model.node_event(0, &a, S, NodeEvent::Started { vni_pod: true });
        add(&mut model, 1, &a, S, 3, 7);
        model.node_event(0, &a, S, NodeEvent::Started { vni_pod: true });
        // A pod that asked for no VNI needs no ADD.
        model.node_event(0, &plain, S, NodeEvent::Started { vni_pod: false });
        // An ADD over a VNI the model does not hold does not count.
        model.take(2 * S, 7, "release");
        add(&mut model, 0, &b, 3 * S, 4, 7);
        model.node_event(0, &b, 3 * S, NodeEvent::Started { vni_pod: true });
        // After its own ADD on its own node: legal, even once the VNI
        // has been released since.
        model.node_event(1, &a, 3 * S, NodeEvent::Started { vni_pod: true });
        assert_eq!(
            verdicts(&model),
            [
                (Rule::StartWithoutAdd, None, "n0", "t/p1", 1),
                (Rule::StartWithoutAdd, None, "n0", "t/p1", 1),
                (Rule::StartWithoutAdd, Some(7), "n0", "t/p2", 2),
            ]
        );
    }

    #[test]
    fn nothing_starts_on_a_node_after_its_drain_instant() {
        let mut model = two_nodes();
        let p = pod(1);
        model.drained(0, 10 * S);
        model.node_event(0, &p, 10 * S, NodeEvent::Started { vni_pod: false });
        model.node_event(1, &p, 11 * S, NodeEvent::Started { vni_pod: false });
        assert_eq!(verdicts(&model), []);
        model.node_event(0, &p, 10 * S + 1, NodeEvent::Started { vni_pod: false });
        assert_eq!(verdicts(&model), [(Rule::StartOnDrained, None, "n0", "t/p1", 0)]);
    }

    #[test]
    fn a_sandbox_removed_before_its_services_leaks_them() {
        let mut model = two_nodes();
        let (a, b) = (pod(1), pod(2));
        model.take(0, 7, "acquire");
        add(&mut model, 0, &a, S, 3, 7);
        add(&mut model, 0, &b, S, 4, 7);
        del(&mut model, 0, &a, 2 * S, 3, None);
        model.node_event(0, &a, 3 * S, NodeEvent::SandboxRemoved);
        // b skipped its DEL.
        model.node_event(0, &b, 3 * S, NodeEvent::SandboxRemoved);
        assert_eq!(verdicts(&model), [(Rule::LeakedService, Some(7), "n0", "t/p2", 1)]);
    }

    #[test]
    fn a_del_leaves_no_grant_without_a_live_service_on_the_node() {
        let mut model = two_nodes();
        let (a, b) = (pod(1), pod(2));
        model.take(0, 7, "acquire");
        model.take(0, 8, "acquire");
        add(&mut model, 0, &a, S, 3, 7);
        add(&mut model, 0, &b, S, 4, 7);
        add(&mut model, 1, &b, S, 5, 8);
        // a's service goes; b's still carries VNI 7, so the grant stays.
        del(&mut model, 0, &a, 2 * S, 3, None);
        assert_eq!(verdicts(&model), []);
        // b's service goes and the grant is left behind.
        del(&mut model, 0, &b, 3 * S, 4, None);
        assert_eq!(verdicts(&model), [(Rule::StaleGrant, Some(7), "n0", "t/p2", 2)]);
        // A later, clean DEL on the node does not report it again.
        let c = pod(3);
        add(&mut model, 0, &c, 4 * S, 6, 8);
        del(&mut model, 0, &c, 5 * S, 6, Some(8));
        assert_eq!(model.verdicts().len(), 1);
    }

    #[test]
    fn a_row_the_model_contradicts_is_a_verdict() {
        let mut model = two_nodes();
        model.take(5 * S, 7, "acquire");
        model.finish(&[]);
        assert_eq!(verdicts(&model), [(Rule::RowDiverged, Some(7), "", "", 1)]);
        assert_eq!(model.verdicts()[0].at_ns, 5 * S);
    }
}
