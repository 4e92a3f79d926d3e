//! PLEG: a Pod Lifecycle Event Generator-style cache over the watch
//! stream, so control-plane status reads stop scanning pods.
//!
//! The real kubelet's PLEG relists the container runtime, diffs pod
//! states, and publishes lifecycle events so status consumers never
//! rescan. Here the API server's watch log *is* the relist: [`Pleg`]
//! consumes `events_since` from its own cursor and maintains
//!
//! * per-phase pod counts — O(1) reads regardless of pod count,
//! * per-group (job or service, keyed by the pod's `job_name`) ready
//!   sets and earliest start instants — reads proportional to the
//!   group, never to the cluster.
//!
//! The contract pinned by the proptest oracle in
//! `tests/service_props.rs`: after any event sequence, a PLEG snapshot
//! is byte-identical to a full pod scan ([`Pleg::scan`]).

use std::collections::BTreeMap;
use std::rc::Rc;

use serde::Serialize;

use crate::api::{ApiObject, ApiServer, IdMap, NameMap, ObjId, WatchType};
use crate::objects::{Kind, PodPhase};

/// A pod group's index in [`Pleg::groups`].
type GroupId = usize;

/// Cached state of one live pod (what the watch stream last showed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PodRecord {
    phase: PodPhase,
    /// The group the pod's `spec.job_name` names, shared by jobs and
    /// services.
    group: Option<GroupId>,
    started_at_ns: Option<u64>,
    deletion_requested: bool,
}

impl PodRecord {
    /// Running and not terminating.
    fn ready(&self) -> bool {
        self.phase == PodPhase::Running && !self.deletion_requested
    }
}

/// Cached state of one pod group (all pods naming the same manager). A
/// group outlives its last member, empty, so a pod naming it again
/// finds its id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct GroupState {
    namespace: Rc<str>,
    name: Rc<str>,
    /// Live member pods (any phase, including terminating).
    members: usize,
    /// Ready members by name: Running and not terminating. Kept in name
    /// order, and touched only when a pod's readiness changes.
    ready: BTreeMap<Rc<str>, ObjId>,
    /// Start instants of members that have started.
    started: Vec<(ObjId, u64)>,
}

/// Groups by namespace, then group name.
type GroupIndex = NameMap<NameMap<GroupId>>;

/// A serializable summary of everything the cache answers; the proptest
/// oracle compares this byte-for-byte against [`Pleg::scan`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct PlegSnapshot {
    /// Pod counts by phase: Pending, Running, Succeeded, Failed.
    pub phase_counts: [u64; 4],
    /// Per group (`"ns/name"`): sorted ready pod names and the earliest
    /// start instant over live members.
    pub groups: BTreeMap<String, GroupSnapshot>,
}

/// Snapshot of one group.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct GroupSnapshot {
    /// Ready pod names (Running, not terminating), sorted.
    pub ready: Vec<String>,
    /// Earliest `started_at_ns` over live member pods.
    pub started_at_ns: Option<u64>,
}

fn phase_idx(phase: PodPhase) -> usize {
    match phase {
        PodPhase::Pending => 0,
        PodPhase::Running => 1,
        PodPhase::Succeeded => 2,
        PodPhase::Failed => 3,
    }
}

/// The pod-lifecycle cache. One instance per cluster, synced once per
/// control-plane tick.
#[derive(Debug, Default)]
pub struct Pleg {
    last_rv: u64,
    pods: IdMap<PodRecord>,
    phase_counts: [u64; 4],
    /// Every group a pod has named, by [`GroupId`].
    groups: Vec<GroupState>,
    /// `(namespace, group)` → [`GroupId`]: consulted when a pod first
    /// names a group, and by the by-name reads.
    group_ids: GroupIndex,
    /// Watch events consumed (diagnostics).
    pub(crate) events_observed: u64,
}

impl Pleg {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Pleg::default()
    }

    /// The rv this cache has consumed the watch log through.
    pub fn cursor(&self) -> u64 {
        self.last_rv
    }

    /// Ingest every watch event since the last sync.
    pub fn sync(&mut self, api: &ApiServer) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;
        for ev in events {
            if ev.object.kind() != Kind::Pod {
                continue;
            }
            self.events_observed += 1;
            let id = ev.object.meta.id;
            match ev.kind {
                WatchType::Added | WatchType::Modified => {
                    let old = self.pods.get(&id).copied();
                    let record = self.record_of(api, &ev.object, old.as_ref());
                    self.pods.insert(id, record);
                    self.apply(&ev.object, old.as_ref(), Some(&record));
                }
                WatchType::Deleted => {
                    let old = self.pods.remove(&id);
                    self.apply(&ev.object, old.as_ref(), None);
                }
            }
        }
    }

    /// What the cache keeps of `pod`, reusing the group of the pod's
    /// previous record when it names the same one.
    fn record_of(
        &mut self,
        api: &ApiServer,
        pod: &ApiObject,
        prev: Option<&PodRecord>,
    ) -> PodRecord {
        let group = pod.pod_spec().job_name.as_deref().map(|g| {
            match prev.and_then(|p| p.group).filter(|&old| *self.groups[old].name == *g) {
                Some(old) => old,
                None => self.group_id(api, &pod.meta.namespace, g),
            }
        });
        PodRecord {
            phase: pod.pod_phase(),
            group,
            started_at_ns: pod.pod_status().and_then(|s| s.started_at_ns),
            deletion_requested: pod.meta.deletion_requested,
        }
    }

    /// The id of group `namespace/group`, made if it is new. A new
    /// group shares the name of the job or service it is named after.
    fn group_id(&mut self, api: &ApiServer, namespace: &Rc<str>, group: &str) -> GroupId {
        if let Some(&id) = self.group_ids.get(&**namespace).and_then(|g| g.get(group)) {
            return id;
        }
        let id = self.groups.len();
        let name = api.string(group).cloned().unwrap_or_else(|| group.into());
        self.groups.push(GroupState {
            namespace: Rc::clone(namespace),
            name: Rc::clone(&name),
            ..Default::default()
        });
        self.group_ids.entry(Rc::clone(namespace)).or_default().insert(name, id);
        id
    }

    /// Retire `old`'s contribution and add `new`'s: a pod that stays in
    /// its group touches only what changed.
    fn apply(&mut self, pod: &ApiObject, old: Option<&PodRecord>, new: Option<&PodRecord>) {
        if let Some(old) = old {
            self.phase_counts[phase_idx(old.phase)] -= 1;
        }
        if let Some(new) = new {
            self.phase_counts[phase_idx(new.phase)] += 1;
        }
        let (id, name) = (pod.meta.id, &pod.meta.name);
        let (from, to) = (old.and_then(|r| r.group), new.and_then(|r| r.group));
        if let (Some(old), Some(new), true) = (old, new, from == to) {
            let Some(g) = to.map(|g| &mut self.groups[g]) else { return };
            if old.ready() != new.ready() {
                if new.ready() {
                    g.ready.insert(Rc::clone(name), id);
                } else {
                    g.ready.remove(name);
                }
            }
            if old.started_at_ns != new.started_at_ns {
                g.set_started(id, new.started_at_ns);
            }
            return;
        }
        if let (Some(old), Some(g)) = (old, from) {
            let g = &mut self.groups[g];
            g.members -= 1;
            if old.ready() {
                g.ready.remove(name);
            }
            g.set_started(id, None);
            if g.members == 0 {
                g.started = Vec::new(); // an empty group keeps no buffer
            }
        }
        if let (Some(new), Some(g)) = (new, to) {
            let g = &mut self.groups[g];
            g.members += 1;
            if new.ready() {
                g.ready.insert(Rc::clone(name), id);
            }
            g.set_started(id, new.started_at_ns);
        }
    }

    fn group(&self, namespace: &str, group: &str) -> Option<&GroupState> {
        let id = *self.group_ids.get(namespace)?.get(group)?;
        Some(&self.groups[id])
    }

    /// Pods currently in `phase` — O(1), independent of pod count.
    pub fn count(&self, phase: PodPhase) -> u64 {
        self.phase_counts[phase_idx(phase)]
    }

    /// Total cached pods.
    pub fn pod_count(&self) -> u64 {
        self.phase_counts.iter().sum()
    }

    /// Ready pod names of a group (Running, not terminating), sorted.
    /// Empty when the group has no ready pods.
    pub fn ready(&self, namespace: &str, group: &str) -> Vec<String> {
        self.group(namespace, group)
            .map(|g| g.ready.keys().map(|n| n.to_string()).collect())
            .unwrap_or_default()
    }

    /// The ids of a group's ready pods, in [`Pleg::ready`]'s order.
    pub fn ready_ids(&self, namespace: &str, group: &str) -> Vec<ObjId> {
        let group = self.group(namespace, group);
        group.map(|g| g.ready.values().copied().collect()).unwrap_or_default()
    }

    /// Number of ready pods in a group.
    pub fn ready_count(&self, namespace: &str, group: &str) -> usize {
        self.group(namespace, group).map_or(0, |g| g.ready.len())
    }

    /// Earliest start instant over a group's live pods (the job-plane
    /// `job_started_at` read) — proportional to the group, not the
    /// cluster.
    pub fn group_started_at(&self, namespace: &str, group: &str) -> Option<u64> {
        self.group(namespace, group).and_then(GroupState::started_at)
    }

    /// Serializable summary of the whole cache (test oracle; O(pods)).
    pub fn snapshot(&self) -> PlegSnapshot {
        let mut snap = PlegSnapshot { phase_counts: self.phase_counts, ..Default::default() };
        for g in self.groups.iter().filter(|g| g.members > 0) {
            snap.groups.insert(format!("{}/{}", g.namespace, g.name), g.snapshot());
        }
        snap
    }

    /// The same summary computed by a full pod scan — the pre-PLEG read
    /// path, kept as the equivalence oracle (and as the slow half of
    /// the status-read benchmark).
    pub fn scan(api: &ApiServer) -> PlegSnapshot {
        let mut snap = PlegSnapshot::default();
        let mut groups: BTreeMap<String, GroupSnapshot> = BTreeMap::new();
        for pod in api.list(Kind::Pod) {
            snap.phase_counts[phase_idx(pod.pod_phase())] += 1;
            let Some(group) = &pod.pod_spec().job_name else { continue };
            let g = groups.entry(format!("{}/{group}", pod.meta.namespace)).or_default();
            if pod.pod_phase() == PodPhase::Running && !pod.meta.deletion_requested {
                g.ready.push(pod.meta.name.to_string());
            }
            if let Some(t) = pod.pod_status().and_then(|s| s.started_at_ns) {
                g.started_at_ns = Some(g.started_at_ns.map_or(t, |s| s.min(t)));
            }
        }
        for (key, mut g) in groups {
            g.ready.sort();
            snap.groups.insert(key, g);
        }
        snap
    }
}

impl GroupState {
    /// Record member `pod`'s start instant, or that it has none.
    fn set_started(&mut self, pod: ObjId, at: Option<u64>) {
        let slot = self.started.iter().position(|&(p, _)| p == pod);
        match (slot, at) {
            (Some(i), Some(t)) => self.started[i].1 = t,
            (Some(i), None) => {
                self.started.swap_remove(i);
            }
            (None, Some(t)) => self.started.push((pod, t)),
            (None, None) => {}
        }
    }

    fn started_at(&self) -> Option<u64> {
        self.started.iter().map(|&(_, t)| t).min()
    }

    fn snapshot(&self) -> GroupSnapshot {
        GroupSnapshot {
            ready: self.ready.keys().map(|n| n.to_string()).collect(),
            started_at_ns: self.started_at(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::kinds;
    use serde_json::json;
    use shs_des::SimTime;

    fn pod(ns: &str, name: &str, group: Option<&str>) -> ApiObject {
        ApiObject::new(
            kinds::POD,
            ns,
            name,
            json!({"image": "x", "job_name": group}),
        )
    }

    fn assert_matches_scan(pleg: &Pleg, api: &ApiServer) {
        let cached = serde_json::to_string(&pleg.snapshot()).unwrap();
        let scanned = serde_json::to_string(&Pleg::scan(api)).unwrap();
        assert_eq!(cached, scanned);
    }

    #[test]
    fn tracks_phases_and_groups_incrementally() {
        let mut api = ApiServer::default();
        let mut pleg = Pleg::new();
        api.create(pod("ns", "a-0", Some("a")), SimTime::ZERO).unwrap();
        api.create(pod("ns", "a-1", Some("a")), SimTime::ZERO).unwrap();
        api.create(pod("ns", "solo", None), SimTime::ZERO).unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.count(PodPhase::Pending), 3);
        assert_matches_scan(&pleg, &api);

        api.mutate(kinds::POD, "ns", "a-0", |o| {
            o.status = json!({"phase": "Running", "started_at_ns": 50});
        })
        .unwrap();
        api.mutate(kinds::POD, "ns", "a-1", |o| {
            o.status = json!({"phase": "Running", "started_at_ns": 20});
        })
        .unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.count(PodPhase::Running), 2);
        assert_eq!(pleg.ready("ns", "a"), vec!["a-0", "a-1"]);
        assert_eq!(pleg.group_started_at("ns", "a"), Some(20));
        assert_matches_scan(&pleg, &api);
    }

    #[test]
    fn terminating_pods_leave_the_ready_set_but_not_the_counts() {
        let mut api = ApiServer::default();
        let mut pleg = Pleg::new();
        let mut p = pod("ns", "a-0", Some("a"));
        p.meta.finalizers.push("hold".into());
        api.create(p, SimTime::ZERO).unwrap();
        api.mutate(kinds::POD, "ns", "a-0", |o| {
            o.status = json!({"phase": "Running", "started_at_ns": 9});
        })
        .unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.ready_count("ns", "a"), 1);

        api.delete(kinds::POD, "ns", "a-0").unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.ready_count("ns", "a"), 0, "terminating is not ready");
        assert_eq!(pleg.count(PodPhase::Running), 1, "still counted until reaped");
        assert_eq!(pleg.group_started_at("ns", "a"), Some(9));
        assert_matches_scan(&pleg, &api);

        api.remove_finalizer(kinds::POD, "ns", "a-0", "hold").unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.pod_count(), 0);
        assert!(pleg.ready("ns", "a").is_empty());
        assert_matches_scan(&pleg, &api);
    }

    #[test]
    fn deleting_the_min_start_recomputes_the_group_min() {
        let mut api = ApiServer::default();
        let mut pleg = Pleg::new();
        for (name, t) in [("a-0", 30u64), ("a-1", 10), ("a-2", 20)] {
            api.create(pod("ns", name, Some("a")), SimTime::ZERO).unwrap();
            api.mutate(kinds::POD, "ns", name, |o| {
                o.status = json!({"phase": "Running", "started_at_ns": t});
            })
            .unwrap();
        }
        pleg.sync(&api);
        assert_eq!(pleg.group_started_at("ns", "a"), Some(10));
        api.delete(kinds::POD, "ns", "a-1").unwrap();
        pleg.sync(&api);
        assert_eq!(pleg.group_started_at("ns", "a"), Some(20));
        assert_matches_scan(&pleg, &api);
    }

    #[test]
    fn late_sync_catches_up_from_the_cursor() {
        let mut api = ApiServer::default();
        let mut pleg = Pleg::new();
        // A burst of unrelated churn before the first sync.
        for i in 0..10 {
            api.create(pod("ns", &format!("p-{i}"), Some("g")), SimTime::ZERO).unwrap();
        }
        for i in 0..5 {
            api.delete(kinds::POD, "ns", &format!("p-{i}")).unwrap();
        }
        pleg.sync(&api);
        assert_eq!(pleg.pod_count(), 5);
        assert_matches_scan(&pleg, &api);
        // And nothing double-counts on an idle sync.
        pleg.sync(&api);
        assert_matches_scan(&pleg, &api);
    }
}
