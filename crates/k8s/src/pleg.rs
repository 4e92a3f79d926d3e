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

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use serde::Serialize;

use crate::api::{ApiObject, ApiServer, ObjKey, WatchType};
use crate::objects::{kinds, PodPhase};

/// Cached state of one live pod (what the watch stream last showed).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PodRecord {
    phase: PodPhase,
    /// The pod's manager (`spec.job_name`), shared by jobs and services;
    /// one handle for every record of the pod that names the same group.
    group: Option<Rc<str>>,
    started_at_ns: Option<u64>,
    deletion_requested: bool,
}

/// Cached state of one pod group (all pods naming the same manager).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct GroupState {
    /// Live member pod names (any phase, including terminating).
    members: BTreeSet<Rc<str>>,
    /// Ready member names: Running and not terminating.
    ready: BTreeSet<Rc<str>>,
    /// Start instants of members that have started.
    started: BTreeMap<Rc<str>, u64>,
}

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
    pods: BTreeMap<ObjKey, PodRecord>,
    phase_counts: [u64; 4],
    /// Groups by namespace, then group name: a read looks a borrowed
    /// `(namespace, group)` up without building a key.
    groups: BTreeMap<Rc<str>, BTreeMap<Rc<str>, GroupState>>,
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
            if ev.object.kind() != kinds::POD {
                continue;
            }
            self.events_observed += 1;
            let key = ev.object.key();
            match ev.kind {
                WatchType::Added | WatchType::Modified => {
                    let record = record_of(&ev.object, self.pods.get(&key));
                    let old = self.pods.insert(key.clone(), record.clone());
                    self.apply(&key, old.as_ref(), Some(&record));
                }
                WatchType::Deleted => {
                    let old = self.pods.remove(&key);
                    self.apply(&key, old.as_ref(), None);
                }
            }
        }
    }

    /// Retire `old`'s contribution and add `new`'s.
    fn apply(&mut self, (ns, name): &ObjKey, old: Option<&PodRecord>, new: Option<&PodRecord>) {
        if let Some(old) = old {
            self.phase_counts[phase_idx(old.phase)] -= 1;
            if let Some(group) = &old.group {
                if let Some(groups) = self.groups.get_mut(ns) {
                    if let Some(g) = groups.get_mut(group) {
                        g.members.remove(name);
                        g.ready.remove(name);
                        g.started.remove(name);
                        if g.members.is_empty() {
                            groups.remove(group);
                        }
                    }
                    if groups.is_empty() {
                        self.groups.remove(ns);
                    }
                }
            }
        }
        if let Some(new) = new {
            self.phase_counts[phase_idx(new.phase)] += 1;
            if let Some(group) = &new.group {
                let g = self
                    .groups
                    .entry(Rc::clone(ns))
                    .or_default()
                    .entry(Rc::clone(group))
                    .or_default();
                g.members.insert(Rc::clone(name));
                if new.phase == PodPhase::Running && !new.deletion_requested {
                    g.ready.insert(Rc::clone(name));
                }
                if let Some(t) = new.started_at_ns {
                    g.started.insert(Rc::clone(name), t);
                }
            }
        }
    }

    fn group(&self, namespace: &str, group: &str) -> Option<&GroupState> {
        self.groups.get(namespace)?.get(group)
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
            .map(|g| g.ready.iter().map(|n| n.to_string()).collect())
            .unwrap_or_default()
    }

    /// Number of ready pods in a group.
    pub fn ready_count(&self, namespace: &str, group: &str) -> usize {
        self.group(namespace, group).map_or(0, |g| g.ready.len())
    }

    /// Earliest start instant over a group's live pods (the job-plane
    /// `job_started_at` read) — proportional to the group, not the
    /// cluster.
    pub fn group_started_at(&self, namespace: &str, group: &str) -> Option<u64> {
        self.group(namespace, group).and_then(|g| g.started.values().min().copied())
    }

    /// Serializable summary of the whole cache (test oracle; O(pods)).
    pub fn snapshot(&self) -> PlegSnapshot {
        let mut snap = PlegSnapshot { phase_counts: self.phase_counts, ..Default::default() };
        for (ns, groups) in &self.groups {
            for (group, g) in groups {
                snap.groups.insert(format!("{ns}/{group}"), g.snapshot());
            }
        }
        snap
    }

    /// The same summary computed by a full pod scan — the pre-PLEG read
    /// path, kept as the equivalence oracle (and as the slow half of
    /// the status-read benchmark).
    pub fn scan(api: &ApiServer) -> PlegSnapshot {
        let mut snap = PlegSnapshot::default();
        let mut groups: BTreeMap<String, GroupState> = BTreeMap::new();
        for pod in api.list(kinds::POD) {
            let record = record_of(pod, None);
            snap.phase_counts[phase_idx(record.phase)] += 1;
            if let Some(group) = &record.group {
                let g = groups.entry(format!("{}/{group}", pod.meta.namespace)).or_default();
                g.members.insert(Rc::clone(&pod.meta.name));
                if record.phase == PodPhase::Running && !record.deletion_requested {
                    g.ready.insert(Rc::clone(&pod.meta.name));
                }
                if let Some(t) = record.started_at_ns {
                    g.started.insert(Rc::clone(&pod.meta.name), t);
                }
            }
        }
        for (key, g) in groups {
            snap.groups.insert(key, g.snapshot());
        }
        snap
    }
}

impl GroupState {
    fn snapshot(&self) -> GroupSnapshot {
        GroupSnapshot {
            ready: self.ready.iter().map(|n| n.to_string()).collect(),
            started_at_ns: self.started.values().min().copied(),
        }
    }
}

/// What the cache keeps of `pod`, reusing the group handle of the pod's
/// previous record when it names the same group.
fn record_of(pod: &ApiObject, prev: Option<&PodRecord>) -> PodRecord {
    let group = pod.pod_spec().job_name.as_deref().map(|g| {
        match prev.and_then(|p| p.group.as_ref()).filter(|old| ***old == *g) {
            Some(old) => Rc::clone(old),
            None => Rc::from(g),
        }
    });
    PodRecord {
        phase: pod.pod_phase(),
        group,
        started_at_ns: pod.pod_status().and_then(|s| s.started_at_ns),
        deletion_requested: pod.meta.deletion_requested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
