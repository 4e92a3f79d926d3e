//! The pod scheduler: binds pending pods to ready nodes, honouring
//! per-node capacity and topology-spread groups (the constraint the
//! paper uses to place the two benchmark ranks on two nodes, §IV-A).
//!
//! Event-driven: pods enter the pending set via watch events and leave
//! when bound, deleted, or failed, and node occupancy is counted from
//! the same events; a poll that saw no events returns at once, and any
//! other poll costs O(events + pending).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use shs_des::SimTime;

use crate::api::{ApiServer, IdMap, ObjId, ObjKey, WatchType};
use crate::objects::{Kind, PodPhase, Spec, Status};

/// Where a counted pod sits: its node and topology-spread group.
type Placement = (Rc<str>, Option<Rc<str>>);

/// What the scheduler knows of one stored pod.
#[derive(Debug, Default)]
struct Tracked {
    /// Unbound and not terminating: it has a key in `pending`.
    pending: bool,
    /// Bound and not Failed: where it counts.
    placed: Option<Placement>,
}

/// Scheduler state (a controller; poll-driven).
#[derive(Debug, Default)]
pub struct Scheduler {
    last_rv: u64,
    /// Pods awaiting a binding, in (namespace, name) order — the order
    /// a pass binds them in. A pod's key joins when it turns pending and
    /// leaves when it stops, so an event that changes neither touches
    /// no key.
    pending: BTreeSet<(ObjKey, ObjId)>,
    /// Every stored pod as last seen on the watch stream (or bound
    /// here), with the two occupancy tallies derived from where the
    /// bound, non-Failed ones count: pods per node, and pods per (spread
    /// group, node), the group level first so a pod's candidates share
    /// one lookup.
    pods: IdMap<Tracked>,
    pods_on: BTreeMap<Rc<str>, u32>,
    group_on: BTreeMap<Rc<str>, BTreeMap<Rc<str>, u32>>,
    /// Pods bound over this scheduler's lifetime (diagnostics).
    pub(crate) bindings: u64,
}

impl Scheduler {
    /// Fresh scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// The rv this scheduler has consumed the watch log through.
    pub fn cursor(&self) -> u64 {
        self.last_rv
    }

    /// Pods awaiting a binding.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Mark pod `key` pending or not, keying it in `pending` only on a
    /// change.
    fn set_pending(&mut self, key: (ObjKey, ObjId), pending: bool) {
        let tracked = self.pods.entry(key.1).or_default();
        if tracked.pending != pending {
            tracked.pending = pending;
            if pending {
                self.pending.insert(key);
            } else {
                self.pending.remove(&key);
            }
        }
    }

    /// Record where pod `id` now counts — `Some((node, spread group))`,
    /// or `None` for nowhere — keeping the per-node and per-(group, node)
    /// tallies in step. An unchanged placement costs a comparison; a
    /// changed one reuses the name handles the tallies already hold.
    fn place(&mut self, id: ObjId, new: Option<(&str, Option<&str>)>) {
        let tracked = self.pods.entry(id).or_default();
        if tracked.placed.as_ref().map(|(n, g)| (&**n, g.as_deref())) == new {
            return;
        }
        if let Some(old) = tracked.placed.take() {
            self.count(&old, false);
        }
        if let Some((node, group)) = new {
            let node = handle(&self.pods_on, node);
            let new = (node, group.map(|g| handle(&self.group_on, g)));
            self.count(&new, true);
            self.pods.entry(id).or_default().placed = Some(new);
        }
    }

    fn count(&mut self, (node, group): &Placement, up: bool) {
        tally(&mut self.pods_on, node, up);
        if let Some(g) = group {
            if up {
                tally(self.group_on.entry(Rc::clone(g)).or_default(), node, true);
            } else if let Some(nodes) = self.group_on.get_mut(g) {
                tally(nodes, node, false);
                if nodes.is_empty() {
                    self.group_on.remove(g);
                }
            }
        }
    }

    /// One reconcile pass: bind every pending, non-terminating pod.
    /// Binding writes `spec.node_name` (the "binding" subresource).
    pub fn poll(&mut self, api: &mut ApiServer, _now: SimTime) {
        // Learn about new pods, bindings and departures from the watch
        // stream.
        let (events, rv) = api.events_since(self.last_rv);
        if events.is_empty() {
            // The store is as the last pass left it: whatever is still
            // pending stays unschedulable.
            return;
        }
        self.last_rv = rv;
        for ev in events {
            if ev.object.kind() != Kind::Pod {
                continue;
            }
            let id = ev.object.meta.id;
            match ev.kind {
                WatchType::Deleted => {
                    if let Some(tracked) = self.pods.remove(&id) {
                        if tracked.pending {
                            self.pending.remove(&(ev.object.key(), id));
                        }
                        if let Some(old) = tracked.placed {
                            self.count(&old, false);
                        }
                    }
                }
                _ => {
                    let spec = ev.object.pod_spec();
                    let pending = spec.node_name.is_none() && !ev.object.meta.deletion_requested;
                    self.set_pending((ev.object.key(), id), pending);
                    let counted = ev.object.pod_phase() != PodPhase::Failed;
                    let placement = spec
                        .node_name
                        .as_deref()
                        .filter(|_| counted)
                        .map(|n| (n, spec.spread_key.as_deref()));
                    self.place(id, placement);
                }
            }
        }
        if self.pending.is_empty() {
            return;
        }

        let nodes: Vec<(Rc<str>, u32)> = api
            .list(Kind::Node)
            .iter()
            .filter_map(|n| match (&*n.spec, &n.status) {
                (Spec::Node(spec), Status::Node(status)) if status.ready => {
                    Some((Rc::clone(&n.meta.name), spec.max_pods))
                }
                _ => None,
            })
            .collect();
        if nodes.is_empty() {
            return;
        }

        let work: Vec<(ObjKey, ObjId)> = self.pending.iter().cloned().collect();
        for key in work {
            let id = key.1;
            let Some(pod) = api.object(id).cloned() else {
                self.set_pending(key, false);
                continue;
            };
            if pod.meta.deletion_requested {
                self.set_pending(key, false);
                continue;
            }
            let spec = pod.pod_spec();
            // Candidates with capacity, ranked by (spread count, total
            // pods, name) for deterministic, spread-first placement. A
            // node selector (topology-aware rank placement) restricts
            // the candidate set before ranking.
            let spread = spec.spread_key.as_deref().and_then(|g| self.group_on.get(g));
            let mut best: Option<(u32, u32, &str)> = None;
            for (node, max) in &nodes {
                if let Some(sel) = &spec.node_selector {
                    if !sel.iter().any(|s| **s == **node) {
                        continue;
                    }
                }
                let total = self.pods_on.get(node).copied().unwrap_or(0);
                if total >= *max {
                    continue;
                }
                let group = spread.and_then(|on| on.get(node)).copied().unwrap_or(0);
                let cand = (group, total, &**node);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, _, chosen)) = best else { continue }; // no capacity: stays pending
            let mut bound = spec.clone();
            bound.node_name = Some(chosen.to_string());
            let bound = Rc::new(Spec::Pod(bound));
            api.edit_id(id, |o| o.spec = bound).expect("pod exists");
            self.place(id, Some((chosen, spec.spread_key.as_deref())));
            self.bindings += 1;
            self.set_pending(key, false);
        }
    }
}

/// Count one pod on (`up`) or off a tally, dropping entries at zero.
fn tally(counts: &mut BTreeMap<Rc<str>, u32>, key: &Rc<str>, up: bool) {
    if up {
        *counts.entry(Rc::clone(key)).or_insert(0) += 1;
    } else if let Some(n) = counts.get_mut(key) {
        *n -= 1;
        if *n == 0 {
            counts.remove(key);
        }
    }
}

/// `name` as a handle: the key `map` already holds for it, if any.
fn handle<T>(map: &BTreeMap<Rc<str>, T>, name: &str) -> Rc<str> {
    map.get_key_value(name).map_or_else(|| Rc::from(name), |(k, _)| Rc::clone(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiObject;
    use crate::objects::{kinds, make_node};
    use serde_json::json;

    /// The node a pod is bound to.
    fn bound_node(api: &ApiServer, namespace: &str, name: &str) -> Option<String> {
        api.get(kinds::POD, namespace, name)?.pod_spec().node_name.clone()
    }

    fn pod(ns: &str, name: &str, spread: Option<&str>) -> ApiObject {
        ApiObject::new(
            kinds::POD,
            ns,
            name,
            json!({
                "image": "alpine",
                "spread_key": spread,
            }),
        )
    }

    fn select(pod: &mut ApiObject, nodes: &[&str]) {
        let Spec::Pod(spec) = Rc::make_mut(&mut pod.spec) else { unreachable!() };
        spec.node_selector = Some(nodes.iter().map(|n| n.to_string()).collect());
    }

    fn cluster(api: &mut ApiServer, nodes: &[(&str, u32)]) {
        for (n, max) in nodes {
            api.create(make_node(n, *max), SimTime::ZERO).unwrap();
        }
    }

    #[test]
    fn binds_pending_pods_round_robin_by_load() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10)]);
        for i in 0..4 {
            api.create(pod("ns", &format!("p{i}"), None), SimTime::ZERO).unwrap();
        }
        Scheduler::new().poll(&mut api, SimTime::ZERO);
        let mut counts = BTreeMap::new();
        for i in 0..4 {
            let n = bound_node(&api, "ns", &format!("p{i}")).expect("bound");
            *counts.entry(n).or_insert(0) += 1;
        }
        assert_eq!(counts.get("n0"), Some(&2));
        assert_eq!(counts.get("n1"), Some(&2));
    }

    #[test]
    fn topology_spread_splits_a_group_across_nodes() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10)]);
        // Pre-load n0 with unrelated pods so naive least-loaded would
        // put both group members on n1.
        for i in 0..3 {
            api.create(pod("ns", &format!("bg{i}"), None), SimTime::ZERO).unwrap();
        }
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        api.create(pod("ns", "osu-0", Some("osu")), SimTime::ZERO).unwrap();
        api.create(pod("ns", "osu-1", Some("osu")), SimTime::ZERO).unwrap();
        s.poll(&mut api, SimTime::ZERO);
        let a = bound_node(&api, "ns", "osu-0").unwrap();
        let b = bound_node(&api, "ns", "osu-1").unwrap();
        assert_ne!(a, b, "spread group must land on distinct nodes");
    }

    #[test]
    fn respects_node_capacity_and_retries_later() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 2)]);
        for i in 0..3 {
            api.create(pod("ns", &format!("p{i}"), None), SimTime::ZERO).unwrap();
        }
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        let bound = (0..3)
            .filter(|i| bound_node(&api, "ns", &format!("p{i}")).is_some())
            .count();
        assert_eq!(bound, 2, "third pod must stay pending");
        assert_eq!(s.pending(), 1);
        // Free a slot (delete a bound pod) and re-poll: the third binds.
        api.delete(kinds::POD, "ns", "p0").unwrap();
        s.poll(&mut api, SimTime::ZERO);
        let bound = (0..3)
            .filter(|i| bound_node(&api, "ns", &format!("p{i}")).is_some())
            .count();
        assert_eq!(bound, 2, "p1 still bound + p2 newly bound");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn node_selector_restricts_candidates() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10), ("n2", 10)]);
        // n0 is least loaded overall, but the selector excludes it.
        let mut p = pod("ns", "pinned", None);
        select(&mut p, &["n1", "n2"]);
        api.create(p, SimTime::ZERO).unwrap();
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!(bound_node(&api, "ns", "pinned").as_deref(), Some("n1"));
        // A selector naming no schedulable node leaves the pod pending.
        let mut q = pod("ns", "stuck", None);
        select(&mut q, &["n9"]);
        api.create(q, SimTime::ZERO).unwrap();
        s.poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "stuck").is_none());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn skips_terminating_pods() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10)]);
        let mut dying = pod("ns", "dying", None);
        dying.meta.finalizers.push("x".into());
        api.create(dying, SimTime::ZERO).unwrap();
        api.delete(kinds::POD, "ns", "dying").unwrap();
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "dying").is_none());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn unready_nodes_get_nothing() {
        let mut api = ApiServer::default();
        let mut node = make_node("n0", 10);
        node.status = Status::Node(crate::objects::NodeStatus { ready: false });
        api.create(node, SimTime::ZERO).unwrap();
        api.create(pod("ns", "p", None), SimTime::ZERO).unwrap();
        Scheduler::new().poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "p").is_none());
    }

    /// The pre-index occupancy: list and read every pod (test oracle).
    #[allow(clippy::type_complexity)]
    fn scan_occupancy(api: &ApiServer) -> (BTreeMap<String, u32>, BTreeMap<(String, String), u32>) {
        let mut pods_on = BTreeMap::new();
        let mut group_on = BTreeMap::new();
        for pod in api.list(kinds::POD) {
            if pod.pod_phase() == PodPhase::Failed {
                continue;
            }
            let spec = pod.pod_spec();
            if let Some(node) = &spec.node_name {
                *pods_on.entry(node.clone()).or_insert(0) += 1;
                if let Some(g) = &spec.spread_key {
                    *group_on.entry((g.clone(), node.clone())).or_insert(0) += 1;
                }
            }
        }
        (pods_on, group_on)
    }

    #[test]
    fn watch_tallied_occupancy_equals_a_full_scan_under_churn() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 6), ("n1", 6), ("n2", 4)]);
        let mut s = Scheduler::new();
        let check = |s: &Scheduler, api: &ApiServer, at: &str| {
            let pods_on = s.pods_on.iter().map(|(n, c)| (n.to_string(), *c)).collect();
            let group_on = s
                .group_on
                .iter()
                .flat_map(|(g, on)| on.iter().map(move |(n, c)| ((g.to_string(), n.to_string()), *c)))
                .collect();
            assert_eq!((pods_on, group_on), scan_occupancy(api), "{at}");
        };
        for round in 0..40u32 {
            let group = format!("g{}", round % 5);
            for i in 0..3 {
                let mut p = pod("ns", &format!("r{round}-{i}"), (i > 0).then_some(group.as_str()));
                if i == 2 {
                    p.meta.finalizers.push("hold".into());
                }
                api.create(p, SimTime::ZERO).unwrap();
            }
            s.poll(&mut api, SimTime::ZERO);
            check(&s, &api, "after bind");
            // Churn an earlier round: one pod fails (frees its seat while
            // still stored), one is reaped, one lingers terminating.
            if let Some(old) = round.checked_sub(3) {
                let _ = api.mutate(kinds::POD, "ns", &format!("r{old}-0"), |o| {
                    o.status = json!({"phase": "Failed"});
                });
                let _ = api.delete(kinds::POD, "ns", &format!("r{old}-1"));
                let _ = api.delete(kinds::POD, "ns", &format!("r{old}-2"));
            }
            if let Some(older) = round.checked_sub(6) {
                let _ = api.remove_finalizer(kinds::POD, "ns", &format!("r{older}-2"), "hold");
                let _ = api.delete(kinds::POD, "ns", &format!("r{older}-0"));
            }
            s.poll(&mut api, SimTime::ZERO);
            check(&s, &api, "after churn");
        }
        assert!(s.bindings > 40, "capacity kept turning over: {}", s.bindings);
    }

    #[test]
    fn eventless_poll_with_100_unschedulable_pods_is_a_noop() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 50), ("n1", 50)]);
        for i in 0..200 {
            api.create(pod("ns", &format!("p{i:03}"), None), SimTime::ZERO).unwrap();
        }
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO); // binds 100
        s.poll(&mut api, SimTime::ZERO); // ingests its own 100 binding events
        assert_eq!((s.pending(), s.bindings), (100, 100));
        let (requests, rv) = (api.requests, api.latest_rv());
        for _ in 0..10 {
            s.poll(&mut api, SimTime::ZERO);
        }
        assert_eq!((api.requests, api.latest_rv()), (requests, rv), "nothing written");
        assert_eq!((s.pending(), s.bindings), (100, 100));
        // One seat frees up: exactly one more pod binds.
        api.delete(kinds::POD, "ns", "p000").unwrap();
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!((s.pending(), s.bindings), (99, 101));
        assert_eq!(s.pods_on.values().sum::<u32>(), 100);
    }

    #[test]
    fn empty_pending_poll_is_cheap_noop() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10)]);
        let mut s = Scheduler::new();
        let before = api.requests;
        s.poll(&mut api, SimTime::ZERO);
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!(api.requests, before, "no API mutations on idle polls");
    }
}
