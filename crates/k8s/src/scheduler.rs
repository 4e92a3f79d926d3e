//! The pod scheduler: binds pending pods to ready nodes, honouring
//! per-node capacity and topology-spread groups (the constraint the
//! paper uses to place the two benchmark ranks on two nodes, §IV-A).
//!
//! Event-driven: pods enter the pending set via watch events and leave
//! when bound, deleted, or failed, and node occupancy is counted from
//! the same events; a poll that saw no events returns at once, and any
//! other poll costs O(events + pending).

use std::collections::{BTreeMap, BTreeSet};

use shs_des::SimTime;

use crate::api::{ApiServer, WatchType};
use crate::objects::{kinds, pod_phase, spec_of, PodPhase, PodSpec};

type PodKey = (String, String); // namespace, name

/// Where a counted pod sits: its node and topology-spread group.
type Placement = (String, Option<String>);

/// Scheduler state (a controller; poll-driven).
#[derive(Debug, Default)]
pub struct Scheduler {
    last_rv: u64,
    pending: BTreeSet<PodKey>,
    /// Every stored pod that is bound and not Failed, as last seen on
    /// the watch stream (or bound here), with the two occupancy tallies
    /// derived from it.
    placed: BTreeMap<PodKey, Placement>,
    pods_on: BTreeMap<String, u32>,
    group_on: BTreeMap<(String, String), u32>,
    /// Pods bound over this scheduler's lifetime (diagnostics).
    pub bindings: u64,
}

impl Scheduler {
    /// Fresh scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Pods awaiting a binding.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Record where `key` now counts (`None`: nowhere), keeping the
    /// per-node and per-(group, node) tallies in step.
    fn place(&mut self, key: &PodKey, new: Option<Placement>) {
        if self.placed.get(key) == new.as_ref() {
            return;
        }
        if let Some(old) = self.placed.remove(key) {
            self.count(&old, false);
        }
        if let Some(new) = new {
            self.count(&new, true);
            self.placed.insert(key.clone(), new);
        }
    }

    fn count(&mut self, (node, group): &Placement, up: bool) {
        tally(&mut self.pods_on, node.clone(), up);
        if let Some(g) = group {
            tally(&mut self.group_on, (g.clone(), node.clone()), up);
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
        for ev in &events {
            if ev.object.kind != kinds::POD {
                continue;
            }
            let key = (ev.object.meta.namespace.clone(), ev.object.meta.name.clone());
            match ev.kind {
                WatchType::Deleted => {
                    self.pending.remove(&key);
                    self.place(&key, None);
                }
                _ => {
                    let spec: PodSpec = spec_of(&ev.object);
                    if spec.node_name.is_none() && !ev.object.meta.deletion_requested {
                        self.pending.insert(key.clone());
                    } else {
                        self.pending.remove(&key);
                    }
                    let counted = pod_phase(&ev.object) != PodPhase::Failed;
                    let placement = spec.node_name.filter(|_| counted).map(|n| (n, spec.spread_key));
                    self.place(&key, placement);
                }
            }
        }
        if self.pending.is_empty() {
            return;
        }

        let nodes: Vec<(String, u32)> = api
            .list(kinds::NODE)
            .iter()
            .filter(|n| n.status["ready"] == serde_json::json!(true))
            .map(|n| {
                let max = n.spec["maxPods"].as_u64().unwrap_or(110) as u32;
                (n.meta.name.clone(), max)
            })
            .collect();
        if nodes.is_empty() {
            return;
        }

        let work: Vec<PodKey> = self.pending.iter().cloned().collect();
        for key in work {
            let Some(pod) = api.get(kinds::POD, &key.0, &key.1) else {
                self.pending.remove(&key);
                continue;
            };
            if pod.meta.deletion_requested {
                self.pending.remove(&key);
                continue;
            }
            let spec: PodSpec = spec_of(pod);
            // Candidates with capacity, ranked by (spread count, total
            // pods, name) for deterministic, spread-first placement. A
            // node selector (topology-aware rank placement) restricts
            // the candidate set before ranking.
            let mut best: Option<(u32, u32, &str)> = None;
            for (node, max) in &nodes {
                if let Some(sel) = &spec.node_selector {
                    if !sel.contains(node) {
                        continue;
                    }
                }
                let total = self.pods_on.get(node).copied().unwrap_or(0);
                if total >= *max {
                    continue;
                }
                let group = spec
                    .spread_key
                    .as_ref()
                    .map(|g| self.group_on.get(&(g.clone(), node.clone())).copied().unwrap_or(0))
                    .unwrap_or(0);
                let cand = (group, total, node.as_str());
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, _, chosen)) = best else { continue }; // no capacity: stays pending
            let chosen = chosen.to_string();
            api.mutate(kinds::POD, &key.0, &key.1, |o| {
                let mut s: PodSpec = spec_of(o);
                s.node_name = Some(chosen.clone());
                o.spec = serde_json::to_value(s).expect("PodSpec serializes");
            })
            .expect("pod exists");
            self.place(&key, Some((chosen, spec.spread_key)));
            self.bindings += 1;
            self.pending.remove(&key);
        }
    }
}

/// Count one pod on (`up`) or off a tally, dropping entries at zero.
fn tally<K: Ord>(counts: &mut BTreeMap<K, u32>, key: K, up: bool) {
    if up {
        *counts.entry(key).or_insert(0) += 1;
    } else if let Some(n) = counts.get_mut(&key) {
        *n -= 1;
        if *n == 0 {
            counts.remove(&key);
        }
    }
}

/// Convenience: the node a pod is bound to.
pub fn bound_node(api: &ApiServer, namespace: &str, name: &str) -> Option<String> {
    let pod = api.get(kinds::POD, namespace, name)?;
    let spec: PodSpec = spec_of(pod);
    spec.node_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiObject;
    use crate::objects::make_node;
    use serde_json::json;

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
        p.spec["node_selector"] = json!(["n1", "n2"]);
        api.create(p, SimTime::ZERO).unwrap();
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!(bound_node(&api, "ns", "pinned").as_deref(), Some("n1"));
        // A selector naming no schedulable node leaves the pod pending.
        let mut q = pod("ns", "stuck", None);
        q.spec["node_selector"] = json!(["n9"]);
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
        node.status = json!({"ready": false});
        api.create(node, SimTime::ZERO).unwrap();
        api.create(pod("ns", "p", None), SimTime::ZERO).unwrap();
        Scheduler::new().poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "p").is_none());
    }

    /// The pre-index occupancy: list and decode every pod (test oracle).
    #[allow(clippy::type_complexity)]
    fn scan_occupancy(api: &ApiServer) -> (BTreeMap<String, u32>, BTreeMap<(String, String), u32>) {
        let mut pods_on = BTreeMap::new();
        let mut group_on = BTreeMap::new();
        for pod in api.list(kinds::POD) {
            if pod_phase(pod) == PodPhase::Failed {
                continue;
            }
            let spec: PodSpec = spec_of(pod);
            if let Some(node) = spec.node_name {
                *pods_on.entry(node.clone()).or_insert(0) += 1;
                if let Some(g) = spec.spread_key {
                    *group_on.entry((g, node)).or_insert(0) += 1;
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
            assert_eq!((s.pods_on.clone(), s.group_on.clone()), scan_occupancy(api), "{at}");
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
