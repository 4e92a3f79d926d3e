//! The kubelet: per-node pod lifecycle pipeline.
//!
//! Pods bound to this node flow through sandbox creation → CNI ADD →
//! container start → running → succeeded, and on deletion through CNI
//! DEL → sandbox removal → finalizer release. Setup and teardown draw
//! from bounded worker pools; the resulting queueing is what makes job
//! admission lag behind submission once the arrival rate crosses the
//! service rate (the knee at ~batch 7 in the paper's Fig. 10).
//!
//! Node-specific work (runtime, CNI chain, CXI device) is delegated to a
//! [`NodeBackend`], implemented by the composition layer.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;

use shs_des::{SimDur, SimTime};
use shs_oslinux::NetNsId;

use crate::api::{ApiObject, ApiServer, WatchType};
use crate::job::KUBELET_FINALIZER;
use crate::objects::{kinds, spec_of, PodPhase, PodSpec, PodStatus};

/// Outcome of a CNI ADD attempt, as seen by the kubelet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CniAddOutcome {
    /// Networking configured; cost charged.
    Ok(SimDur),
    /// Failed (e.g. required VNI CRD not yet present, §III-B: "If no VNI
    /// could be fetched ... the container will fail to launch"). The
    /// kubelet pays the cost, tears the sandbox down and retries later.
    Retry(SimDur),
    /// Permanent failure (pod goes to Failed).
    Fatal(SimDur, String),
}

/// Node-side operations the kubelet drives.
pub trait NodeBackend {
    /// Create the pod sandbox (pause process + netns). Returns the netns
    /// and the cost.
    fn create_sandbox(&mut self, pod: &ApiObject) -> Result<(NetNsId, SimDur), String>;
    /// Run the CNI chain ADD for the sandbox. Receives read access to
    /// the API server: the paper's CXI plugin "queries the Kubernetes
    /// management plane" for pod annotations and the VNI CRD (§III-B).
    fn cni_add(&mut self, api: &ApiServer, pod: &ApiObject, netns: NetNsId) -> CniAddOutcome;
    /// Pull image(s) and start containers; returns (cost, workload
    /// duration — `None` runs until killed).
    fn start_workload(&mut self, pod: &ApiObject) -> Result<(SimDur, Option<SimDur>), String>;
    /// Run the CNI chain DEL. Must be idempotent.
    fn cni_del(&mut self, pod: &ApiObject, netns: NetNsId) -> SimDur;
    /// Tear down the sandbox.
    fn remove_sandbox(&mut self, pod: &ApiObject) -> SimDur;
}

/// Kubelet tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KubeletParams {
    /// Size of the pod-worker pool. One slot is statically reserved for
    /// teardown (when `workers > 1`); the rest serve setup. Teardown may
    /// additionally borrow setup slots while the setup queue is idle.
    /// Teardown capacity below the completion rate is what lets running
    /// jobs pile up in the paper's Figs. 9 and 11; the static split keeps
    /// setup throughput independent of *when* deletions arrive.
    pub workers: usize,
    /// Per-pod bookkeeping before the pipeline starts.
    pub sync_overhead: SimDur,
    /// Backoff before retrying a failed CNI ADD.
    pub retry_backoff: SimDur,
    /// Give up after this many CNI retries.
    pub max_attempts: u32,
}

impl Default for KubeletParams {
    fn default() -> Self {
        KubeletParams {
            workers: 3,
            sync_overhead: SimDur::from_millis(40),
            retry_backoff: SimDur::from_millis(2000),
            max_attempts: 10,
        }
    }
}

type PodKey = (String, String); // namespace, name

#[derive(Debug, Clone, PartialEq)]
enum Stage {
    QueuedSetup,
    CreatingSandbox { done: SimTime },
    CniAdd { done: SimTime },
    Starting { done: SimTime },
    Running { exits: Option<SimTime> },
    Succeeded,
    RetryWait { at: SimTime },
    Failed,
    QueuedTeardown,
    CniDel { done: SimTime },
    RemovingSandbox { done: SimTime },
}

impl Stage {
    /// The instant this stage completes on its own, if it has one.
    fn deadline(&self) -> Option<SimTime> {
        match *self {
            Stage::CreatingSandbox { done }
            | Stage::CniAdd { done }
            | Stage::Starting { done }
            | Stage::CniDel { done }
            | Stage::RemovingSandbox { done } => Some(done),
            Stage::Running { exits } => exits,
            Stage::RetryWait { at } => Some(at),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct PodWork {
    /// The latest watch snapshot (shared with the event log).
    pod: Rc<ApiObject>,
    stage: Stage,
    netns: Option<NetNsId>,
    attempts: u32,
    terminating: bool,
    run_duration: Option<SimDur>,
    /// When the pod entered its current queue (exact dispatch chaining).
    enqueued_at: SimTime,
    /// Teardown borrowed a setup slot (returned there on completion).
    borrowed_setup_slot: bool,
}

/// Kubelet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KubeletCounters {
    /// Pods started successfully.
    pub pods_started: u64,
    /// Pods fully torn down.
    pub pods_removed: u64,
    /// CNI ADD retries.
    pub cni_retries: u64,
    /// Pods marked Failed.
    pub pods_failed: u64,
}

/// The kubelet for one node.
#[derive(Debug)]
pub struct Kubelet {
    /// Node name this kubelet serves.
    pub node: String,
    params: KubeletParams,
    last_rv: u64,
    work: BTreeMap<(String, String), PodWork>,
    setup_q: VecDeque<(String, String)>,
    teardown_q: VecDeque<(String, String)>,
    /// Exact instants at which idle setup-pool slots became free. Slots
    /// are released at exact stage-completion times (not tick
    /// boundaries), so back-to-back pipelines chain without quantization
    /// — millisecond cost differences (e.g. the CXI CNI plugin's extra
    /// work) translate into honest service-rate differences.
    setup_slots: BinaryHeap<Reverse<SimTime>>,
    /// The statically reserved teardown slot(s).
    teardown_slots: BinaryHeap<Reverse<SimTime>>,
    /// One `(instant, pod key)` entry per timed stage entered: the only
    /// pods [`Self::advance_stages`] looks at are those with an entry
    /// that has come due. Entries whose pod has since moved on or gone
    /// are dropped when they surface.
    deadlines: BinaryHeap<Reverse<(SimTime, PodKey)>>,
    /// Pods `advance_stages` looked at (diagnostics): grows with due
    /// deadlines, not with tracked pods.
    pub stage_visits: u64,
    /// Counters.
    pub counters: KubeletCounters,
}

impl Kubelet {
    /// Kubelet for `node`.
    pub fn new(node: impl Into<String>, params: KubeletParams) -> Self {
        let reserved = if params.workers > 1 { 1 } else { 0 };
        let mut setup_slots = BinaryHeap::with_capacity(params.workers);
        for _ in 0..params.workers - reserved {
            setup_slots.push(Reverse(SimTime::ZERO));
        }
        let mut teardown_slots = BinaryHeap::with_capacity(reserved.max(1));
        for _ in 0..reserved {
            teardown_slots.push(Reverse(SimTime::ZERO));
        }
        Kubelet {
            node: node.into(),
            params,
            last_rv: 0,
            work: BTreeMap::new(),
            setup_q: VecDeque::new(),
            teardown_q: VecDeque::new(),
            setup_slots,
            teardown_slots,
            deadlines: BinaryHeap::new(),
            stage_visits: 0,
            counters: KubeletCounters::default(),
        }
    }

    /// Pods currently tracked.
    pub fn tracked(&self) -> usize {
        self.work.len()
    }

    /// One sync pass at `now`. Advancing and dispatching alternate until
    /// a fixed point: a slot released mid-tick can be re-used by queued
    /// work within the same poll (its pipeline stages are computed from
    /// the exact release instant).
    pub fn poll<B: NodeBackend>(&mut self, api: &mut ApiServer, backend: &mut B, now: SimTime) {
        self.ingest_events(api, now);
        loop {
            let a = self.advance_stages(api, backend, now);
            let d = self.dispatch_queues(api, backend, now);
            if !a && !d {
                break;
            }
        }
    }

    fn ingest_events(&mut self, api: &mut ApiServer, now: SimTime) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;
        for ev in events {
            if ev.object.kind != kinds::POD {
                continue;
            }
            let spec: PodSpec = spec_of(&ev.object);
            if spec.node_name.as_deref() != Some(self.node.as_str()) {
                continue;
            }
            let key = (ev.object.meta.namespace.clone(), ev.object.meta.name.clone());
            match ev.kind {
                WatchType::Added | WatchType::Modified => {
                    let terminating = ev.object.meta.deletion_requested;
                    match self.work.get_mut(&key) {
                        None => {
                            if terminating {
                                // Never started here: just release our finalizer.
                                let _ = api.remove_finalizer(
                                    kinds::POD,
                                    &key.0,
                                    &key.1,
                                    KUBELET_FINALIZER,
                                );
                                continue;
                            }
                            self.work.insert(
                                key.clone(),
                                PodWork {
                                    pod: Rc::clone(&ev.object),
                                    stage: Stage::QueuedSetup,
                                    netns: None,
                                    attempts: 0,
                                    terminating: false,
                                    run_duration: None,
                                    enqueued_at: now,
                                    borrowed_setup_slot: false,
                                },
                            );
                            self.setup_q.push_back(key);
                        }
                        Some(w) => {
                            w.pod = Rc::clone(&ev.object);
                            if terminating && !w.terminating {
                                w.terminating = true;
                                // Pods idle in a terminal or waiting state
                                // move to teardown immediately; pods mid-
                                // pipeline convert when their stage ends.
                                match w.stage {
                                    Stage::Running { .. }
                                    | Stage::Succeeded
                                    | Stage::Failed
                                    | Stage::RetryWait { .. } => {
                                        w.stage = Stage::QueuedTeardown;
                                        w.enqueued_at = now;
                                        self.teardown_q.push_back(key);
                                    }
                                    Stage::QueuedSetup => {
                                        // Remove from setup queue; nothing
                                        // was created yet.
                                        w.stage = Stage::QueuedTeardown;
                                        w.enqueued_at = now;
                                        self.setup_q.retain(|k| k != &key);
                                        self.teardown_q.push_back(key);
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }
                WatchType::Deleted => {
                    // Object reaped (finalizer released earlier).
                    self.work.remove(&key);
                }
            }
        }
    }

    fn advance_stages<B: NodeBackend>(
        &mut self,
        api: &mut ApiServer,
        backend: &mut B,
        now: SimTime,
    ) -> bool {
        let mut progressed = false;
        let mut due: Vec<PodKey> = Vec::new();
        while self.deadlines.peek().is_some_and(|Reverse((t, _))| *t <= now) {
            let Reverse((_, key)) = self.deadlines.pop().expect("peeked");
            due.push(key);
        }
        // Visit in (namespace, name) order — the order a scan over `work`
        // would use — so API writes land in the same sequence.
        due.sort_unstable();
        due.dedup();
        for key in due {
            self.stage_visits += 1;
            while let Some(w) = self.work.get_mut(&key) {
                match w.stage.clone() {
                    Stage::CreatingSandbox { done } if done <= now => {
                        match backend.cni_add(api, &w.pod, w.netns.expect("sandbox created")) {
                            CniAddOutcome::Ok(cost) => {
                                w.stage = Stage::CniAdd { done: done + cost };
                            }
                            CniAddOutcome::Retry(cost) => {
                                self.counters.cni_retries += 1;
                                let netns = w.netns.take().expect("sandbox created");
                                let del = backend.cni_del(&w.pod, netns);
                                let rm = backend.remove_sandbox(&w.pod);
                                w.attempts += 1;
                                self.setup_slots.push(Reverse(done + cost + del + rm));
                                if w.attempts >= self.params.max_attempts {
                                    w.stage = Stage::Failed;
                                    self.counters.pods_failed += 1;
                                    Self::write_phase(
                                        api,
                                        &key,
                                        PodPhase::Failed,
                                        None,
                                        Some("CNI ADD retries exhausted".into()),
                                    );
                                } else {
                                    w.stage = Stage::RetryWait {
                                        at: done + cost + del + rm + self.params.retry_backoff,
                                    };
                                }
                            }
                            CniAddOutcome::Fatal(cost, msg) => {
                                let netns = w.netns.take().expect("sandbox created");
                                let del = backend.cni_del(&w.pod, netns);
                                let rm = backend.remove_sandbox(&w.pod);
                                self.setup_slots.push(Reverse(done + cost + del + rm));
                                w.stage = Stage::Failed;
                                self.counters.pods_failed += 1;
                                Self::write_phase(api, &key, PodPhase::Failed, None, Some(msg));
                            }
                        }
                    }
                    Stage::CniAdd { done } if done <= now => {
                        match backend.start_workload(&w.pod) {
                            Ok((cost, run)) => {
                                w.run_duration = run;
                                w.stage = Stage::Starting { done: done + cost };
                            }
                            Err(msg) => {
                                self.setup_slots.push(Reverse(done));
                                w.stage = Stage::Failed;
                                self.counters.pods_failed += 1;
                                Self::write_phase(api, &key, PodPhase::Failed, None, Some(msg));
                            }
                        }
                    }
                    Stage::Starting { done } if done <= now => {
                        self.setup_slots.push(Reverse(done));
                        self.counters.pods_started += 1;
                        let exits = w.run_duration.map(|d| done + d);
                        w.stage = Stage::Running { exits };
                        Self::write_phase(
                            api,
                            &key,
                            PodPhase::Running,
                            Some(done.as_nanos()),
                            None,
                        );
                        if w.terminating {
                            w.stage = Stage::QueuedTeardown;
                            w.enqueued_at = done;
                            self.teardown_q.push_back(key.clone());
                        }
                    }
                    Stage::Running { exits: Some(t) } if t <= now => {
                        w.stage = Stage::Succeeded;
                        Self::write_phase(api, &key, PodPhase::Succeeded, None, None);
                    }
                    Stage::RetryWait { at } if at <= now => {
                        w.enqueued_at = at;
                        if w.terminating {
                            w.stage = Stage::QueuedTeardown;
                            self.teardown_q.push_back(key.clone());
                        } else {
                            // Retries go to the *front*: the real kubelet
                            // retries each pod in its own worker, so a
                            // retry must not displace the pod behind every
                            // later arrival (that would skew the admission
                            // distribution of the whole burst).
                            w.stage = Stage::QueuedSetup;
                            self.setup_q.push_front(key.clone());
                        }
                    }
                    Stage::CniDel { done } if done <= now => {
                        let cost = backend.remove_sandbox(&w.pod);
                        w.stage = Stage::RemovingSandbox { done: done + cost };
                    }
                    Stage::RemovingSandbox { done } if done <= now => {
                        if w.borrowed_setup_slot {
                            self.setup_slots.push(Reverse(done));
                        } else {
                            self.teardown_slots.push(Reverse(done));
                        }
                        self.counters.pods_removed += 1;
                        let _ = api.remove_finalizer(
                            kinds::POD,
                            &key.0,
                            &key.1,
                            KUBELET_FINALIZER,
                        );
                        self.work.remove(&key);
                    }
                    _ => break,
                }
                progressed = true;
                // Loop again while the next stage is already due at `now`
                // (or is not timed); otherwise park on its deadline.
                match self.work.get(&key).and_then(|w| w.stage.deadline()) {
                    Some(t) if t <= now => {}
                    Some(t) => {
                        self.deadlines.push(Reverse((t, key.clone())));
                        break;
                    }
                    None => break,
                }
            }
        }
        progressed
    }

    fn dispatch_queues<B: NodeBackend>(
        &mut self,
        api: &mut ApiServer,
        backend: &mut B,
        now: SimTime,
    ) -> bool {
        let mut progressed = false;
        // Setup pool.
        while let Some(&Reverse(slot)) = self.setup_slots.peek() {
            if slot > now || self.setup_q.is_empty() {
                break;
            }
            let key = self.setup_q.pop_front().expect("non-empty");
            let Some(w) = self.work.get_mut(&key) else { continue };
            if w.stage != Stage::QueuedSetup {
                continue; // converted to teardown meanwhile
            }
            match backend.create_sandbox(&w.pod) {
                Ok((netns, cost)) => {
                    self.setup_slots.pop();
                    let start = slot.max(w.enqueued_at);
                    w.netns = Some(netns);
                    let done = start + self.params.sync_overhead + cost;
                    w.stage = Stage::CreatingSandbox { done };
                    self.deadlines.push(Reverse((done, key)));
                    progressed = true;
                }
                Err(msg) => {
                    w.stage = Stage::Failed;
                    self.counters.pods_failed += 1;
                    Self::write_phase(api, &key, PodPhase::Failed, None, Some(msg));
                }
            }
        }
        // Teardown pool: its reserved slot(s) plus, while the setup queue
        // is idle, borrowed setup slots (deletions trickle through a
        // submission burst — the partial drain of Figs. 9/11 — and use
        // the whole pool once arrivals stop).
        loop {
            let own = self.teardown_slots.peek().map(|&Reverse(t)| t).filter(|&t| t <= now);
            let borrow = if self.setup_q.is_empty() {
                self.setup_slots.peek().map(|&Reverse(t)| t).filter(|&t| t <= now)
            } else {
                None
            };
            let (slot, borrowed) = match (own, borrow) {
                (Some(o), Some(b)) if b < o => (b, true),
                (Some(o), _) => (o, false),
                (None, Some(b)) => (b, true),
                (None, None) => break,
            };
            let Some(key) = self.teardown_q.pop_front() else { break };
            let Some(w) = self.work.get_mut(&key) else { continue };
            if w.stage != Stage::QueuedTeardown {
                continue;
            }
            match w.netns {
                Some(netns) => {
                    if borrowed {
                        self.setup_slots.pop();
                    } else {
                        self.teardown_slots.pop();
                    }
                    w.borrowed_setup_slot = borrowed;
                    let start = slot.max(w.enqueued_at);
                    let cost = backend.cni_del(&w.pod, netns);
                    let done = start + cost;
                    w.stage = Stage::CniDel { done };
                    self.deadlines.push(Reverse((done, key)));
                    progressed = true;
                }
                None => {
                    // Nothing was ever set up.
                    self.counters.pods_removed += 1;
                    let _ =
                        api.remove_finalizer(kinds::POD, &key.0, &key.1, KUBELET_FINALIZER);
                    self.work.remove(&key);
                    progressed = true;
                }
            }
        }
        progressed
    }

    fn write_phase(
        api: &mut ApiServer,
        key: &(String, String),
        phase: PodPhase,
        started_at_ns: Option<u64>,
        message: Option<String>,
    ) {
        let _ = api.mutate(kinds::POD, &key.0, &key.1, |o| {
            let mut st: PodStatus = crate::objects::status_of(o).unwrap_or(PodStatus {
                phase: PodPhase::Pending,
                started_at_ns: None,
                message: None,
            });
            st.phase = phase;
            if started_at_ns.is_some() {
                st.started_at_ns = started_at_ns;
            }
            if message.is_some() {
                st.message = message;
            }
            o.status = serde_json::to_value(st).expect("PodStatus serializes");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::pod_phase;
    use serde_json::json;

    /// Scripted backend with fixed costs.
    struct MockBackend {
        next_netns: u64,
        cni_fail_times: u32,
        fatal: bool,
    }

    impl Default for MockBackend {
        fn default() -> Self {
            MockBackend { next_netns: 100, cni_fail_times: 0, fatal: false }
        }
    }

    impl NodeBackend for MockBackend {
        fn create_sandbox(&mut self, _pod: &ApiObject) -> Result<(NetNsId, SimDur), String> {
            self.next_netns += 1;
            Ok((NetNsId(self.next_netns), SimDur::from_millis(200)))
        }
        fn cni_add(&mut self, _api: &ApiServer, _pod: &ApiObject, _netns: NetNsId) -> CniAddOutcome {
            if self.fatal {
                return CniAddOutcome::Fatal(SimDur::from_millis(10), "no claim".into());
            }
            if self.cni_fail_times > 0 {
                self.cni_fail_times -= 1;
                return CniAddOutcome::Retry(SimDur::from_millis(10));
            }
            CniAddOutcome::Ok(SimDur::from_millis(50))
        }
        fn start_workload(&mut self, pod: &ApiObject) -> Result<(SimDur, Option<SimDur>), String> {
            let spec: PodSpec = spec_of(pod);
            Ok((SimDur::from_millis(150), spec.run_ms.map(SimDur::from_millis)))
        }
        fn cni_del(&mut self, _pod: &ApiObject, _netns: NetNsId) -> SimDur {
            SimDur::from_millis(20)
        }
        fn remove_sandbox(&mut self, _pod: &ApiObject) -> SimDur {
            SimDur::from_millis(80)
        }
    }

    fn bound_pod(name: &str, run_ms: Option<u64>) -> ApiObject {
        let mut pod = ApiObject::new(
            kinds::POD,
            "ns",
            name,
            json!({"image": "alpine", "run_ms": run_ms, "node_name": "n0"}),
        );
        pod.meta.finalizers.push(KUBELET_FINALIZER.to_string());
        pod
    }

    /// Drive kubelet with 10 ms ticks until `until`.
    fn run(
        kubelet: &mut Kubelet,
        api: &mut ApiServer,
        backend: &mut MockBackend,
        until_ms: u64,
    ) {
        let mut t = 0;
        while t <= until_ms {
            kubelet.poll(api, backend, SimTime::from_nanos(t * 1_000_000));
            t += 10;
        }
    }

    #[test]
    fn pod_reaches_running_then_succeeded() {
        let mut api = ApiServer::default();
        let mut kubelet = Kubelet::new("n0", KubeletParams::default());
        let mut backend = MockBackend::default();
        api.create(bound_pod("p", Some(30)), SimTime::ZERO).unwrap();
        run(&mut kubelet, &mut api, &mut backend, 1000);
        let pod = api.get(kinds::POD, "ns", "p").unwrap();
        assert_eq!(pod_phase(pod), PodPhase::Succeeded);
        assert_eq!(kubelet.counters.pods_started, 1);
        let st: PodStatus = crate::objects::status_of(pod).unwrap();
        // sandbox 200 + sync 40 + cni 50 + start 150 ≈ 440ms (tick-quantized).
        let started = st.started_at_ns.unwrap();
        assert!((430_000_000..=500_000_000).contains(&started), "{started}");
    }

    #[test]
    fn ignores_pods_bound_elsewhere() {
        let mut api = ApiServer::default();
        let mut kubelet = Kubelet::new("n0", KubeletParams::default());
        let mut backend = MockBackend::default();
        let mut pod = bound_pod("p", Some(1));
        pod.spec["node_name"] = json!("other-node");
        api.create(pod, SimTime::ZERO).unwrap();
        run(&mut kubelet, &mut api, &mut backend, 500);
        assert_eq!(kubelet.tracked(), 0);
        assert_eq!(pod_phase(api.get(kinds::POD, "ns", "p").unwrap()), PodPhase::Pending);
    }

    #[test]
    fn bounded_workers_serialize_a_burst() {
        let mut api = ApiServer::default();
        let params = KubeletParams { workers: 3, ..Default::default() };
        let mut kubelet = Kubelet::new("n0", params);
        let mut backend = MockBackend::default();
        for i in 0..6 {
            api.create(bound_pod(&format!("p{i}"), Some(10_000)), SimTime::ZERO).unwrap();
        }
        // After ~500ms only the first 2 can be running (one of the three
        // slots is reserved for teardown).
        run(&mut kubelet, &mut api, &mut backend, 500);
        let running = api
            .list(kinds::POD)
            .iter()
            .filter(|p| pod_phase(p) == PodPhase::Running)
            .count();
        assert_eq!(running, 2, "setup capacity is workers - 1");
        run(&mut kubelet, &mut api, &mut backend, 2000);
        let running = api
            .list(kinds::POD)
            .iter()
            .filter(|p| pod_phase(p) == PodPhase::Running)
            .count();
        assert_eq!(running, 6, "eventually all started");
    }

    #[test]
    fn cni_retry_then_success() {
        let mut api = ApiServer::default();
        let params = KubeletParams {
            retry_backoff: SimDur::from_millis(100),
            ..Default::default()
        };
        let mut kubelet = Kubelet::new("n0", params);
        let mut backend = MockBackend { cni_fail_times: 2, ..Default::default() };
        api.create(bound_pod("p", Some(10)), SimTime::ZERO).unwrap();
        run(&mut kubelet, &mut api, &mut backend, 3000);
        assert_eq!(kubelet.counters.cni_retries, 2);
        assert_eq!(pod_phase(api.get(kinds::POD, "ns", "p").unwrap()), PodPhase::Succeeded);
    }

    #[test]
    fn cni_fatal_fails_pod() {
        let mut api = ApiServer::default();
        let mut kubelet = Kubelet::new("n0", KubeletParams::default());
        let mut backend = MockBackend { fatal: true, ..Default::default() };
        api.create(bound_pod("p", Some(10)), SimTime::ZERO).unwrap();
        run(&mut kubelet, &mut api, &mut backend, 1000);
        let pod = api.get(kinds::POD, "ns", "p").unwrap();
        assert_eq!(pod_phase(pod), PodPhase::Failed);
        let st: PodStatus = crate::objects::status_of(pod).unwrap();
        assert_eq!(st.message.as_deref(), Some("no claim"));
        assert_eq!(kubelet.counters.pods_failed, 1);
    }

    #[test]
    fn retries_exhaust_to_failed() {
        let mut api = ApiServer::default();
        let params = KubeletParams {
            retry_backoff: SimDur::from_millis(50),
            max_attempts: 3,
            ..Default::default()
        };
        let mut kubelet = Kubelet::new("n0", params);
        let mut backend = MockBackend { cni_fail_times: 99, ..Default::default() };
        api.create(bound_pod("p", Some(10)), SimTime::ZERO).unwrap();
        run(&mut kubelet, &mut api, &mut backend, 5000);
        assert_eq!(pod_phase(api.get(kinds::POD, "ns", "p").unwrap()), PodPhase::Failed);
        assert_eq!(kubelet.counters.cni_retries, 3);
    }

    #[test]
    fn deletion_tears_down_and_releases_finalizer() {
        let mut api = ApiServer::default();
        let mut kubelet = Kubelet::new("n0", KubeletParams::default());
        let mut backend = MockBackend::default();
        api.create(bound_pod("p", None), SimTime::ZERO).unwrap(); // runs forever
        run(&mut kubelet, &mut api, &mut backend, 600);
        assert_eq!(pod_phase(api.get(kinds::POD, "ns", "p").unwrap()), PodPhase::Running);
        api.delete(kinds::POD, "ns", "p").unwrap();
        run(&mut kubelet, &mut api, &mut backend, 1500);
        assert!(api.get(kinds::POD, "ns", "p").is_none(), "finalizer released, reaped");
        assert_eq!(kubelet.counters.pods_removed, 1);
        assert_eq!(kubelet.tracked(), 0);
    }

    #[test]
    fn tick_with_no_due_deadline_touches_no_pod() {
        let mut api = ApiServer::default();
        let params = KubeletParams { workers: 33, ..Default::default() };
        let mut kubelet = Kubelet::new("n0", params);
        let mut backend = MockBackend::default();
        for i in 0..500 {
            // Most run forever (no deadline at all); every tenth exits
            // far in the future (a parked deadline).
            let run_ms = (i % 10 == 0).then_some(3_600_000);
            api.create(bound_pod(&format!("p{i:03}"), run_ms), SimTime::ZERO).unwrap();
        }
        run(&mut kubelet, &mut api, &mut backend, 10_000);
        assert_eq!(kubelet.counters.pods_started, 500);
        assert_eq!(kubelet.tracked(), 500);
        let (visits, requests, sandboxes) =
            (kubelet.stage_visits, api.requests, backend.next_netns);
        for tick in 0..100 {
            kubelet.poll(&mut api, &mut backend, SimTime::from_nanos((10_010 + tick * 10) * 1_000_000));
        }
        assert_eq!(kubelet.stage_visits, visits, "idle ticks look at no pod");
        assert_eq!(api.requests, requests, "and write nothing");
        assert_eq!(backend.next_netns, sandboxes);
        // The parked deadlines still fire when their time comes.
        kubelet.poll(&mut api, &mut backend, SimTime::from_nanos(3_700_000 * 1_000_000));
        assert_eq!(kubelet.stage_visits, visits + 50);
        let done = api.list(kinds::POD).iter().filter(|p| pod_phase(p) == PodPhase::Succeeded).count();
        assert_eq!(done, 50);
    }

    #[test]
    fn deleting_a_queued_pod_skips_the_pipeline() {
        let mut api = ApiServer::default();
        let params = KubeletParams { workers: 1, ..Default::default() };
        let mut kubelet = Kubelet::new("n0", params);
        let mut backend = MockBackend::default();
        api.create(bound_pod("a", Some(60_000)), SimTime::ZERO).unwrap();
        api.create(bound_pod("b", Some(60_000)), SimTime::ZERO).unwrap();
        // First tick admits 'a' into the single slot; 'b' queues.
        kubelet.poll(&mut api, &mut backend, SimTime::ZERO);
        api.delete(kinds::POD, "ns", "b").unwrap();
        run(&mut kubelet, &mut api, &mut backend, 800);
        assert!(api.get(kinds::POD, "ns", "b").is_none(), "no sandbox existed");
        assert_eq!(pod_phase(api.get(kinds::POD, "ns", "a").unwrap()), PodPhase::Running);
    }
}
