//! Metacontroller-style DecoratorController.
//!
//! The paper's VNI Controller "is implemented as a Decorator Controller
//! provided by Metacontroller" (§III-C1): it watches already-created
//! resources matching a pattern (jobs with the `vni` annotation, VNI
//! claims), calls webhook hooks with observed state, and applies the
//! *desired children* the webhook returns ("apply semantics", §III-C2).
//! Parents gain a finalizer while in scope; deletion triggers the
//! `/finalize` hook until it reports completion.
//!
//! Webhook calls are serialized with a configurable per-call latency —
//! this is the management-plane queue that gives the `vni:true` runs
//! their (small) extra admission delay in Figs. 9-12.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use shs_des::{SimDur, SimTime};

use crate::api::{ApiObject, ApiServer, IdSet, ObjId, WatchType};
use crate::objects::Kind;

/// Response of the `/sync` hook: the full desired set of children for
/// this parent (apply semantics — missing ones are created, undesired
/// ones deleted).
#[derive(Debug, Clone, Default)]
pub struct SyncResponse {
    /// Desired child objects (name/kind/spec; metadata is managed).
    pub desired_children: Vec<ApiObject>,
}

/// Response of the `/finalize` hook.
#[derive(Debug, Clone, Default)]
pub struct FinalizeResponse {
    /// Desired children while finalizing (usually empty).
    pub desired_children: Vec<ApiObject>,
    /// Whether finalization is complete (the finalizer is removed and the
    /// parent may be reaped).
    pub finalized: bool,
}

/// The webhook implementation (the paper's VNI Endpoint).
pub trait DecoratorHooks {
    /// `/sync`: observe a live parent + its children (the stored
    /// snapshots), return desired children. Must be idempotent.
    fn sync(
        &mut self,
        parent: &ApiObject,
        children: &[Rc<ApiObject>],
        now: SimTime,
    ) -> SyncResponse;

    /// `/finalize`: parent is being deleted.
    fn finalize(
        &mut self,
        parent: &ApiObject,
        children: &[Rc<ApiObject>],
        now: SimTime,
    ) -> FinalizeResponse;
}

/// Static configuration of a decorator controller.
#[derive(Debug, Clone)]
pub struct DecoratorConfig {
    /// Controller name (used in the finalizer).
    pub name: String,
    /// Parent kind to watch (e.g. `Job`).
    pub parent_kind: Kind,
    /// Only parents carrying this annotation key are in scope.
    pub annotation_filter: Option<String>,
    /// Kind of the managed children (e.g. `Vni`).
    pub child_kind: Kind,
    /// Per-webhook-call latency (HTTP round trip + handler).
    pub webhook_latency: SimDur,
    /// Re-enqueue every known parent on this period (`None` = event-driven
    /// only). Needed when desired state depends on off-cluster data, e.g.
    /// the VNI Claim user list in the VNI database.
    pub resync_period: Option<SimDur>,
}

/// Controller counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DecoratorCounters {
    /// `/sync` calls made.
    pub(crate) sync_calls: u64,
    /// `/finalize` calls made.
    pub(crate) finalize_calls: u64,
    /// Children created.
    pub(crate) children_created: u64,
    /// Children deleted.
    pub(crate) children_deleted: u64,
}

/// The decorator controller.
#[derive(Debug)]
pub struct Metacontroller<H: DecoratorHooks> {
    config: DecoratorConfig,
    /// The finalizer this controller owns on its parents, built once.
    finalizer: Rc<str>,
    /// The webhook backend.
    pub(crate) hooks: H,
    last_rv: u64,
    queue: VecDeque<(ObjId, SimTime)>,
    queued: IdSet,
    /// uid -> parent id index for routing child events; a resync
    /// enqueues the parents in uid order.
    parent_by_uid: BTreeMap<u64, ObjId>,
    busy_until: SimTime,
    last_resync: SimTime,
    /// Counters.
    pub(crate) counters: DecoratorCounters,
}

impl<H: DecoratorHooks> Metacontroller<H> {
    /// Build a controller.
    pub fn new(config: DecoratorConfig, hooks: H) -> Self {
        let finalizer = format!("metacontroller.io/decorator-{}", config.name).into();
        Metacontroller {
            config,
            finalizer,
            hooks,
            last_rv: 0,
            queue: VecDeque::new(),
            queued: IdSet::default(),
            parent_by_uid: BTreeMap::new(),
            busy_until: SimTime::ZERO,
            last_resync: SimTime::ZERO,
            counters: DecoratorCounters::default(),
        }
    }

    /// The finalizer this controller owns on its parents.
    pub fn finalizer(&self) -> &Rc<str> {
        &self.finalizer
    }

    /// The rv this controller has consumed the watch log through.
    pub fn cursor(&self) -> u64 {
        self.last_rv
    }

    /// Parents waiting for a webhook slot (diagnostics).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn in_scope(&self, obj: &ApiObject) -> bool {
        obj.kind() == self.config.parent_kind
            && self
                .config
                .annotation_filter
                .as_ref()
                .is_none_or(|key| obj.meta.annotations.contains_key(key))
    }

    fn enqueue(&mut self, id: ObjId, at: SimTime) {
        if self.queued.insert(id) {
            self.queue.push_back((id, at));
        }
    }

    /// One reconcile pass at `now`. The webhook server is serial: a call
    /// for an item enqueued at `t` completes at
    /// `max(busy_until, t) + webhook_latency`, and its effects (children
    /// created/deleted) become visible only once that completion time has
    /// passed.
    pub fn poll(&mut self, api: &mut ApiServer, now: SimTime) {
        // Ingest events.
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;
        for ev in events {
            if self.in_scope(&ev.object) {
                let id = ev.object.meta.id;
                match ev.kind {
                    WatchType::Deleted => {
                        self.parent_by_uid.remove(&ev.object.meta.uid);
                        self.queued.remove(&id);
                    }
                    _ => {
                        self.parent_by_uid.insert(ev.object.meta.uid, id);
                        self.enqueue(id, now);
                    }
                }
            } else if ev.object.kind() == self.config.child_kind {
                // Route child events to their parent.
                for uid in ev.object.meta.owner_uids.iter() {
                    if let Some(&id) = self.parent_by_uid.get(uid) {
                        self.enqueue(id, now);
                    }
                }
            }
        }

        // Periodic resync: re-enqueue all known parents.
        if let Some(period) = self.config.resync_period {
            if now >= self.last_resync + period {
                self.last_resync = now;
                let ids: Vec<ObjId> = self.parent_by_uid.values().copied().collect();
                for id in ids {
                    self.enqueue(id, now);
                }
            }
        }

        // Serve the queue under the serial webhook budget. An id no
        // longer in `queued` was deleted while it waited: there is no
        // parent to call the webhook for, so it costs nothing.
        while let Some(&(id, enq)) = self.queue.front() {
            if !self.queued.contains(&id) {
                self.queue.pop_front();
                continue;
            }
            let finish = self.busy_until.max(enq) + self.config.webhook_latency;
            if finish > now {
                break;
            }
            self.queue.pop_front();
            self.queued.remove(&id);
            self.busy_until = finish;
            self.reconcile(api, id, now);
        }
    }

    fn reconcile(&mut self, api: &mut ApiServer, id: ObjId, now: SimTime) {
        let Some(parent) = api.object(id).cloned() else {
            return;
        };
        if !self.in_scope(&parent) {
            return;
        }
        let ns = &parent.meta.namespace;

        // Ensure our finalizer on live parents.
        if !parent.meta.deletion_requested && !parent.meta.finalizers.contains(&self.finalizer) {
            let _ = api.edit_id(id, |o| {
                o.meta.finalizers.push(Rc::clone(&self.finalizer));
            });
        }

        // Observed children owned by this parent.
        let children = api.owned_by_rc(parent.meta.uid, self.config.child_kind);

        // Call the webhook (the serial latency was charged by `poll`).
        let (desired, finalized) = if parent.meta.deletion_requested {
            self.counters.finalize_calls += 1;
            let resp = self.hooks.finalize(&parent, &children, now);
            (resp.desired_children, Some(resp.finalized))
        } else {
            self.counters.sync_calls += 1;
            let resp = self.hooks.sync(&parent, &children, now);
            (resp.desired_children, None)
        };

        // Apply semantics.
        for child in &children {
            if !desired.iter().any(|c| c.meta.name == child.meta.name) {
                let _ = api.delete_id(child.meta.id);
                self.counters.children_deleted += 1;
            }
        }
        for mut child in desired {
            assert_eq!(child.kind(), self.config.child_kind, "desired child {}", child.full_name());
            child.meta.namespace = Rc::clone(ns);
            *child.meta.owner_uids = vec![parent.meta.uid];
            match api.get_rc(self.config.child_kind, ns, &child.meta.name) {
                None => {
                    if api.create(child, now).is_ok() {
                        self.counters.children_created += 1;
                    }
                }
                Some(cur) => {
                    if cur.spec != child.spec {
                        let _ = api.edit_id(cur.meta.id, |o| {
                            o.spec = Rc::clone(&child.spec);
                        });
                    }
                }
            }
        }

        if finalized == Some(true) {
            let _ = api.remove_finalizer_id(id, &self.finalizer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// Hooks that decorate each parent with one child named after it and
    /// finalize immediately.
    struct OneChild {
        finalize_after_calls: u64,
        finalize_seen: u64,
    }

    impl DecoratorHooks for OneChild {
        fn sync(&mut self, parent: &ApiObject, _ch: &[Rc<ApiObject>], _now: SimTime) -> SyncResponse {
            SyncResponse {
                desired_children: vec![ApiObject::new(
                    Kind::Vni,
                    &parent.meta.namespace,
                    &format!("vni-{}", parent.meta.name),
                    json!({"vni": 1024}),
                )],
            }
        }
        fn finalize(
            &mut self,
            _parent: &ApiObject,
            _ch: &[Rc<ApiObject>],
            _now: SimTime,
        ) -> FinalizeResponse {
            self.finalize_seen += 1;
            FinalizeResponse {
                desired_children: vec![],
                finalized: self.finalize_seen >= self.finalize_after_calls,
            }
        }
    }

    fn config() -> DecoratorConfig {
        DecoratorConfig {
            name: "vni".into(),
            parent_kind: Kind::Job,
            annotation_filter: Some("vni".into()),
            child_kind: Kind::Vni,
            webhook_latency: SimDur::from_millis(10),
            resync_period: None,
        }
    }

    fn job_spec() -> serde_json::Value {
        json!({"parallelism": 1, "template": {"image": "x"}})
    }

    fn annotated_job(name: &str) -> ApiObject {
        let mut job = ApiObject::new(Kind::Job, "ns", name, job_spec());
        job.meta.annotations.insert("vni".into(), "true".into());
        job
    }

    #[test]
    fn decorates_matching_parents_with_children() {
        let mut api = ApiServer::default();
        let mut mc =
            Metacontroller::new(config(), OneChild { finalize_after_calls: 1, finalize_seen: 0 });
        api.create(annotated_job("j1"), SimTime::ZERO).unwrap();
        api.create(ApiObject::new(Kind::Job, "ns", "plain", job_spec()), SimTime::ZERO).unwrap();
        mc.poll(&mut api, SimTime::ZERO);
        mc.poll(&mut api, SimTime::from_nanos(20_000_000)); // webhook completed
        assert!(api.get(Kind::Vni, "ns", "vni-j1").is_some());
        assert!(api.get(Kind::Vni, "ns", "vni-plain").is_none(), "filter by annotation");
        let job = api.get(Kind::Job, "ns", "j1").unwrap();
        assert!(job.meta.finalizers.contains(mc.finalizer()));
        assert_eq!(mc.counters.sync_calls, 1);
        // Child carries owner reference.
        let child = api.get(Kind::Vni, "ns", "vni-j1").unwrap();
        assert_eq!(*child.meta.owner_uids, vec![job.meta.uid]);
    }

    #[test]
    fn webhook_latency_serializes_processing() {
        let mut api = ApiServer::default();
        let mut mc =
            Metacontroller::new(config(), OneChild { finalize_after_calls: 1, finalize_seen: 0 });
        for i in 0..10 {
            api.create(annotated_job(&format!("j{i}")), SimTime::ZERO).unwrap();
        }
        // At t=0 no call has *completed* yet (10 ms latency each).
        mc.poll(&mut api, SimTime::ZERO);
        assert_eq!(mc.counters.sync_calls, 0);
        assert_eq!(mc.backlog(), 10);
        // By 50 ms five calls have completed (at 10, 20, ..., 50 ms).
        mc.poll(&mut api, SimTime::from_nanos(50_000_000));
        assert_eq!(mc.counters.sync_calls, 5);
        // Far in the future the queue drains.
        mc.poll(&mut api, SimTime::from_nanos(1_000_000_000));
        assert_eq!(mc.counters.sync_calls, 10);
        assert_eq!(api.list(Kind::Vni).len(), 10);
    }

    #[test]
    fn a_parent_deleted_while_queued_costs_no_webhook_call() {
        let mut api = ApiServer::default();
        let mut mc =
            Metacontroller::new(config(), OneChild { finalize_after_calls: 1, finalize_seen: 0 });
        api.create(annotated_job("j1"), SimTime::ZERO).unwrap();
        api.create(annotated_job("j2"), SimTime::ZERO).unwrap();
        mc.poll(&mut api, SimTime::ZERO);
        assert_eq!(mc.backlog(), 2);
        // Reaped before its call: no finalizer was added yet.
        api.delete(Kind::Job, "ns", "j1").unwrap();
        // j2's call is the first the server makes, so it completes one
        // latency after enqueue, not two.
        mc.poll(&mut api, SimTime::from_nanos(10_000_000));
        assert_eq!(mc.counters.sync_calls, 1);
        assert!(api.get(Kind::Vni, "ns", "vni-j2").is_some());
        assert_eq!(mc.backlog(), 0);
    }

    #[test]
    fn finalize_runs_until_done_then_releases() {
        let mut api = ApiServer::default();
        let mut mc =
            Metacontroller::new(config(), OneChild { finalize_after_calls: 2, finalize_seen: 0 });
        api.create(annotated_job("j1"), SimTime::ZERO).unwrap();
        let mut t = 0u64;
        let mut tick = |mc: &mut Metacontroller<OneChild>, api: &mut ApiServer, until: u64| {
            while t <= until {
                mc.poll(api, SimTime::from_nanos(t * 1_000_000));
                t += 20;
            }
        };
        tick(&mut mc, &mut api, 100);
        assert!(api.get(Kind::Vni, "ns", "vni-j1").is_some());
        api.delete(Kind::Job, "ns", "j1").unwrap();
        // First finalize call completes but reports not-finalized.
        tick(&mut mc, &mut api, 160);
        assert_eq!(mc.counters.finalize_calls, 1);
        assert!(api.get(Kind::Job, "ns", "j1").is_some(), "finalizer still held");
        assert!(api.get(Kind::Vni, "ns", "vni-j1").is_none(), "children removed");
        // The child-deletion event re-enqueues; the second call finalizes.
        tick(&mut mc, &mut api, 400);
        assert!(api.get(Kind::Job, "ns", "j1").is_none(), "reaped after finalize");
        assert_eq!(mc.counters.finalize_calls, 2);
    }

    #[test]
    fn sync_is_idempotent_under_repolls() {
        let mut api = ApiServer::default();
        let mut mc =
            Metacontroller::new(config(), OneChild { finalize_after_calls: 1, finalize_seen: 0 });
        api.create(annotated_job("j1"), SimTime::ZERO).unwrap();
        for tick in 0..20u64 {
            mc.poll(&mut api, SimTime::from_nanos(tick * 20_000_000));
        }
        assert_eq!(api.list(Kind::Vni).len(), 1, "apply semantics: one child");
        assert_eq!(mc.counters.children_created, 1);
    }

    #[test]
    fn undesired_children_are_deleted() {
        struct NoChildren;
        impl DecoratorHooks for NoChildren {
            fn sync(&mut self, _p: &ApiObject, _c: &[Rc<ApiObject>], _n: SimTime) -> SyncResponse {
                SyncResponse::default()
            }
            fn finalize(
                &mut self,
                _p: &ApiObject,
                _c: &[Rc<ApiObject>],
                _n: SimTime,
            ) -> FinalizeResponse {
                FinalizeResponse { desired_children: vec![], finalized: true }
            }
        }
        let mut api = ApiServer::default();
        let mut mc = Metacontroller::new(config(), OneChild { finalize_after_calls: 1, finalize_seen: 0 });
        api.create(annotated_job("j1"), SimTime::ZERO).unwrap();
        mc.poll(&mut api, SimTime::ZERO);
        mc.poll(&mut api, SimTime::from_nanos(20_000_000));
        assert!(api.get(Kind::Vni, "ns", "vni-j1").is_some());
        // Switch to hooks that want no children: the child is removed.
        let mut mc2 = Metacontroller::new(config(), NoChildren);
        // mc2 must learn the uid mapping from the event stream.
        mc2.poll(&mut api, SimTime::from_nanos(30_000_000));
        mc2.poll(&mut api, SimTime::from_nanos(60_000_000));
        assert!(api.get(Kind::Vni, "ns", "vni-j1").is_none());
        assert_eq!(mc2.counters.children_deleted, 1);
    }
}
