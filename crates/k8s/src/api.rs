//! The API server: a typed-by-kind object store with resource versions,
//! watch events, finalizers, and owner references — the Kubernetes API
//! machinery subset the paper's VNI Controller and CNI plugin talk to.
//!
//! Objects are dynamic (`kind` + JSON spec/status), which makes Custom
//! Resource Definitions (the VNI and VniClaim CRDs of §III-C1) ordinary
//! objects rather than special cases.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shs_des::{SimDur, SimTime};

/// Object metadata (the `metadata:` block).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Object name, unique within (kind, namespace).
    pub name: String,
    /// Namespace (`""` for cluster-scoped objects).
    #[serde(default)]
    pub namespace: String,
    /// Cluster-unique uid, assigned at creation.
    #[serde(default)]
    pub uid: u64,
    /// Monotone resource version, bumped on every mutation.
    #[serde(default)]
    pub resource_version: u64,
    /// Annotations (the paper's `vni:` key lives here).
    #[serde(default)]
    pub annotations: BTreeMap<String, String>,
    /// Labels.
    #[serde(default)]
    pub labels: BTreeMap<String, String>,
    /// Owner uids (cascade deletion).
    #[serde(default)]
    pub owner_uids: Vec<u64>,
    /// Finalizers blocking physical deletion.
    #[serde(default)]
    pub finalizers: Vec<String>,
    /// Set when deletion has been requested.
    #[serde(default)]
    pub deletion_requested: bool,
    /// Creation instant (simulated).
    #[serde(default)]
    pub created_at_ns: u64,
}

/// A stored API object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiObject {
    /// Kind, e.g. `"Job"`, `"Pod"`, `"Vni"`, `"VniClaim"`.
    pub kind: String,
    /// Metadata.
    pub meta: ObjectMeta,
    /// Desired state.
    #[serde(default)]
    pub spec: serde_json::Value,
    /// Observed state.
    #[serde(default)]
    pub status: serde_json::Value,
}

impl ApiObject {
    /// Convenience constructor.
    pub fn new(kind: &str, namespace: &str, name: &str, spec: serde_json::Value) -> Self {
        ApiObject {
            kind: kind.to_string(),
            meta: ObjectMeta {
                name: name.to_string(),
                namespace: namespace.to_string(),
                ..Default::default()
            },
            spec,
            status: serde_json::Value::Null,
        }
    }

    /// Annotation lookup.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.meta.annotations.get(key).map(|s| s.as_str())
    }

    /// `namespace/name` display key.
    pub fn full_name(&self) -> String {
        if self.meta.namespace.is_empty() {
            self.meta.name.clone()
        } else {
            format!("{}/{}", self.meta.namespace, self.meta.name)
        }
    }
}

/// Watch event types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchType {
    /// Object created.
    Added,
    /// Object mutated (including finalizer/deletion-request updates).
    Modified,
    /// Object physically removed.
    Deleted,
}

/// A watch event.
#[derive(Debug, Clone)]
pub struct WatchEvent {
    /// Resource version at which the event occurred.
    pub rv: u64,
    /// Event type.
    pub kind: WatchType,
    /// Snapshot of the object after (or for Deleted: before) the change,
    /// taken once and shared by every watcher.
    pub object: Rc<ApiObject>,
}

/// API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// (kind, namespace, name) already exists.
    AlreadyExists,
    /// Object not found.
    NotFound,
    /// Resource-version conflict on update.
    Conflict,
}

impl core::fmt::Display for ApiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ApiError::AlreadyExists => "already exists",
            ApiError::NotFound => "not found",
            ApiError::Conflict => "resource version conflict",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ApiError {}

/// API-server service-time model (per request; shapes the control-plane
/// queueing in Figs. 9-12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApiParams {
    /// Mutating request (create/update/delete) service time.
    pub write_latency: SimDur,
    /// Read request service time.
    pub read_latency: SimDur,
    /// Watch fan-out delay (event visible to watchers after this).
    pub watch_latency: SimDur,
}

impl Default for ApiParams {
    fn default() -> Self {
        ApiParams {
            write_latency: SimDur::from_millis(4),
            read_latency: SimDur::from_millis(2),
            watch_latency: SimDur::from_millis(25),
        }
    }
}

type Key = (String, String, String); // kind, namespace, name

/// The API server.
#[derive(Debug)]
pub struct ApiServer {
    params: ApiParams,
    /// Each stored object is the snapshot its latest watch event carries.
    objects: BTreeMap<Key, Rc<ApiObject>>,
    /// Owner index: uid → keys of the stored objects naming it in
    /// `owner_uids`. A reaped owner's entry lives on until its last
    /// (terminating) child is reaped too; uids are never reused.
    owned: BTreeMap<u64, BTreeSet<Key>>,
    events: Vec<WatchEvent>,
    next_rv: u64,
    next_uid: u64,
    /// Cumulative request count (diagnostics).
    pub requests: u64,
}

impl Default for ApiServer {
    fn default() -> Self {
        ApiServer::new(ApiParams::default())
    }
}

impl ApiServer {
    /// Fresh API server.
    pub fn new(params: ApiParams) -> Self {
        ApiServer {
            params,
            objects: BTreeMap::new(),
            owned: BTreeMap::new(),
            events: Vec::new(),
            next_rv: 1,
            next_uid: 1,
            requests: 0,
        }
    }

    /// Service-time model.
    pub fn params(&self) -> &ApiParams {
        &self.params
    }

    fn key(kind: &str, namespace: &str, name: &str) -> Key {
        (kind.to_string(), namespace.to_string(), name.to_string())
    }

    fn bump(&mut self) -> u64 {
        let rv = self.next_rv;
        self.next_rv += 1;
        rv
    }

    fn emit(&mut self, kind: WatchType, object: Rc<ApiObject>) {
        let rv = object.meta.resource_version;
        self.events.push(WatchEvent { rv, kind, object });
    }

    /// Move `key` in the owner index from the `old` owner list to `new`.
    fn reindex(&mut self, key: &Key, old: &[u64], new: &[u64]) {
        if old == new {
            return;
        }
        for uid in old {
            if let Some(set) = self.owned.get_mut(uid) {
                set.remove(key);
                if set.is_empty() {
                    self.owned.remove(uid);
                }
            }
        }
        for &uid in new {
            self.owned.entry(uid).or_default().insert(key.clone());
        }
    }

    /// Create an object; assigns uid and resource version.
    pub fn create(&mut self, mut obj: ApiObject, now: SimTime) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        let key = Self::key(&obj.kind, &obj.meta.namespace, &obj.meta.name);
        if self.objects.contains_key(&key) {
            return Err(ApiError::AlreadyExists);
        }
        obj.meta.uid = self.next_uid;
        self.next_uid += 1;
        obj.meta.resource_version = self.bump();
        obj.meta.created_at_ns = now.as_nanos();
        obj.meta.deletion_requested = false;
        let obj = Rc::new(obj);
        self.reindex(&key, &[], &obj.meta.owner_uids);
        self.objects.insert(key, Rc::clone(&obj));
        self.emit(WatchType::Added, Rc::clone(&obj));
        Ok(obj)
    }

    /// Get an object.
    pub fn get(&self, kind: &str, namespace: &str, name: &str) -> Option<&ApiObject> {
        self.objects.get(&Self::key(kind, namespace, name)).map(|o| &**o)
    }

    /// List all objects of a kind (all namespaces), in deterministic
    /// (namespace, name) order: a range over the sorted key, not a scan.
    pub fn list(&self, kind: &str) -> Vec<&ApiObject> {
        self.objects
            .range(Self::key(kind, "", "")..)
            .take_while(|((k, _, _), _)| k == kind)
            .map(|(_, v)| &**v)
            .collect()
    }

    /// List objects of a kind in one namespace, in name order.
    pub fn list_namespaced(&self, kind: &str, namespace: &str) -> Vec<&ApiObject> {
        self.objects
            .range(Self::key(kind, namespace, "")..)
            .take_while(|((k, ns, _), _)| k == kind && ns == namespace)
            .map(|(_, v)| &**v)
            .collect()
    }

    /// Stored objects of `kind` naming `uid` among their owners, in
    /// (namespace, name) order — an owner-index read proportional to the
    /// owner's children, never to the store.
    pub fn owned_by(&self, uid: u64, kind: &str) -> Vec<&ApiObject> {
        let Some(keys) = self.owned.get(&uid) else { return Vec::new() };
        keys.range(Self::key(kind, "", "")..)
            .take_while(|(k, _, _)| k == kind)
            .map(|key| &*self.objects[key])
            .collect()
    }

    /// Update an object (full replace). Enforces optimistic concurrency:
    /// the supplied object must carry the current resource version.
    pub fn update(&mut self, mut obj: ApiObject) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        let key = Self::key(&obj.kind, &obj.meta.namespace, &obj.meta.name);
        let current = self.objects.get(&key).ok_or(ApiError::NotFound)?;
        if current.meta.resource_version != obj.meta.resource_version {
            return Err(ApiError::Conflict);
        }
        obj.meta.uid = current.meta.uid;
        obj.meta.created_at_ns = current.meta.created_at_ns;
        obj.meta.deletion_requested = current.meta.deletion_requested;
        obj.meta.resource_version = self.bump();
        let obj = Rc::new(obj);
        let old = self.objects.insert(key.clone(), Rc::clone(&obj)).expect("checked above");
        self.reindex(&key, &old.meta.owner_uids, &obj.meta.owner_uids);
        self.emit(WatchType::Modified, Rc::clone(&obj));
        self.maybe_reap(&key);
        Ok(obj)
    }

    /// Apply `f` to the stored object under a fresh resource version,
    /// emit the Modified event, and reap if that cleared the way. The
    /// previous snapshot stays with the events that carry it.
    fn write(&mut self, key: &Key, f: impl FnOnce(&mut ApiObject)) -> Result<Rc<ApiObject>, ApiError> {
        let slot = self.objects.get_mut(key).ok_or(ApiError::NotFound)?;
        let before = Rc::clone(slot);
        let obj = Rc::make_mut(slot);
        f(obj);
        obj.meta.resource_version = self.next_rv;
        self.next_rv += 1;
        let snapshot = Rc::clone(slot);
        self.reindex(key, &before.meta.owner_uids, &snapshot.meta.owner_uids);
        self.emit(WatchType::Modified, Rc::clone(&snapshot));
        self.maybe_reap(key);
        Ok(snapshot)
    }

    /// Mutate an object in place via a closure (read-modify-write without
    /// caller-side conflicts). Returns the new version.
    pub fn mutate(
        &mut self,
        kind: &str,
        namespace: &str,
        name: &str,
        f: impl FnOnce(&mut ApiObject),
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        self.write(&Self::key(kind, namespace, name), f)
    }

    /// Request deletion. With finalizers present the object enters the
    /// "terminating" state (deletion_requested = true) and watchers see a
    /// Modified event; once the last finalizer is removed it is reaped.
    pub fn delete(&mut self, kind: &str, namespace: &str, name: &str) -> Result<(), ApiError> {
        self.requests += 1;
        let key = Self::key(kind, namespace, name);
        let terminating = self.objects.get(&key).ok_or(ApiError::NotFound)?.meta.deletion_requested;
        if !terminating {
            self.write(&key, |o| o.meta.deletion_requested = true)?;
        }
        Ok(()) // idempotent while terminating
    }

    /// Remove a finalizer; reaps the object if it was the last one and
    /// deletion was requested.
    pub fn remove_finalizer(
        &mut self,
        kind: &str,
        namespace: &str,
        name: &str,
        finalizer: &str,
    ) -> Result<(), ApiError> {
        self.mutate(kind, namespace, name, |o| {
            o.meta.finalizers.retain(|f| f != finalizer);
        })
        .map(|_| ())
    }

    fn maybe_reap(&mut self, key: &Key) {
        let Some(obj) = self.objects.get(key) else { return };
        if obj.meta.deletion_requested && obj.meta.finalizers.is_empty() {
            let obj = self.objects.remove(key).expect("present");
            self.reindex(key, &obj.meta.owner_uids, &[]);
            // Cascade: delete children owned by this uid, in key order.
            let children: Vec<Key> =
                self.owned.get(&obj.meta.uid).map_or_else(Vec::new, |c| c.iter().cloned().collect());
            self.emit(WatchType::Deleted, obj);
            for (k, ns, n) in children {
                let _ = self.delete(&k, &ns, &n);
            }
        }
    }

    /// Watch events with rv strictly greater than `since`. Returns the
    /// events and the latest rv to resume from. The event log is sorted
    /// by rv, so resumption is a binary search plus a (usually tiny) tail
    /// of shared snapshot handles.
    pub fn events_since(&self, since: u64) -> (Vec<WatchEvent>, u64) {
        let start = self.events.partition_point(|e| e.rv <= since);
        let evs: Vec<WatchEvent> = self.events[start..].to_vec();
        let latest = evs.last().map_or(since, |e| e.rv);
        (evs, latest)
    }

    /// Current highest resource version.
    pub fn latest_rv(&self) -> u64 {
        self.next_rv - 1
    }

    /// Total stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn api() -> ApiServer {
        ApiServer::default()
    }

    #[test]
    fn create_assigns_uid_and_rv() {
        let mut api = api();
        let a = api.create(ApiObject::new("Job", "ns", "a", json!({})), SimTime::ZERO).unwrap();
        let b = api.create(ApiObject::new("Job", "ns", "b", json!({})), SimTime::ZERO).unwrap();
        assert_ne!(a.meta.uid, b.meta.uid);
        assert!(b.meta.resource_version > a.meta.resource_version);
        assert_eq!(
            api.create(ApiObject::new("Job", "ns", "a", json!({})), SimTime::ZERO)
                .unwrap_err(),
            ApiError::AlreadyExists
        );
    }

    #[test]
    fn update_enforces_optimistic_concurrency() {
        let mut api = api();
        let obj = api.create(ApiObject::new("Job", "ns", "a", json!({})), SimTime::ZERO).unwrap();
        let mut stale = (*obj).clone();
        let mut fresh = stale.clone();
        fresh.spec = json!({"v": 1});
        let fresh = api.update(fresh).unwrap();
        stale.spec = json!({"v": 2});
        assert_eq!(api.update(stale).unwrap_err(), ApiError::Conflict);
        assert_eq!(api.get("Job", "ns", "a").unwrap().spec, json!({"v": 1}));
        assert!(fresh.meta.resource_version > 1);
    }

    #[test]
    fn delete_without_finalizers_reaps_immediately() {
        let mut api = api();
        api.create(ApiObject::new("Pod", "ns", "p", json!({})), SimTime::ZERO).unwrap();
        api.delete("Pod", "ns", "p").unwrap();
        assert!(api.get("Pod", "ns", "p").is_none());
        let (evs, _) = api.events_since(0);
        assert!(matches!(evs.last().unwrap().kind, WatchType::Deleted));
    }

    #[test]
    fn finalizers_block_deletion_until_removed() {
        let mut api = api();
        let mut obj = ApiObject::new("Job", "ns", "j", json!({}));
        obj.meta.finalizers.push("vni.example/finalize".into());
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete("Job", "ns", "j").unwrap();
        let o = api.get("Job", "ns", "j").expect("still terminating");
        assert!(o.meta.deletion_requested);
        api.remove_finalizer("Job", "ns", "j", "vni.example/finalize").unwrap();
        assert!(api.get("Job", "ns", "j").is_none());
    }

    #[test]
    fn delete_is_idempotent_while_terminating() {
        let mut api = api();
        let mut obj = ApiObject::new("Job", "ns", "j", json!({}));
        obj.meta.finalizers.push("f".into());
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete("Job", "ns", "j").unwrap();
        api.delete("Job", "ns", "j").unwrap();
        assert!(api.get("Job", "ns", "j").is_some());
    }

    #[test]
    fn cascade_deletes_owned_children() {
        let mut api = api();
        let job = api.create(ApiObject::new("Job", "ns", "j", json!({})), SimTime::ZERO).unwrap();
        let mut pod = ApiObject::new("Pod", "ns", "j-0", json!({}));
        pod.meta.owner_uids.push(job.meta.uid);
        api.create(pod, SimTime::ZERO).unwrap();
        api.delete("Job", "ns", "j").unwrap();
        assert!(api.get("Pod", "ns", "j-0").is_none(), "cascade");
    }

    #[test]
    fn watch_events_resume_from_rv() {
        let mut api = api();
        api.create(ApiObject::new("Pod", "ns", "a", json!({})), SimTime::ZERO).unwrap();
        let (evs1, rv1) = api.events_since(0);
        assert_eq!(evs1.len(), 1);
        api.create(ApiObject::new("Pod", "ns", "b", json!({})), SimTime::ZERO).unwrap();
        let (evs2, rv2) = api.events_since(rv1);
        assert_eq!(evs2.len(), 1);
        assert_eq!(evs2[0].object.meta.name, "b");
        assert!(rv2 > rv1);
        let (evs3, _) = api.events_since(rv2);
        assert!(evs3.is_empty());
    }

    #[test]
    fn mutate_bumps_rv_and_emits() {
        let mut api = api();
        api.create(ApiObject::new("Pod", "ns", "a", json!({})), SimTime::ZERO).unwrap();
        let before = api.latest_rv();
        api.mutate("Pod", "ns", "a", |o| {
            o.status = json!({"phase": "Running"});
        })
        .unwrap();
        assert!(api.latest_rv() > before);
        assert_eq!(api.get("Pod", "ns", "a").unwrap().status, json!({"phase": "Running"}));
    }

    #[test]
    fn list_is_deterministic_and_namespaced() {
        let mut api = api();
        for (ns, n) in [("b", "x"), ("a", "y"), ("a", "x")] {
            api.create(ApiObject::new("Pod", ns, n, json!({})), SimTime::ZERO).unwrap();
        }
        let names: Vec<String> = api.list("Pod").iter().map(|o| o.full_name()).collect();
        assert_eq!(names, vec!["a/x", "a/y", "b/x"]);
        assert_eq!(api.list_namespaced("Pod", "a").len(), 2);
    }
}
