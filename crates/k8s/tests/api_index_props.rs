//! Equivalence oracle for the indexed API store: after every step of a
//! random create / status write / re-own / update / delete / finalizer /
//! compact sequence, the range lists, the owner index (which is also the
//! cascade set) and the watch log equal those of [`NaiveApi`] — the
//! store as it was before the indexes, which answers everything by
//! scanning every object.
//!
//! The same run pins what a write shares: consecutive snapshots of one
//! object hold the very same name, namespace and (unless a full replace
//! gave it a new one) spec handles; and status writes through the
//! `/status` subresource leave a server indistinguishable — events,
//! resource versions, request count, reaping — from a twin that writes
//! them as JSON through the door (`mutate`).
//!
//! Ids are checked against the oracle's own interner: a name's id is
//! the count of distinct `(kind, namespace, name)`s created before it,
//! a name created again after it was reaped keeps its id, a lookup by
//! name and one by id see the same object, and no two live objects
//! share an id. The addresses put one name in two namespaces and under
//! every kind, and include names longer than 16 bytes that share a long
//! prefix.
//!
//! The door itself is checked over all six kinds: a typed spec and
//! status sent in as JSON come back out of `mutate`'s wire form
//! unchanged, a no-op `mutate` only bumps the resource version, and a
//! JSON edit that breaks the schema panics naming the kind and the
//! object.

use proptest::prelude::*;
use serde_json::{json, Value};
use shs_des::SimTime;
use shs_k8s::{
    ApiObject, ApiServer, JobSpec, JobStatus, Kind, NodeSpec, NodeStatus, ObjId, PodPhase,
    PodSpec, PodStatus, PodTemplate, ServiceSpec, ServiceStatus, Spec, Status, VniClaimSpec,
    VniCrdSpec, WatchType,
};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

type Key = (Kind, String, String);

/// The pre-index store: full scans for lists and for the reap cascade,
/// and a map from every key ever created to its id.
#[derive(Default)]
struct NaiveApi {
    objects: BTreeMap<Key, ApiObject>,
    ids: BTreeMap<Key, ObjId>,
    events: Vec<(u64, WatchType, ApiObject)>,
    rv: u64,
    uid: u64,
}

impl NaiveApi {
    fn key(o: &ApiObject) -> Key {
        (o.kind(), o.meta.namespace.to_string(), o.meta.name.to_string())
    }

    fn create(&mut self, mut obj: ApiObject) {
        let key = Self::key(&obj);
        let next = ObjId::from_index(self.ids.len());
        let id = *self.ids.entry(key.clone()).or_insert(next);
        if self.objects.contains_key(&key) {
            return;
        }
        obj.meta.id = id;
        self.uid += 1;
        self.rv += 1;
        obj.meta.uid = self.uid;
        obj.meta.resource_version = self.rv;
        self.objects.insert(key, obj.clone());
        self.events.push((self.rv, WatchType::Added, obj));
    }

    fn update(&mut self, mut obj: ApiObject) {
        let key = Self::key(&obj);
        let Some(cur) = self.objects.get(&key) else { return };
        if cur.meta.resource_version != obj.meta.resource_version {
            return;
        }
        obj.meta.id = cur.meta.id;
        obj.meta.uid = cur.meta.uid;
        obj.meta.created_at_ns = cur.meta.created_at_ns;
        obj.meta.deletion_requested = cur.meta.deletion_requested;
        self.rv += 1;
        obj.meta.resource_version = self.rv;
        self.objects.insert(key.clone(), obj.clone());
        self.events.push((self.rv, WatchType::Modified, obj));
        self.maybe_reap(&key);
    }

    fn mutate(&mut self, key: &Key, f: impl FnOnce(&mut ApiObject)) {
        let Some(obj) = self.objects.get_mut(key) else { return };
        f(obj);
        self.rv += 1;
        obj.meta.resource_version = self.rv;
        let snapshot = obj.clone();
        self.events.push((self.rv, WatchType::Modified, snapshot));
        self.maybe_reap(key);
    }

    fn delete(&mut self, key: &Key) {
        if self.objects.get(key).is_some_and(|o| !o.meta.deletion_requested) {
            self.mutate(key, |o| o.meta.deletion_requested = true);
        }
    }

    fn maybe_reap(&mut self, key: &Key) {
        let Some(obj) = self.objects.get(key) else { return };
        if obj.meta.deletion_requested && obj.meta.finalizers.is_empty() {
            let obj = self.objects.remove(key).expect("present");
            let children: Vec<Key> = self
                .objects
                .iter()
                .filter(|(_, o)| o.meta.owner_uids.contains(&obj.meta.uid))
                .map(|(k, _)| k.clone())
                .collect();
            self.events.push((obj.meta.resource_version, WatchType::Deleted, obj));
            for child in children {
                self.delete(&child);
            }
        }
    }

    fn list(&self, kind: Kind) -> Vec<&ApiObject> {
        self.objects.iter().filter(|((k, _, _), _)| *k == kind).map(|(_, v)| v).collect()
    }

    fn list_namespaced(&self, kind: Kind, ns: &str) -> Vec<&ApiObject> {
        self.objects
            .iter()
            .filter(|((k, n, _), _)| *k == kind && n == ns)
            .map(|(_, v)| v)
            .collect()
    }

    fn owned_by(&self, uid: u64, kind: Kind) -> Vec<&ApiObject> {
        self.list(kind).into_iter().filter(|o| o.meta.owner_uids.contains(&uid)).collect()
    }

    fn get(&self, key: &Key) -> Option<&ApiObject> {
        self.objects.get(key)
    }
}

const KINDS: [Kind; 3] = [Kind::Job, Kind::Pod, Kind::Vni];
/// The cluster-scoped `""` namespace, and one namespace that is a
/// prefix of another.
const NAMESPACES: [&str; 3] = ["", "a", "ab"];
/// Names that are prefixes of each other, two of them longer than 16
/// bytes with a 25-byte common prefix; every name recurs in every kind
/// and namespace.
const NAMES: [&str; 6] =
    ["o", "o1", "o10", "p", "workload-with-a-long-name", "workload-with-a-long-name-1"];

/// An object address: (kind, namespace, name) indices.
type Addr = (usize, usize, usize);

#[derive(Debug, Clone)]
enum Op {
    /// Create `at` with spec variant `v`, owned by whatever currently
    /// lives at `owner` (if anything does).
    Create { at: Addr, owner: Addr, v: u8 },
    /// Write status variant `v` through `mutate`.
    Touch { at: Addr, v: u8 },
    /// Rewrite `at`'s owner list through `mutate`.
    Reown { at: Addr, owner: Option<Addr> },
    /// Full replace of `at` with spec variant `v` through `update`,
    /// dropping its owners.
    Replace { at: Addr, v: u8 },
    Delete { at: Addr },
    AddFinalizer { at: Addr },
    RemoveFinalizer { at: Addr },
    /// Empty namespace `ns`: clear the finalizers of, then delete, every
    /// object in it, of every kind. Later creates refill it.
    Drain { ns: usize },
    /// Drop the watch log through the test's (only) reader cursor.
    Compact,
}

fn addr() -> impl Strategy<Value = Addr> {
    (0..KINDS.len(), 0..NAMESPACES.len(), 0..NAMES.len())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (addr(), addr(), any::<u8>()).prop_map(|(at, owner, v)| Op::Create { at, owner, v }),
        2 => (addr(), any::<u8>()).prop_map(|(at, v)| Op::Touch { at, v }),
        1 => (addr(), addr()).prop_map(|(at, owner)| Op::Reown { at, owner: Some(owner) }),
        1 => addr().prop_map(|at| Op::Reown { at, owner: None }),
        1 => (addr(), any::<u8>()).prop_map(|(at, v)| Op::Replace { at, v }),
        3 => addr().prop_map(|at| Op::Delete { at }),
        2 => addr().prop_map(|at| Op::AddFinalizer { at }),
        3 => addr().prop_map(|at| Op::RemoveFinalizer { at }),
        1 => (0..NAMESPACES.len()).prop_map(|ns| Op::Drain { ns }),
        1 => Just(Op::Compact),
    ]
}

/// Spec variant `v` of `kind`.
fn spec_for(kind: Kind, v: u8) -> Spec {
    let image = format!("img{v}");
    let template = PodTemplate {
        image: image.clone(),
        run_ms: v.is_multiple_of(2).then_some(v.into()),
        userns_base: v.is_multiple_of(5).then_some(100_000),
        node_selector: v.is_multiple_of(3).then(|| vec!["n0".to_string(), format!("n{v}")]),
    };
    match kind {
        Kind::Pod => Spec::Pod(PodSpec {
            job_name: v.is_multiple_of(2).then(|| format!("j{}", v % 4)),
            image,
            run_ms: Some(v.into()),
            userns_base: None,
            node_name: v.is_multiple_of(3).then(|| "n0".to_string()),
            spread_key: v.is_multiple_of(4).then(|| format!("ns/j{v}")),
            node_selector: v.is_multiple_of(7).then(|| vec!["n1".to_string()]),
            termination_grace_period_secs: u64::from(v % 40),
        }),
        Kind::Job => Spec::Job(JobSpec {
            parallelism: v.into(),
            template,
            ttl_seconds_after_finished: v.is_multiple_of(2).then_some(0),
        }),
        Kind::Node => Spec::Node(NodeSpec { max_pods: v.into() }),
        Kind::Vni => Spec::Vni(VniCrdSpec {
            vni: 1024 + u16::from(v),
            r#virtual: v.is_multiple_of(2),
            claim: v.is_multiple_of(3).then(|| format!("c{v}")),
        }),
        Kind::VniClaim => Spec::VniClaim(VniClaimSpec { name: format!("c{v}") }),
        Kind::Service => Spec::Service(ServiceSpec {
            replicas: (v % 8).into(),
            template,
            max_unavailable: (v % 3).into(),
            max_surge: (v % 2).into(),
            version: v.into(),
        }),
    }
}

/// Status variant `v` of `kind`; every fifth one is no status at all,
/// and VNIs and claims never have one.
fn status_for(kind: Kind, v: u8) -> Status {
    const PHASES: [PodPhase; 4] =
        [PodPhase::Pending, PodPhase::Running, PodPhase::Succeeded, PodPhase::Failed];
    match kind {
        _ if v % 5 == 4 => Status::None,
        Kind::Pod => Status::Pod(PodStatus {
            phase: PHASES[usize::from(v) % 4],
            started_at_ns: Some(v.into()),
            message: v.is_multiple_of(3).then(|| "m".to_string()),
        }),
        Kind::Job => Status::Job(JobStatus {
            succeeded: v.into(),
            complete: v.is_multiple_of(2),
            completed_at_ns: v.is_multiple_of(3).then_some(v.into()),
        }),
        Kind::Node => Status::Node(NodeStatus { ready: v.is_multiple_of(2) }),
        Kind::Service => Status::Service(ServiceStatus {
            ready: v.into(),
            current: (v / 2).into(),
            total: (v / 3).into(),
        }),
        _ => Status::None,
    }
}

/// `spec` or `status` as the door speaks it.
fn spec_json(spec: &Spec) -> Value {
    match spec {
        Spec::Job(s) => serde_json::to_value(s),
        Spec::Pod(s) => serde_json::to_value(s),
        Spec::Node(s) => serde_json::to_value(s),
        Spec::Vni(s) => serde_json::to_value(s),
        Spec::VniClaim(s) => serde_json::to_value(s),
        Spec::Service(s) => serde_json::to_value(s),
    }
    .expect("serializes")
}

fn status_json(status: &Status) -> Value {
    match status {
        Status::None => Ok(Value::Null),
        Status::Pod(s) => serde_json::to_value(s),
        Status::Job(s) => serde_json::to_value(s),
        Status::Node(s) => serde_json::to_value(s),
        Status::Service(s) => serde_json::to_value(s),
    }
    .expect("serializes")
}

/// Give `obj` spec variant `v`.
fn respec(obj: &mut ApiObject, v: u8) {
    obj.spec = Rc::new(spec_for(obj.kind(), v));
}

fn key_of((k, ns, n): Addr) -> Key {
    (KINDS[k], NAMESPACES[ns].to_string(), NAMES[n].to_string())
}

/// Every address the generator can name.
fn every_key() -> impl Iterator<Item = Key> {
    (0..KINDS.len()).flat_map(|k| {
        (0..NAMESPACES.len()).flat_map(move |ns| (0..NAMES.len()).map(move |n| key_of((k, ns, n))))
    })
}

/// Apply one op to both stores; a status write goes through the
/// `/status` subresource when `subresource` is set, else `mutate`.
fn apply(api: &mut ApiServer, naive: &mut NaiveApi, op: &Op, subresource: bool) {
    let uid_at = |api: &ApiServer, a: Addr| {
        let (k, ns, n) = key_of(a);
        api.get(k, &ns, &n).map(|o| o.meta.uid)
    };
    match *op {
        Op::Create { at, owner, v } => {
            let (_, ns, n) = key_of(at);
            let kind = KINDS[at.0];
            let mut obj = ApiObject::from_spec(&ns, &n, spec_for(kind, v));
            obj.meta.owner_uids.extend(uid_at(api, owner));
            naive.create(obj.clone());
            let _ = api.create(obj, SimTime::ZERO);
        }
        Op::Touch { at, v } => {
            let key = key_of(at);
            let status = status_for(key.0, v);
            naive.mutate(&key, |o| o.status = status.clone());
            let _ = if subresource {
                api.set_status(key.0, &key.1, &key.2, status)
            } else {
                api.mutate(key.0, &key.1, &key.2, |o| o.status = status_json(&status))
            };
        }
        Op::Reown { at, owner } => {
            let key = key_of(at);
            let owners: Vec<u64> = owner.and_then(|a| uid_at(api, a)).into_iter().collect();
            naive.mutate(&key, |o| o.meta.owner_uids = owners.clone().into());
            let _ = api.edit(key.0, &key.1, &key.2, |o| o.meta.owner_uids = owners.into());
        }
        Op::Replace { at, v } => {
            let key = key_of(at);
            let Some(mut obj) = api.get(key.0, &key.1, &key.2).cloned() else { return };
            respec(&mut obj, v);
            obj.meta.owner_uids.clear();
            naive.update(obj.clone());
            let _ = api.update(obj);
        }
        Op::Delete { at } => {
            let key = key_of(at);
            naive.delete(&key);
            let _ = api.delete(key.0, &key.1, &key.2);
        }
        Op::AddFinalizer { at } => {
            let key = key_of(at);
            let add = |o: &mut ApiObject| {
                if o.meta.finalizers.is_empty() {
                    o.meta.finalizers.push("t".into());
                }
            };
            naive.mutate(&key, add);
            let _ = api.edit(key.0, &key.1, &key.2, add);
        }
        Op::RemoveFinalizer { at } => {
            let key = key_of(at);
            naive.mutate(&key, |o| o.meta.finalizers.clear());
            let _ = api.remove_finalizer(key.0, &key.1, &key.2, "t");
        }
        Op::Drain { ns } => {
            let doomed: Vec<Key> =
                naive.objects.keys().filter(|(_, n, _)| n == NAMESPACES[ns]).cloned().collect();
            for key in &doomed {
                let clear = |o: &mut ApiObject| o.meta.finalizers.clear();
                naive.mutate(key, clear);
                let _ = api.edit(key.0, &key.1, &key.2, clear);
                naive.delete(key);
                let _ = api.delete(key.0, &key.1, &key.2);
            }
            for kind in KINDS {
                assert!(api.list_namespaced(kind, NAMESPACES[ns]).is_empty(), "drained {kind}");
            }
        }
        Op::Compact => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_store_equals_the_full_scan_store(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut api = ApiServer::default();
        let mut naive = NaiveApi::default();
        // The twin writes statuses as JSON through `mutate`.
        let (mut twin, mut twin_naive) = (ApiServer::default(), NaiveApi::default());
        // The one watch reader: its cursor and the naive events it has
        // matched.
        let (mut cursor, mut seen) = (0u64, 0usize);
        // The latest snapshot of each object (by uid) the reader saw, on
        // each server.
        let mut latest: BTreeMap<u64, Rc<ApiObject>> = BTreeMap::new();
        let mut twin_seen: BTreeMap<u64, Rc<ApiObject>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut api, &mut naive, op, true);
            apply(&mut twin, &mut twin_naive, op, false);
            if let Op::Compact = op {
                api.compact(cursor);
            }
            prop_assert_eq!(api.requests, twin.requests, "requests @{}", step);
            prop_assert_eq!(api.latest_rv(), twin.latest_rv(), "rv @{}", step);
            prop_assert_eq!(api.object_count(), twin.object_count(), "reaping @{}", step);
            let (twin_events, _) = twin.events_since(cursor);
            // The watch log — order of every Added / Modified / Deleted,
            // cascades included — is the pre-index one.
            let (events, rv) = api.events_since(cursor);
            cursor = rv;
            prop_assert_eq!(events.len(), twin_events.len(), "twin events @{}", step);
            for (ev, twin_ev) in events.iter().zip(twin_events) {
                prop_assert_eq!((ev.rv, ev.kind), (twin_ev.rv, twin_ev.kind));
                prop_assert_eq!(&*ev.object, &*twin_ev.object, "twin snapshot @{}", step);
            }
            let twin_latest: BTreeMap<u64, Rc<ApiObject>> =
                twin_events.iter().map(|e| (e.object.meta.uid, Rc::clone(&e.object))).collect();
            // Only a full replace hands an object a spec of its own.
            let respecced = match *op {
                Op::Replace { at, .. } => naive.get(&key_of(at)).map(|o| o.meta.uid),
                _ => None,
            };
            for ev in events {
                let uid = ev.object.meta.uid;
                if let Some(prev) = latest.get(&uid) {
                    let (o, p) = (&ev.object, prev);
                    prop_assert!(Rc::ptr_eq(&o.meta.name, &p.meta.name), "name @{}", step);
                    prop_assert!(Rc::ptr_eq(&o.meta.namespace, &p.meta.namespace), "ns @{}", step);
                    prop_assert!(
                        respecced == Some(uid) || Rc::ptr_eq(&o.spec, &p.spec),
                        "{:?} {} copied its spec @{}", ev.kind, o.full_name(), step
                    );
                }
                latest.insert(uid, Rc::clone(&ev.object));
            }
            // The door keeps an unchanged spec's handle too.
            for (uid, o) in &twin_latest {
                if let Some(prev) = twin_seen.insert(*uid, Rc::clone(o)) {
                    prop_assert!(
                        respecced == Some(*uid) || Rc::ptr_eq(&o.spec, &prev.spec),
                        "the door copied {}'s spec @{}", o.full_name(), step
                    );
                }
            }
            prop_assert_eq!(events.len(), naive.events.len() - seen, "events @{}", step);
            for (ev, (rv, kind, object)) in events.iter().zip(&naive.events[seen..]) {
                prop_assert_eq!(ev.rv, *rv);
                prop_assert_eq!(ev.kind, *kind);
                prop_assert_eq!(&*ev.object, object);
            }
            seen = naive.events.len();
            prop_assert_eq!(api.object_count(), naive.objects.len(), "step {}", step);
            // Point reads at every address, live or not: `get` is the
            // stored object and `get_rc` hands out that same snapshot.
            for key in every_key() {
                let (k, ns, n) = (key.0, &key.1, &key.2);
                prop_assert_eq!(api.get(k, ns, n), naive.get(&key), "get {:?} @{}", key, step);
                let rc = api.get_rc(k, ns, n);
                prop_assert_eq!(rc.as_deref(), naive.get(&key), "get_rc {:?} @{}", key, step);
                let same = rc.as_deref().map(std::ptr::from_ref)
                    == api.get(k, ns, n).map(std::ptr::from_ref);
                prop_assert!(same, "get_rc {:?} is the stored snapshot @{}", key, step);
            }
            // Ids: every name's id is the oracle's, live or not — so a
            // name created again kept its id — the object under a name's
            // id is the object under the name, and no two live objects
            // share an id.
            for key in every_key() {
                let id = api.id(key.0, &key.1, &key.2);
                prop_assert_eq!(id, naive.ids.get(&key).copied(), "id {:?} @{}", key, step);
                let by_id = id.and_then(|id| api.object(id)).map(|o| &**o);
                prop_assert_eq!(by_id, naive.get(&key), "object by id {:?} @{}", key, step);
            }
            let live: BTreeSet<ObjId> =
                KINDS.iter().flat_map(|&k| api.list(k)).map(|o| o.meta.id).collect();
            prop_assert_eq!(live.len(), api.object_count(), "live ids are distinct @{}", step);
            for kind in KINDS {
                prop_assert_eq!(api.list(kind), naive.list(kind), "list {} @{}", kind, step);
                for ns in NAMESPACES {
                    prop_assert_eq!(
                        api.list_namespaced(kind, ns),
                        naive.list_namespaced(kind, ns),
                        "list_namespaced {}/{} @{}", kind, ns, step
                    );
                }
                // Live owners, reaped owners with terminating children,
                // and one uid never assigned.
                for uid in 1..=naive.uid + 1 {
                    let owned = api.owned_by_rc(uid, kind);
                    prop_assert_eq!(
                        owned.iter().map(|o| &**o).collect::<Vec<_>>(),
                        naive.owned_by(uid, kind),
                        "owned_by {} {} @{}", uid, kind, step
                    );
                }
            }
        }
    }
}

/// The message `f` panicked with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_door_round_trips_every_kind(
        kind in 0..Kind::ALL.len(),
        v in any::<u8>(),
        w in any::<u8>(),
    ) {
        let kind = Kind::ALL[kind];
        let (spec, status) = (spec_for(kind, v), status_for(kind, w));
        let mut api = ApiServer::default();
        // In as JSON: decoded once, at construction.
        let obj = ApiObject::new(kind, "ns", "o", spec_json(&spec));
        prop_assert_eq!(&*obj.spec, &spec);
        prop_assert_eq!(obj.kind(), kind);
        api.create(obj, SimTime::ZERO).unwrap();
        api.mutate(kind, "ns", "o", |o| o.status = status_json(&status)).unwrap();
        let stored = api.get_rc(kind, "ns", "o").unwrap();
        prop_assert_eq!((&*stored.spec, &stored.status), (&spec, &status));
        // Out through the wire form: the same JSON, so the same values.
        let mut wire = None;
        api.mutate(kind, "ns", "o", |o| wire = Some((o.spec.clone(), o.status.clone()))).unwrap();
        prop_assert_eq!(wire, Some((spec_json(&spec), status_json(&status))));
        // That was a no-op edit: a new resource version, one request and
        // one Modified event, and nothing else changed or copied.
        let after = api.get_rc(kind, "ns", "o").unwrap();
        prop_assert_eq!(after.meta.resource_version, stored.meta.resource_version + 1);
        let (events, _) = api.events_since(stored.meta.resource_version);
        prop_assert_eq!(events.len(), 1);
        prop_assert_eq!(events[0].kind, WatchType::Modified);
        prop_assert_eq!(api.requests, 3);
        prop_assert!(Rc::ptr_eq(&after.spec, &stored.spec), "a no-op edit copied the spec");
        let mut same = (*after).clone();
        same.meta.resource_version = stored.meta.resource_version;
        prop_assert_eq!(&same, &*stored);
    }

    #[test]
    fn a_json_edit_that_breaks_the_schema_panics_naming_the_object(
        kind in 0..Kind::ALL.len(),
        status in any::<bool>(),
    ) {
        let kind = Kind::ALL[kind];
        let mut api = ApiServer::default();
        api.create(ApiObject::from_spec("tenant", "obj-7", spec_for(kind, 3)), SimTime::ZERO)
            .unwrap();
        let msg = panic_message(|| {
            let _ = api.mutate(kind, "tenant", "obj-7", |o| {
                if status {
                    o.status = json!(["not", "a", "status"]);
                } else {
                    o.spec = json!("not a spec");
                }
            });
        });
        let part = if status { "status" } else { "spec" };
        prop_assert!(
            msg.starts_with(&format!("bad {kind} {part} for tenant/obj-7: ")),
            "{}", msg
        );
        // A schema break at construction names the object too.
        let msg = panic_message(|| {
            ApiObject::new(kind, "", "node-x", json!({ "parallelism": "many" }));
        });
        prop_assert!(msg.starts_with(&format!("bad {kind} spec for node-x: ")), "{}", msg);
    }
}
