//! Equivalence oracle for the indexed API store: after every step of a
//! random create / mutate / re-own / update / delete / finalizer /
//! compact sequence, the range lists, the owner index (which is also the
//! cascade set) and the watch log equal those of [`NaiveApi`] — the
//! store as it was before the indexes, which answers everything by
//! scanning every object.
//!
//! The same run checks the decoded pod/job views: every stored object,
//! and every watch snapshot as it is first read, shows exactly what a
//! fresh `spec_of` / `status_of` of its own JSON gives, and a snapshot
//! held past later writes still reads its own, older view.
//!
//! And it pins what a write shares: consecutive snapshots of one object
//! hold the very same name, namespace and (unless a full replace gave
//! it a new one) spec handles; and status writes through the `/status`
//! subresource leave a server indistinguishable — events, resource
//! versions, request count, reaping — from a twin that writes them
//! through `mutate`.

use proptest::prelude::*;
use serde_json::{json, Value};
use shs_des::SimTime;
use shs_k8s::{
    spec_of, status_of, ApiObject, ApiServer, JobSpec, JobStatus, PodPhase, PodSpec, PodStatus,
    PodTemplate, WatchType,
};
use std::collections::BTreeMap;
use std::rc::Rc;

type Key = (String, String, String);

/// The pre-index store: full scans for lists and for the reap cascade.
#[derive(Default)]
struct NaiveApi {
    objects: BTreeMap<Key, ApiObject>,
    events: Vec<(u64, WatchType, ApiObject)>,
    rv: u64,
    uid: u64,
}

impl NaiveApi {
    fn key(o: &ApiObject) -> Key {
        (o.kind.to_string(), o.meta.namespace.to_string(), o.meta.name.to_string())
    }

    fn create(&mut self, mut obj: ApiObject) {
        let key = Self::key(&obj);
        if self.objects.contains_key(&key) {
            return;
        }
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

    fn list(&self, kind: &str) -> Vec<&ApiObject> {
        self.objects.iter().filter(|((k, _, _), _)| k == kind).map(|(_, v)| v).collect()
    }

    fn list_namespaced(&self, kind: &str, ns: &str) -> Vec<&ApiObject> {
        self.objects
            .iter()
            .filter(|((k, n, _), _)| k == kind && n == ns)
            .map(|(_, v)| v)
            .collect()
    }

    fn owned_by(&self, uid: u64, kind: &str) -> Vec<&ApiObject> {
        self.list(kind).into_iter().filter(|o| o.meta.owner_uids.contains(&uid)).collect()
    }

    fn get(&self, key: &Key) -> Option<&ApiObject> {
        self.objects.get(key)
    }
}

const KINDS: [&str; 3] = ["Job", "Pod", "Vni"];
/// The cluster-scoped `""` namespace, and one namespace that is a
/// prefix of another.
const NAMESPACES: [&str; 3] = ["", "a", "ab"];
/// Names that are prefixes of each other; every name recurs in every
/// kind and namespace.
const NAMES: [&str; 4] = ["o", "o1", "o10", "p"];

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

/// Spec variant `v` of `kind`: a valid `PodSpec` / `JobSpec`, or free
/// JSON for a kind without a typed view.
fn spec_for(kind: &str, v: u8) -> Value {
    let image = format!("img{v}");
    match kind {
        "Pod" => serde_json::to_value(PodSpec {
            job_name: v.is_multiple_of(2).then(|| format!("j{}", v % 4)),
            image,
            run_ms: Some(v.into()),
            userns_base: None,
            node_name: v.is_multiple_of(3).then(|| "n0".to_string()),
            spread_key: None,
            node_selector: None,
            termination_grace_period_secs: 30,
        }),
        "Job" => serde_json::to_value(JobSpec {
            parallelism: v.into(),
            template: PodTemplate { image, run_ms: None, userns_base: None, node_selector: None },
            ttl_seconds_after_finished: v.is_multiple_of(2).then_some(0),
        }),
        _ => Ok(json!({ "vni": v })),
    }
    .expect("serializes")
}

/// Status variant `v` of `kind`; every fifth one is not a typed status
/// at all, which a typed read must see as `None`.
fn status_for(kind: &str, v: u8) -> Value {
    const PHASES: [PodPhase; 4] =
        [PodPhase::Pending, PodPhase::Running, PodPhase::Succeeded, PodPhase::Failed];
    match kind {
        _ if v % 5 == 4 => Ok(json!({ "touched": v })),
        "Pod" => serde_json::to_value(PodStatus {
            phase: PHASES[usize::from(v) % 4],
            started_at_ns: Some(v.into()),
            message: v.is_multiple_of(3).then(|| "m".to_string()),
        }),
        "Job" => serde_json::to_value(JobStatus {
            succeeded: v.into(),
            complete: v.is_multiple_of(2),
            completed_at_ns: None,
        }),
        _ => Ok(json!({ "touched": v })),
    }
    .expect("serializes")
}

/// What a typed read of an object shows.
#[derive(Debug, Clone, PartialEq)]
enum Typed {
    Pod(PodSpec, Option<PodStatus>),
    Job(JobSpec, Option<JobStatus>),
    Untyped,
}

/// A fresh decode of `o`'s JSON — the oracle.
fn decoded(o: &ApiObject) -> Typed {
    match o.kind {
        "Pod" => Typed::Pod(spec_of(o), status_of(o)),
        "Job" => Typed::Job(spec_of(o), status_of(o)),
        _ => Typed::Untyped,
    }
}

/// `o` read through its decoded view.
fn viewed(o: &ApiObject) -> Typed {
    match o.kind {
        "Pod" => Typed::Pod(o.pod_spec().clone(), o.pod_status().cloned()),
        "Job" => Typed::Job(o.job_spec().clone(), o.job_status().cloned()),
        _ => Typed::Untyped,
    }
}

/// Fill `obj`'s view, then give it spec variant `v`: the store must not
/// keep a view the caller decoded before editing.
fn respec_after_read(obj: &mut ApiObject, v: u8) {
    viewed(obj);
    obj.spec = Rc::new(spec_for(obj.kind, v));
}

fn key_of((k, ns, n): Addr) -> Key {
    (KINDS[k].to_string(), NAMESPACES[ns].to_string(), NAMES[n].to_string())
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
        api.get(&k, &ns, &n).map(|o| o.meta.uid)
    };
    match *op {
        Op::Create { at, owner, v } => {
            let (_, ns, n) = key_of(at);
            let kind = KINDS[at.0];
            let mut obj = ApiObject::new(kind, &ns, &n, spec_for(kind, v.wrapping_add(1)));
            respec_after_read(&mut obj, v);
            obj.meta.owner_uids.extend(uid_at(api, owner));
            naive.create(obj.clone());
            let _ = api.create(obj, SimTime::ZERO);
        }
        Op::Touch { at, v } => {
            let key = key_of(at);
            let status = status_for(&key.0, v);
            naive.mutate(&key, |o| o.status = status.clone());
            let _ = if subresource {
                api.set_status(&key.0, &key.1, &key.2, status)
            } else {
                api.mutate(&key.0, &key.1, &key.2, |o| o.status = status)
            };
        }
        Op::Reown { at, owner } => {
            let key = key_of(at);
            let owners: Vec<u64> = owner.and_then(|a| uid_at(api, a)).into_iter().collect();
            naive.mutate(&key, |o| o.meta.owner_uids = owners.clone());
            let _ = api.mutate(&key.0, &key.1, &key.2, |o| o.meta.owner_uids = owners.clone());
        }
        Op::Replace { at, v } => {
            let key = key_of(at);
            let Some(mut obj) = api.get(&key.0, &key.1, &key.2).cloned() else { return };
            respec_after_read(&mut obj, v);
            obj.meta.owner_uids.clear();
            naive.update(obj.clone());
            let _ = api.update(obj);
        }
        Op::Delete { at } => {
            let key = key_of(at);
            naive.delete(&key);
            let _ = api.delete(&key.0, &key.1, &key.2);
        }
        Op::AddFinalizer { at } => {
            let key = key_of(at);
            let add = |o: &mut ApiObject| {
                if o.meta.finalizers.is_empty() {
                    o.meta.finalizers.push("t".into());
                }
            };
            naive.mutate(&key, add);
            let _ = api.mutate(&key.0, &key.1, &key.2, add);
        }
        Op::RemoveFinalizer { at } => {
            let key = key_of(at);
            naive.mutate(&key, |o| o.meta.finalizers.clear());
            let _ = api.remove_finalizer(&key.0, &key.1, &key.2, "t");
        }
        Op::Drain { ns } => {
            let doomed: Vec<Key> =
                naive.objects.keys().filter(|(_, n, _)| n == NAMESPACES[ns]).cloned().collect();
            for key in &doomed {
                let clear = |o: &mut ApiObject| o.meta.finalizers.clear();
                naive.mutate(key, clear);
                let _ = api.mutate(&key.0, &key.1, &key.2, clear);
                naive.delete(key);
                let _ = api.delete(&key.0, &key.1, &key.2);
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
        // The twin writes statuses through `mutate`.
        let (mut twin, mut twin_naive) = (ApiServer::default(), NaiveApi::default());
        // The one watch reader: its cursor, the naive events it has
        // matched, and every other snapshot it saw, with that snapshot's
        // decode at the time.
        let (mut cursor, mut seen) = (0u64, 0usize);
        let mut held: Vec<(Rc<ApiObject>, Typed)> = Vec::new();
        // The latest snapshot of each object (by uid) the reader saw.
        let mut latest: BTreeMap<u64, Rc<ApiObject>> = BTreeMap::new();
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
            // cascades included — is the pre-index one, and each snapshot
            // reads as its own JSON decodes.
            let (events, rv) = api.events_since(cursor);
            cursor = rv;
            prop_assert_eq!(events.len(), twin_events.len(), "twin events @{}", step);
            for (ev, twin_ev) in events.iter().zip(twin_events) {
                prop_assert_eq!((ev.rv, ev.kind), (twin_ev.rv, twin_ev.kind));
                prop_assert_eq!(&*ev.object, &*twin_ev.object, "twin snapshot @{}", step);
            }
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
            prop_assert_eq!(events.len(), naive.events.len() - seen, "events @{}", step);
            for (i, (ev, (rv, kind, object))) in events.iter().zip(&naive.events[seen..]).enumerate() {
                prop_assert_eq!(ev.rv, *rv);
                prop_assert_eq!(ev.kind, *kind);
                prop_assert_eq!(&*ev.object, object);
                let typed = decoded(object);
                prop_assert_eq!(viewed(&ev.object), typed.clone(), "event view @{}", step);
                if (seen + i) % 2 == 0 {
                    held.push((Rc::clone(&ev.object), typed));
                }
            }
            seen = naive.events.len();
            prop_assert_eq!(api.object_count(), naive.objects.len(), "step {}", step);
            // Point reads at every address, live or not: `get` is the
            // stored object and `get_rc` hands out that same snapshot.
            for key in every_key() {
                let (k, ns, n) = (&key.0, &key.1, &key.2);
                prop_assert_eq!(api.get(k, ns, n), naive.get(&key), "get {:?} @{}", key, step);
                let rc = api.get_rc(k, ns, n);
                prop_assert_eq!(rc.as_deref(), naive.get(&key), "get_rc {:?} @{}", key, step);
                let same = rc.as_deref().map(std::ptr::from_ref)
                    == api.get(k, ns, n).map(std::ptr::from_ref);
                prop_assert!(same, "get_rc {:?} is the stored snapshot @{}", key, step);
            }
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
                for o in api.list(kind) {
                    prop_assert_eq!(viewed(o), decoded(o), "stored view {} @{}", o.full_name(), step);
                }
            }
        }
        // Snapshots held across later writes kept their own views.
        for (snapshot, typed) in &held {
            prop_assert_eq!(&viewed(snapshot), typed, "held {}", snapshot.full_name());
        }
    }
}
