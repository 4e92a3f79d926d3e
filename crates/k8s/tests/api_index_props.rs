//! Equivalence oracle for the indexed API store: after every step of a
//! random create / mutate / re-own / update / delete / finalizer
//! sequence, the range lists, the owner index (which is also the cascade
//! set) and the whole watch log equal those of [`NaiveApi`] — the store
//! as it was before the indexes, which answers everything by scanning
//! every object.

use proptest::prelude::*;
use shs_des::SimTime;
use shs_k8s::{ApiObject, ApiServer, WatchType};
use std::collections::BTreeMap;

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
        (o.kind.clone(), o.meta.namespace.clone(), o.meta.name.clone())
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
}

const KINDS: [&str; 3] = ["Job", "Pod", "Vni"];
const NAMESPACES: [&str; 2] = ["a", "b"];

/// An object address: (kind, namespace, name) indices.
type Addr = (usize, usize, u8);

#[derive(Debug, Clone)]
enum Op {
    /// Create `at`, owned by whatever currently lives at `owner` (if
    /// anything does).
    Create { at: Addr, owner: Addr },
    Touch { at: Addr },
    /// Rewrite `at`'s owner list through `mutate`.
    Reown { at: Addr, owner: Option<Addr> },
    /// Full replace of `at` through `update`, dropping its owners.
    Replace { at: Addr },
    Delete { at: Addr },
    AddFinalizer { at: Addr },
    RemoveFinalizer { at: Addr },
}

fn addr() -> impl Strategy<Value = Addr> {
    (0usize..KINDS.len(), 0usize..NAMESPACES.len(), 0u8..4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (addr(), addr()).prop_map(|(at, owner)| Op::Create { at, owner }),
        2 => addr().prop_map(|at| Op::Touch { at }),
        1 => (addr(), addr()).prop_map(|(at, owner)| Op::Reown { at, owner: Some(owner) }),
        1 => addr().prop_map(|at| Op::Reown { at, owner: None }),
        1 => addr().prop_map(|at| Op::Replace { at }),
        3 => addr().prop_map(|at| Op::Delete { at }),
        2 => addr().prop_map(|at| Op::AddFinalizer { at }),
        3 => addr().prop_map(|at| Op::RemoveFinalizer { at }),
    ]
}

fn key_of((k, ns, n): Addr) -> Key {
    (KINDS[k].to_string(), NAMESPACES[ns].to_string(), format!("o{n}"))
}

/// Apply one op to both stores.
fn apply(api: &mut ApiServer, naive: &mut NaiveApi, op: &Op) {
    let uid_at = |api: &ApiServer, a: Addr| {
        let (k, ns, n) = key_of(a);
        api.get(&k, &ns, &n).map(|o| o.meta.uid)
    };
    match *op {
        Op::Create { at, owner } => {
            let (k, ns, n) = key_of(at);
            let mut obj = ApiObject::new(&k, &ns, &n, serde_json::json!({}));
            obj.meta.owner_uids.extend(uid_at(api, owner));
            naive.create(obj.clone());
            let _ = api.create(obj, SimTime::ZERO);
        }
        Op::Touch { at } => {
            let key = key_of(at);
            let touch = |o: &mut ApiObject| o.status = serde_json::json!({"touched": true});
            naive.mutate(&key, touch);
            let _ = api.mutate(&key.0, &key.1, &key.2, touch);
        }
        Op::Reown { at, owner } => {
            let key = key_of(at);
            let owners: Vec<u64> = owner.and_then(|a| uid_at(api, a)).into_iter().collect();
            naive.mutate(&key, |o| o.meta.owner_uids = owners.clone());
            let _ = api.mutate(&key.0, &key.1, &key.2, |o| o.meta.owner_uids = owners.clone());
        }
        Op::Replace { at } => {
            let key = key_of(at);
            let Some(mut obj) = api.get(&key.0, &key.1, &key.2).cloned() else { return };
            obj.spec = serde_json::json!({"replaced": true});
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
        for (step, op) in ops.iter().enumerate() {
            apply(&mut api, &mut naive, op);
            prop_assert_eq!(api.object_count(), naive.objects.len(), "step {}", step);
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
                    prop_assert_eq!(
                        api.owned_by(uid, kind),
                        naive.owned_by(uid, kind),
                        "owned_by {} {} @{}", uid, kind, step
                    );
                }
            }
        }
        // The watch log — order of every Added / Modified / Deleted,
        // cascades included — is the pre-index one.
        let (events, _) = api.events_since(0);
        prop_assert_eq!(events.len(), naive.events.len());
        for (ev, (rv, kind, object)) in events.iter().zip(&naive.events) {
            prop_assert_eq!(ev.rv, *rv);
            prop_assert_eq!(ev.kind, *kind);
            prop_assert_eq!(&*ev.object, object);
        }
    }
}
