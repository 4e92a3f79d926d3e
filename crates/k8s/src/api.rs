//! The API server: a typed-by-kind object store with resource versions,
//! watch events, finalizers, and owner references — the Kubernetes API
//! machinery subset the paper's VNI Controller and CNI plugin talk to.
//!
//! Objects are typed: an [`ApiObject`] holds one [`Spec`] / [`Status`]
//! pair of the closed set of six [`Kind`]s, the VNI and VniClaim CRDs of
//! §III-C1 among them, so every controller reads and writes Rust values.
//! JSON appears only at the door (`wire`): [`ApiObject::new`] decodes a
//! JSON spec once, at construction, and [`ApiServer::mutate`] hands its
//! closure the JSON wire form and decodes the result back.
//!
//! Every stored object has an integer identity. [`ApiServer::create`]
//! interns the object's `(kind, namespace, name)` into a dense
//! [`ObjId`], carried in [`ObjectMeta::id`]; the server keeps the names
//! for its lifetime, so a name created again gets its old id back and no
//! two live objects share one. The store is a table indexed by id, and
//! a controller keys its per-object state by the id its watch events
//! carry: no string is compared to find an object. The `&str` entry
//! points (`get`, `edit`, `delete`, …) stay for callers that hold only
//! names, at one interner lookup each. Order by `(namespace, name)` is
//! kept only where iteration decides a write or a report: [`list`],
//! [`list_namespaced`], [`owned_by_rc`] and the reap cascade walk
//! name-sorted indexes that change only when an object is created,
//! re-owned or reaped.
//!
//! A write copies only what it changes and a watcher copies nothing. A
//! write builds one new snapshot; its name and namespace are shared
//! handles, its spec is an `Rc` it shares until a write replaces it, and
//! its annotations, owners and finalizers are [`Shared`] collections a
//! write copies only if it edits them. A watch event carries the
//! snapshot itself, so every watcher reads the same typed values.
//!
//! [`list`]: ApiServer::list
//! [`list_namespaced`]: ApiServer::list_namespaced
//! [`owned_by_rc`]: ApiServer::owned_by_rc

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use shs_des::SimTime;

use crate::objects::{Kind, Spec, Status};

/// A stored object's identity: the dense index its `(kind, namespace,
/// name)` was interned to at its first create. It outlives the object —
/// a name created again gets the same id — and an object built but not
/// yet created carries the default, which names nothing until
/// [`ApiServer::create`] assigns the real one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(u32);

impl ObjId {
    /// The id's position in its server's table: ids count up from 0 in
    /// the order names are first interned.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id at position `index`.
    pub fn from_index(index: usize) -> Self {
        ObjId(u32::try_from(index).expect("fewer than 2^32 interned names"))
    }
}

/// `(namespace, name)` of an object whose kind the holder knows: the
/// key a name-ordered set sorts by. Cloning it is two refcount bumps,
/// and it orders by content. Per-object state is keyed by [`ObjId`]
/// instead; a key is built only where (namespace, name) order decides
/// the order of writes.
pub(crate) type ObjKey = (Rc<str>, Rc<str>);

/// The control plane's hasher: [`shs_oslinux::IdHasher`], which the
/// host's tables use too. An [`ObjId`] costs one multiply, a name one
/// multiply per eight bytes.
pub use shs_oslinux::IdHasher as KeyHasher;

/// Per-object state keyed by [`ObjId`].
pub type IdMap<V> = HashMap<ObjId, V, BuildHasherDefault<KeyHasher>>;

/// A set of [`ObjId`]s.
pub(crate) type IdSet = HashSet<ObjId, BuildHasherDefault<KeyHasher>>;

/// A map a borrowed `&str` looks `Rc<str>` keys up in: one level of the
/// interner.
pub(crate) type NameMap<V> = HashMap<Rc<str>, V, BuildHasherDefault<KeyHasher>>;

/// A copy-on-write value: a clone shares it, and the first mutable
/// access through a shared handle copies it (`Rc::make_mut`). Reads and
/// comparisons see through it.
///
/// The default of each metadata collection is one empty value per
/// thread, shared: a fresh object allocates no collection it never
/// writes, and the first write copies the empty value into a handle of
/// its own.
#[derive(Clone, PartialEq, Eq)]
pub struct Shared<T>(Rc<T>);

/// `Default` for the `Shared` collections of [`ObjectMeta`]: a refcount
/// bump on the thread's one empty value.
macro_rules! shared_empty_default {
    ($($t:ty),*) => {$(
        impl Default for Shared<$t> {
            fn default() -> Self {
                thread_local!(static EMPTY: Shared<$t> = Shared(Rc::default()));
                EMPTY.with(Shared::clone)
            }
        }
    )*};
}

shared_empty_default!(BTreeMap<String, String>, Vec<u64>, Vec<Rc<str>>);

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        Rc::make_mut(&mut self.0)
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared(Rc::new(value))
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Object metadata (the `metadata:` block).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectMeta {
    /// Object name, unique within (kind, namespace); every snapshot of
    /// the object and every key naming it share this one string.
    pub name: Rc<str>,
    /// Namespace (`""` for cluster-scoped objects), shared like `name`.
    pub namespace: Rc<str>,
    /// The interned `(kind, namespace, name)`, assigned at creation.
    pub id: ObjId,
    /// Cluster-unique uid, assigned at creation.
    pub uid: u64,
    /// Monotone resource version, bumped on every mutation.
    pub resource_version: u64,
    /// Annotations (the paper's `vni:` key lives here).
    pub annotations: Shared<BTreeMap<String, String>>,
    /// Owner uids (cascade deletion).
    pub owner_uids: Shared<Vec<u64>>,
    /// Finalizers blocking physical deletion. A controller pushes the
    /// one handle it built for its finalizer.
    pub finalizers: Shared<Vec<Rc<str>>>,
    /// Set when deletion has been requested.
    pub deletion_requested: bool,
    /// Creation instant (simulated).
    pub created_at_ns: u64,
}

/// A stored API object. Its kind is its spec's.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiObject {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Desired state, shared by every snapshot until a write replaces
    /// it; edit a field through `Rc::make_mut`.
    pub spec: Rc<Spec>,
    /// Observed state.
    pub status: Status,
}

impl ApiObject {
    /// An object of `spec`'s kind, with no status.
    pub fn from_spec(namespace: &str, name: &str, spec: Spec) -> Self {
        ApiObject::with_key(namespace.into(), name.into(), spec)
    }

    /// [`ApiObject::from_spec`] under names the caller already holds.
    /// Built field by field, not over `ObjectMeta::default()`, whose
    /// name and namespace strings would be allocated only to be dropped.
    pub(crate) fn with_key(namespace: Rc<str>, name: Rc<str>, spec: Spec) -> Self {
        ApiObject {
            meta: ObjectMeta {
                name,
                namespace,
                id: ObjId::default(),
                uid: 0,
                resource_version: 0,
                annotations: Shared::default(),
                owner_uids: Shared::default(),
                finalizers: Shared::default(),
                deletion_requested: false,
                created_at_ns: 0,
            },
            spec: Rc::new(spec),
            status: Status::None,
        }
    }

    /// Kind: one of the closed [`Kind`] set.
    pub fn kind(&self) -> Kind {
        self.spec.kind()
    }

    /// This object's `(namespace, name)` key: two refcount bumps.
    pub fn key(&self) -> ObjKey {
        (Rc::clone(&self.meta.namespace), Rc::clone(&self.meta.name))
    }

    /// Annotation lookup.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.meta.annotations.get(key).map(|s| s.as_str())
    }

    /// `namespace/name` display key.
    pub fn full_name(&self) -> String {
        if self.meta.namespace.is_empty() {
            self.meta.name.to_string()
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

/// One interned `(kind, namespace, name)`: its names, kept for the
/// server's lifetime, and the object stored under them now, if any.
#[derive(Debug)]
struct Slot {
    kind: Kind,
    namespace: Rc<str>,
    name: Rc<str>,
    obj: Option<Rc<ApiObject>>,
}

/// A kind's live ids, namespace → name → id, sorted.
type Sorted = BTreeMap<Rc<str>, BTreeMap<Rc<str>, ObjId>>;

/// The stored objects: a table indexed by [`ObjId`], the interner that
/// maps names to ids (kind, then namespace, then name, each level a
/// hash map a borrowed `&str` looks up), and one name-sorted index per
/// kind for the listings, which only create and reap touch.
#[derive(Debug, Default)]
struct Objects {
    slots: Vec<Slot>,
    ids: [NameMap<NameMap<ObjId>>; Kind::ALL.len()],
    /// One handle per distinct name or namespace interned: a name
    /// interned again under another kind shares its string.
    strings: NameMap<()>,
    sorted: [Sorted; Kind::ALL.len()],
    len: usize,
}

impl Objects {
    /// The id `(kind, namespace, name)` was interned to, if it was.
    fn id(&self, kind: Kind, namespace: &str, name: &str) -> Option<ObjId> {
        self.ids[kind.index()].get(namespace)?.get(name).copied()
    }

    /// The id of `(kind, namespace, name)`, interning it under these
    /// handles if it is new.
    fn intern(&mut self, kind: Kind, namespace: &Rc<str>, name: &Rc<str>) -> ObjId {
        if let Some(id) = self.id(kind, namespace, name) {
            return id;
        }
        let id = ObjId::from_index(self.slots.len());
        let namespace = self.share(namespace, || Rc::clone(namespace));
        let name = self.share(name, || Rc::clone(name));
        let (ns, n) = (Rc::clone(&namespace), Rc::clone(&name));
        self.slots.push(Slot { kind, namespace: ns, name: n, obj: None });
        self.ids[kind.index()].entry(namespace).or_default().insert(name, id);
        id
    }

    /// The pooled handle of `s`; if the pool has none, `make()` joins
    /// it.
    fn share(&mut self, s: &str, make: impl FnOnce() -> Rc<str>) -> Rc<str> {
        if let Some((pooled, ())) = self.strings.get_key_value(s) {
            return Rc::clone(pooled);
        }
        let handle = make();
        self.strings.insert(Rc::clone(&handle), ());
        handle
    }

    fn get(&self, id: ObjId) -> Option<&Rc<ApiObject>> {
        self.slots.get(id.index())?.obj.as_ref()
    }

    fn get_mut(&mut self, id: ObjId) -> Option<&mut Rc<ApiObject>> {
        self.slots.get_mut(id.index())?.obj.as_mut()
    }

    /// Store `obj` under `id`, which must hold no object.
    fn insert(&mut self, id: ObjId, obj: Rc<ApiObject>) {
        let slot = &mut self.slots[id.index()];
        assert!(slot.obj.is_none(), "insert over a stored object");
        self.sorted[slot.kind.index()]
            .entry(Rc::clone(&slot.namespace))
            .or_default()
            .insert(Rc::clone(&slot.name), id);
        slot.obj = Some(obj);
        self.len += 1;
    }

    fn remove(&mut self, id: ObjId) -> Option<Rc<ApiObject>> {
        let slot = self.slots.get_mut(id.index())?;
        let obj = slot.obj.take()?;
        let namespaces = &mut self.sorted[slot.kind.index()];
        let names = namespaces.get_mut(&slot.namespace).expect("stored objects are sorted");
        names.remove(&slot.name);
        if names.is_empty() {
            namespaces.remove(&slot.namespace);
        }
        self.len -= 1;
        Some(obj)
    }

    /// `(kind, namespace, name)` order of two interned ids.
    fn cmp_keys(&self, a: ObjId, b: ObjId) -> Ordering {
        let (a, b) = (&self.slots[a.index()], &self.slots[b.index()]);
        (a.kind, &a.namespace, &a.name).cmp(&(b.kind, &b.namespace, &b.name))
    }

    fn stored<'a>(
        &'a self,
        ids: impl Iterator<Item = &'a ObjId>,
    ) -> impl Iterator<Item = &'a Rc<ApiObject>> {
        ids.map(|&id| self.get(id).expect("sorted ids are stored"))
    }

    /// Every object of `kind`, in (namespace, name) order.
    fn of_kind(&self, kind: Kind) -> impl Iterator<Item = &Rc<ApiObject>> {
        self.stored(self.sorted[kind.index()].values().flat_map(|names| names.values()))
    }

    /// Every object of `kind` in `namespace`, in name order.
    fn in_namespace(&self, kind: Kind, namespace: &str) -> impl Iterator<Item = &Rc<ApiObject>> {
        let names = self.sorted[kind.index()].get(namespace).into_iter();
        self.stored(names.flat_map(|names| names.values()))
    }
}

/// The API server.
#[derive(Debug)]
pub struct ApiServer {
    /// Each stored object is the snapshot its latest watch event carries.
    objects: Objects,
    /// Owner index: uid → ids of the stored objects naming it in
    /// `owner_uids`, sorted by (kind, namespace, name) (an owner has a
    /// handful of children). A reaped owner's entry lives on until its
    /// last (terminating) child is reaped too; uids are never reused.
    owned: BTreeMap<u64, Vec<ObjId>>,
    /// The watch log from `compacted_through` on, in rv order.
    events: Vec<WatchEvent>,
    /// Every event with `rv <= compacted_through` has been dropped.
    compacted_through: u64,
    next_rv: u64,
    next_uid: u64,
    /// Cumulative request count (diagnostics).
    pub requests: u64,
}

impl Default for ApiServer {
    /// Fresh API server.
    fn default() -> Self {
        ApiServer {
            objects: Objects::default(),
            owned: BTreeMap::new(),
            events: Vec::new(),
            compacted_through: 0,
            next_rv: 1,
            next_uid: 1,
            requests: 0,
        }
    }
}

impl ApiServer {
    fn bump(&mut self) -> u64 {
        let rv = self.next_rv;
        self.next_rv += 1;
        rv
    }

    fn emit(&mut self, kind: WatchType, object: Rc<ApiObject>) {
        let rv = object.meta.resource_version;
        self.events.push(WatchEvent { rv, kind, object });
    }

    /// Move `obj` in the owner index from the `old` owner list to `new`.
    fn reindex(&mut self, obj: &ApiObject, old: &[u64], new: &[u64]) {
        if old == new {
            return;
        }
        let id = obj.meta.id;
        for uid in old {
            if let Some(children) = self.owned.get_mut(uid) {
                if let Some(i) = children.iter().position(|&c| c == id) {
                    children.remove(i);
                }
                if children.is_empty() {
                    self.owned.remove(uid);
                }
            }
        }
        let objects = &self.objects;
        for &uid in new {
            let children = self.owned.entry(uid).or_default();
            if !children.contains(&id) {
                let i = children.partition_point(|&c| objects.cmp_keys(c, id) == Ordering::Less);
                children.insert(i, id);
            }
        }
    }

    /// Create an object; assigns its id, uid and resource version.
    pub fn create(&mut self, mut obj: ApiObject, now: SimTime) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        let id = self.objects.intern(obj.kind(), &obj.meta.namespace, &obj.meta.name);
        if self.objects.get(id).is_some() {
            return Err(ApiError::AlreadyExists);
        }
        obj.meta.id = id;
        obj.meta.uid = self.next_uid;
        self.next_uid += 1;
        obj.meta.resource_version = self.bump();
        obj.meta.created_at_ns = now.as_nanos();
        obj.meta.deletion_requested = false;
        let obj = Rc::new(obj);
        self.reindex(&obj, &[], &obj.meta.owner_uids);
        self.objects.insert(id, Rc::clone(&obj));
        self.emit(WatchType::Added, Rc::clone(&obj));
        Ok(obj)
    }

    /// The id `(kind, namespace, name)` was interned to — by a create,
    /// or by [`intern`](Self::intern) — whether or not an object is
    /// stored under it now.
    pub fn id(&self, kind: Kind, namespace: &str, name: &str) -> Option<ObjId> {
        self.objects.id(kind, namespace, name)
    }

    /// The id an object of `kind` named `namespace/name` has, or will
    /// get when it is created: a caller that will look an object up
    /// many times resolves its name once, here.
    pub fn intern(&mut self, kind: Kind, namespace: &str, name: &str) -> ObjId {
        if let Some(id) = self.objects.id(kind, namespace, name) {
            return id;
        }
        let namespace = self.objects.share(namespace, || namespace.into());
        let name = self.objects.share(name, || name.into());
        self.objects.intern(kind, &namespace, &name)
    }

    /// The server's shared handle of `s`, if some object's name or
    /// namespace was interned as `s`.
    pub(crate) fn string(&self, s: &str) -> Option<&Rc<str>> {
        self.objects.strings.get_key_value(s).map(|(handle, ())| handle)
    }

    /// The object stored under `id` now: the snapshot its latest watch
    /// event carries.
    pub fn object(&self, id: ObjId) -> Option<&Rc<ApiObject>> {
        self.objects.get(id)
    }

    /// The name `id` was interned under.
    pub(crate) fn name_of(&self, id: ObjId) -> &str {
        &self.objects.slots[id.index()].name
    }

    /// `(kind, namespace, name)` order of two interned ids — the order
    /// of the string keys they replaced.
    pub(crate) fn name_order(&self, a: ObjId, b: ObjId) -> Ordering {
        self.objects.cmp_keys(a, b)
    }

    /// Drop repeats from `ids` and sort them by [`name_order`].
    ///
    /// [`name_order`]: Self::name_order
    pub(crate) fn sort_by_name(&self, ids: &mut Vec<ObjId>) {
        ids.sort_unstable();
        ids.dedup();
        ids.sort_unstable_by(|&a, &b| self.name_order(a, b));
    }

    /// Get an object.
    pub fn get(&self, kind: Kind, namespace: &str, name: &str) -> Option<&ApiObject> {
        self.objects.get(self.id(kind, namespace, name)?).map(|o| &**o)
    }

    /// Get the stored snapshot itself: a handle a controller can hold
    /// across its own writes without copying the object.
    pub fn get_rc(&self, kind: Kind, namespace: &str, name: &str) -> Option<Rc<ApiObject>> {
        self.objects.get(self.id(kind, namespace, name)?).cloned()
    }

    /// List all objects of a kind (all namespaces), in deterministic
    /// (namespace, name) order: a walk of the kind's sorted index, not a
    /// scan.
    pub fn list(&self, kind: Kind) -> Vec<&ApiObject> {
        self.objects.of_kind(kind).map(|o| &**o).collect()
    }

    /// List objects of a kind in one namespace, in name order.
    pub fn list_namespaced(&self, kind: Kind, namespace: &str) -> Vec<&ApiObject> {
        self.objects.in_namespace(kind, namespace).map(|o| &**o).collect()
    }

    /// Stored objects of `kind` naming `uid` among their owners, in
    /// (namespace, name) order — an owner-index read proportional to the
    /// owner's children, never to the store. The handles are the stored
    /// snapshots, so a reconcile can write while it holds them.
    pub fn owned_by_rc(&self, uid: u64, kind: Kind) -> Vec<Rc<ApiObject>> {
        let Some(children) = self.owned.get(&uid) else { return Vec::new() };
        let stored =
            children.iter().map(|&c| self.objects.get(c).expect("indexed objects are stored"));
        stored.filter(|o| o.kind() == kind).cloned().collect()
    }

    /// Update an object (full replace). Enforces optimistic concurrency:
    /// the supplied object must carry the current resource version.
    pub fn update(&mut self, mut obj: ApiObject) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        let id = self.id(obj.kind(), &obj.meta.namespace, &obj.meta.name);
        let id = id.ok_or(ApiError::NotFound)?;
        let current = self.objects.get(id).ok_or(ApiError::NotFound)?;
        if current.meta.resource_version != obj.meta.resource_version {
            return Err(ApiError::Conflict);
        }
        obj.meta.id = id;
        obj.meta.uid = current.meta.uid;
        obj.meta.created_at_ns = current.meta.created_at_ns;
        obj.meta.deletion_requested = current.meta.deletion_requested;
        obj.meta.resource_version = self.bump();
        let obj = Rc::new(obj);
        let slot = self.objects.get_mut(id).expect("checked above");
        let old = std::mem::replace(slot, Rc::clone(&obj));
        self.reindex(&obj, &old.meta.owner_uids, &obj.meta.owner_uids);
        self.emit(WatchType::Modified, Rc::clone(&obj));
        self.maybe_reap(id);
        Ok(obj)
    }

    /// Store `next(stored)` under a fresh resource version, emit the
    /// Modified event, and reap if that cleared the way. The previous
    /// snapshot stays with the events that carry it; the new one shares
    /// every handle `next` did not replace.
    pub(crate) fn write(
        &mut self,
        id: ObjId,
        next: impl FnOnce(&ApiObject) -> ApiObject,
    ) -> Result<Rc<ApiObject>, ApiError> {
        let slot = self.objects.get_mut(id).ok_or(ApiError::NotFound)?;
        let mut obj = next(slot);
        obj.meta.id = id;
        obj.meta.resource_version = self.next_rv;
        self.next_rv += 1;
        let snapshot = Rc::new(obj);
        let before = std::mem::replace(slot, Rc::clone(&snapshot));
        self.reindex(&snapshot, &before.meta.owner_uids, &snapshot.meta.owner_uids);
        self.emit(WatchType::Modified, Rc::clone(&snapshot));
        self.maybe_reap(id);
        Ok(snapshot)
    }

    /// Edit an object in place via a closure (read-modify-write without
    /// caller-side conflicts) and return the new version. The closure
    /// edits a copy of the stored snapshot that shares its spec and
    /// metadata collections, so the write copies only what it touches.
    pub fn edit(
        &mut self,
        kind: Kind,
        namespace: &str,
        name: &str,
        f: impl FnOnce(&mut ApiObject),
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.edit_at(self.id(kind, namespace, name), f)
    }

    /// [`edit`](Self::edit) the object stored under `id`.
    pub fn edit_id(
        &mut self,
        id: ObjId,
        f: impl FnOnce(&mut ApiObject),
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.edit_at(Some(id), f)
    }

    fn edit_at(
        &mut self,
        id: Option<ObjId>,
        f: impl FnOnce(&mut ApiObject),
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        self.write(id.ok_or(ApiError::NotFound)?, |o| {
            let mut o = o.clone();
            f(&mut o);
            o
        })
    }

    /// Replace an object's status: Kubernetes' `/status` subresource.
    /// Request, resource version, event and reaping are exactly those of
    /// `edit(|o| o.status = status)`, but the old status is not copied.
    pub fn set_status(
        &mut self,
        kind: Kind,
        namespace: &str,
        name: &str,
        status: Status,
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.set_status_at(self.id(kind, namespace, name), status)
    }

    /// [`set_status`](Self::set_status) of the object stored under `id`.
    pub fn set_status_id(&mut self, id: ObjId, status: Status) -> Result<Rc<ApiObject>, ApiError> {
        self.set_status_at(Some(id), status)
    }

    fn set_status_at(
        &mut self,
        id: Option<ObjId>,
        status: Status,
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        self.write(id.ok_or(ApiError::NotFound)?, |o| ApiObject {
            meta: o.meta.clone(),
            spec: Rc::clone(&o.spec),
            status,
        })
    }

    /// Request deletion. With finalizers present the object enters the
    /// "terminating" state (deletion_requested = true) and watchers see a
    /// Modified event; once the last finalizer is removed it is reaped.
    pub fn delete(&mut self, kind: Kind, namespace: &str, name: &str) -> Result<(), ApiError> {
        self.delete_at(self.id(kind, namespace, name))
    }

    /// [`delete`](Self::delete) the object stored under `id`.
    pub fn delete_id(&mut self, id: ObjId) -> Result<(), ApiError> {
        self.delete_at(Some(id))
    }

    fn delete_at(&mut self, id: Option<ObjId>) -> Result<(), ApiError> {
        self.requests += 1;
        let id = id.ok_or(ApiError::NotFound)?;
        let obj = self.objects.get(id).ok_or(ApiError::NotFound)?;
        if !obj.meta.deletion_requested {
            self.write(id, |o| {
                let mut o = o.clone();
                o.meta.deletion_requested = true;
                o
            })?;
        }
        Ok(()) // idempotent while terminating
    }

    /// Remove a finalizer; reaps the object if it was the last one and
    /// deletion was requested.
    pub fn remove_finalizer(
        &mut self,
        kind: Kind,
        namespace: &str,
        name: &str,
        finalizer: &str,
    ) -> Result<(), ApiError> {
        self.remove_finalizer_at(self.id(kind, namespace, name), finalizer)
    }

    /// [`remove_finalizer`](Self::remove_finalizer) from the object
    /// stored under `id`.
    pub fn remove_finalizer_id(&mut self, id: ObjId, finalizer: &str) -> Result<(), ApiError> {
        self.remove_finalizer_at(Some(id), finalizer)
    }

    fn remove_finalizer_at(&mut self, id: Option<ObjId>, finalizer: &str) -> Result<(), ApiError> {
        self.edit_at(id, |o| {
            o.meta.finalizers.retain(|f| &**f != finalizer);
        })
        .map(|_| ())
    }

    fn maybe_reap(&mut self, id: ObjId) {
        let Some(obj) = self.objects.get(id) else { return };
        if obj.meta.deletion_requested && obj.meta.finalizers.is_empty() {
            let obj = self.objects.remove(id).expect("present");
            self.reindex(&obj, &obj.meta.owner_uids, &[]);
            // Cascade: delete children owned by this uid, in key order.
            let children = self.owned.get(&obj.meta.uid).cloned().unwrap_or_default();
            self.emit(WatchType::Deleted, obj);
            for child in children {
                let _ = self.delete_id(child);
            }
        }
    }

    /// Watch events with rv strictly greater than `since`, and the latest
    /// rv to resume from. The log holds only what [`compact`] has not
    /// dropped: a reader whose cursor is at or past the compacted rv
    /// sees every event after it, in order; a cursor below it panics —
    /// Kubernetes answers "resourceVersion too old" — because the reader
    /// would silently miss events. The log is sorted by rv, so resumption
    /// is a binary search, and the events are a borrowed tail of the log
    /// itself: a reader copies nothing, and one that writes before it is
    /// done with them must first keep what it needs.
    ///
    /// [`compact`]: Self::compact
    pub fn events_since(&self, since: u64) -> (&[WatchEvent], u64) {
        assert!(
            since >= self.compacted_through,
            "resourceVersion {since} too old: the watch log is compacted through {}",
            self.compacted_through
        );
        let start = self.events.partition_point(|e| e.rv <= since);
        let evs = &self.events[start..];
        let latest = evs.last().map_or(since, |e| e.rv);
        (evs, latest)
    }

    /// Drop every watch event with `rv <= through_rv`. Only a run loop
    /// that owns every reader of this server may call it, with the
    /// minimum of their cursors: each reader has consumed what is
    /// dropped, and a reader it missed fails loudly on its next
    /// [`events_since`](Self::events_since) instead of skipping events.
    pub fn compact(&mut self, through_rv: u64) {
        assert!(through_rv <= self.latest_rv(), "compact past the latest rv {}", self.latest_rv());
        let n = self.events.partition_point(|e| e.rv <= through_rv);
        self.events.drain(..n);
        self.compacted_through = self.compacted_through.max(through_rv);
    }

    /// Current highest resource version.
    pub fn latest_rv(&self) -> u64 {
        self.next_rv - 1
    }

    /// Total stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{JobSpec, PodPhase, PodStatus, PodTemplate};
    use serde_json::json;

    fn api() -> ApiServer {
        ApiServer::default()
    }

    fn job(name: &str) -> ApiObject {
        ApiObject::new(Kind::Job, "ns", name, json!({"parallelism": 1, "template": {"image": "x"}}))
    }

    fn pod(ns: &str, name: &str) -> ApiObject {
        ApiObject::new(Kind::Pod, ns, name, json!({"image": "x"}))
    }

    #[test]
    fn create_assigns_uid_and_rv() {
        let mut api = api();
        let a = api.create(job("a"), SimTime::ZERO).unwrap();
        let b = api.create(job("b"), SimTime::ZERO).unwrap();
        assert_ne!(a.meta.uid, b.meta.uid);
        assert!(b.meta.resource_version > a.meta.resource_version);
        assert_eq!(
            api.create(job("a"), SimTime::ZERO)
                .unwrap_err(),
            ApiError::AlreadyExists
        );
    }

    #[test]
    fn update_enforces_optimistic_concurrency() {
        let mut api = api();
        let obj = api.create(job("a"), SimTime::ZERO).unwrap();
        let spec = |parallelism| {
            let template =
                PodTemplate { image: "x".into(), run_ms: None, userns_base: None, node_selector: None };
            Rc::new(Spec::Job(JobSpec { parallelism, template, ttl_seconds_after_finished: None }))
        };
        let mut stale = (*obj).clone();
        let mut fresh = stale.clone();
        fresh.spec = spec(1);
        let fresh = api.update(fresh).unwrap();
        stale.spec = spec(2);
        assert_eq!(api.update(stale).unwrap_err(), ApiError::Conflict);
        assert_eq!(api.get(Kind::Job, "ns", "a").unwrap().spec, spec(1));
        assert!(fresh.meta.resource_version > 1);
    }

    #[test]
    fn delete_without_finalizers_reaps_immediately() {
        let mut api = api();
        api.create(pod("ns", "p"), SimTime::ZERO).unwrap();
        api.delete(Kind::Pod, "ns", "p").unwrap();
        assert!(api.get(Kind::Pod, "ns", "p").is_none());
        let (evs, _) = api.events_since(0);
        assert!(matches!(evs.last().unwrap().kind, WatchType::Deleted));
    }

    #[test]
    fn finalizers_block_deletion_until_removed() {
        let mut api = api();
        let mut obj = job("j");
        obj.meta.finalizers.push("vni.example/finalize".into());
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete(Kind::Job, "ns", "j").unwrap();
        let o = api.get(Kind::Job, "ns", "j").expect("still terminating");
        assert!(o.meta.deletion_requested);
        api.remove_finalizer(Kind::Job, "ns", "j", "vni.example/finalize").unwrap();
        assert!(api.get(Kind::Job, "ns", "j").is_none());
    }

    #[test]
    fn delete_is_idempotent_while_terminating() {
        let mut api = api();
        let mut obj = job("j");
        obj.meta.finalizers.push("f".into());
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete(Kind::Job, "ns", "j").unwrap();
        api.delete(Kind::Job, "ns", "j").unwrap();
        assert!(api.get(Kind::Job, "ns", "j").is_some());
    }

    #[test]
    fn cascade_deletes_owned_children() {
        let mut api = api();
        let job = api.create(job("j"), SimTime::ZERO).unwrap();
        let mut pod = pod("ns", "j-0");
        pod.meta.owner_uids.push(job.meta.uid);
        api.create(pod, SimTime::ZERO).unwrap();
        api.delete(Kind::Job, "ns", "j").unwrap();
        assert!(api.get(Kind::Pod, "ns", "j-0").is_none(), "cascade");
    }

    #[test]
    fn watch_events_resume_from_rv() {
        let mut api = api();
        api.create(pod("ns", "a"), SimTime::ZERO).unwrap();
        let (evs1, rv1) = api.events_since(0);
        assert_eq!(evs1.len(), 1);
        api.create(pod("ns", "b"), SimTime::ZERO).unwrap();
        let (evs2, rv2) = api.events_since(rv1);
        assert_eq!(evs2.len(), 1);
        assert_eq!(&*evs2[0].object.meta.name, "b");
        assert!(rv2 > rv1);
        let (evs3, _) = api.events_since(rv2);
        assert!(evs3.is_empty());
    }

    #[test]
    fn mutate_bumps_rv_and_emits() {
        let mut api = api();
        api.create(pod("ns", "a"), SimTime::ZERO).unwrap();
        let before = api.latest_rv();
        api.mutate(Kind::Pod, "ns", "a", |o| {
            o.status = json!({"phase": "Running"});
        })
        .unwrap();
        assert!(api.latest_rv() > before);
        let running = PodStatus { phase: PodPhase::Running, started_at_ns: None, message: None };
        assert_eq!(api.get(Kind::Pod, "ns", "a").unwrap().status, Status::Pod(running));
    }

    #[test]
    fn list_is_deterministic_and_namespaced() {
        let mut api = api();
        for (ns, n) in [("b", "x"), ("a", "y"), ("a", "x")] {
            api.create(pod(ns, n), SimTime::ZERO).unwrap();
        }
        let names: Vec<String> = api.list(Kind::Pod).iter().map(|o| o.full_name()).collect();
        assert_eq!(names, vec!["a/x", "a/y", "b/x"]);
        assert_eq!(api.list_namespaced(Kind::Pod, "a").len(), 2);
    }
}
