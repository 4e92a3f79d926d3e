//! Property tests for the API machinery: resource-version monotonicity,
//! watch-stream completeness (a resuming watcher reconstructs the exact
//! store state), compaction behind the slowest reader, and
//! finalizer/deletion safety.

use proptest::prelude::*;
use shs_des::SimTime;
use shs_k8s::{ApiObject, ApiServer, Kind, WatchEvent, WatchType};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Create { name: u8 },
    Mutate { name: u8 },
    Delete { name: u8 },
    AddFinalizer { name: u8 },
    RemoveFinalizer { name: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..12).prop_map(|name| Op::Create { name }),
        3 => (0u8..12).prop_map(|name| Op::Mutate { name }),
        2 => (0u8..12).prop_map(|name| Op::Delete { name }),
        1 => (0u8..12).prop_map(|name| Op::AddFinalizer { name }),
        2 => (0u8..12).prop_map(|name| Op::RemoveFinalizer { name }),
    ]
}

fn run_ops(api: &mut ApiServer, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Create { name } => {
                let spec = serde_json::json!({"image": "x"});
                let obj = ApiObject::new(Kind::Pod, "ns", &format!("p{name}"), spec);
                let _ = api.create(obj, SimTime::ZERO);
            }
            Op::Mutate { name } => {
                let _ = api.mutate(Kind::Pod, "ns", &format!("p{name}"), |o| {
                    o.status = serde_json::json!({"phase": "Running"});
                });
            }
            Op::Delete { name } => {
                let _ = api.delete(Kind::Pod, "ns", &format!("p{name}"));
            }
            Op::AddFinalizer { name } => {
                let _ = api.mutate(Kind::Pod, "ns", &format!("p{name}"), |o| {
                    if !o.meta.finalizers.iter().any(|f| &**f == "t") {
                        o.meta.finalizers.push("t".into());
                    }
                });
            }
            Op::RemoveFinalizer { name } => {
                let _ = api.remove_finalizer(Kind::Pod, "ns", &format!("p{name}"), "t");
            }
        }
    }
}

/// Readers in the compaction oracle.
const READERS: usize = 3;

/// One step of a compaction history.
#[derive(Debug, Clone)]
enum Step {
    Write(Op),
    /// Reader `r` resumes from its cursor.
    Poll { r: usize },
    /// Compact through the slowest reader's cursor.
    Compact,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => op_strategy().prop_map(Step::Write),
        3 => (0..READERS).prop_map(|r| Step::Poll { r }),
        1 => Just(Step::Compact),
    ]
}

/// What a reader saw of one event: enough to tell any two apart.
fn seen(ev: &WatchEvent) -> (u64, WatchType, ApiObject) {
    (ev.rv, ev.kind, (*ev.object).clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compaction never drops an unread event: with writes, readers
    /// polling at random cadences and `compact(min cursor)` interleaved,
    /// every reader's stream equals its stream on an uncompacted twin.
    #[test]
    fn compaction_behind_the_slowest_reader_loses_nothing(
        steps in prop::collection::vec(step_strategy(), 1..150),
    ) {
        let (mut api, mut twin) = (ApiServer::default(), ApiServer::default());
        let mut cursors = [0u64; READERS];
        let mut streams: [Vec<(u64, WatchType, ApiObject)>; READERS] = Default::default();
        let mut twin_streams = streams.clone();
        let mut poll = |api: &ApiServer, twin: &ApiServer, r: usize, cursors: &mut [u64]| {
            let (evs, rv) = api.events_since(cursors[r]);
            let (twin_evs, twin_rv) = twin.events_since(cursors[r]);
            assert_eq!(rv, twin_rv, "reader {r} resumes from different rvs");
            cursors[r] = rv;
            streams[r].extend(evs.iter().map(seen));
            twin_streams[r].extend(twin_evs.iter().map(seen));
        };
        for step in &steps {
            match step {
                Step::Write(op) => {
                    run_ops(&mut api, std::slice::from_ref(op));
                    run_ops(&mut twin, std::slice::from_ref(op));
                }
                Step::Poll { r } => poll(&api, &twin, *r, &mut cursors),
                Step::Compact => api.compact(*cursors.iter().min().expect("readers")),
            }
        }
        for r in 0..READERS {
            poll(&api, &twin, r, &mut cursors);
        }
        prop_assert_eq!(&streams, &twin_streams);
        // And every reader saw the whole history.
        prop_assert_eq!(&streams[0], &twin.events_since(0).0.iter().map(seen).collect::<Vec<_>>());
    }

    /// Watch events have strictly monotone resource versions, and a
    /// watcher replaying the full stream reconstructs the live store.
    #[test]
    fn watch_stream_reconstructs_store(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut api = ApiServer::default();
        run_ops(&mut api, &ops);

        let (events, _) = api.events_since(0);
        let mut last_rv = 0;
        let mut replica: BTreeMap<String, ApiObject> = BTreeMap::new();
        for ev in events {
            prop_assert!(ev.rv >= last_rv, "rv regressed");
            last_rv = ev.rv;
            match ev.kind {
                WatchType::Added | WatchType::Modified => {
                    replica.insert(ev.object.meta.name.to_string(), (*ev.object).clone());
                }
                WatchType::Deleted => {
                    replica.remove(&*ev.object.meta.name);
                }
            }
        }
        let live: BTreeMap<String, ApiObject> = api
            .list(Kind::Pod)
            .into_iter()
            .map(|o| (o.meta.name.to_string(), o.clone()))
            .collect();
        prop_assert_eq!(replica, live, "replay diverged from store");
    }

    /// Resumption correctness: consuming the stream in two arbitrary
    /// halves sees exactly the same events as consuming it whole.
    #[test]
    fn watch_resumption_loses_nothing(
        ops1 in prop::collection::vec(op_strategy(), 1..40),
        ops2 in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut api = ApiServer::default();
        run_ops(&mut api, &ops1);
        let (first, rv) = api.events_since(0);
        let first = first.len();
        run_ops(&mut api, &ops2);
        let (second, _) = api.events_since(rv);
        let (whole, _) = api.events_since(0);
        prop_assert_eq!(first + second.len(), whole.len());
    }

    /// Finalizer safety: an object with finalizers survives deletion
    /// requests until the last finalizer is removed — and is then reaped
    /// without further intervention.
    #[test]
    fn finalizers_gate_reaping(n_finalizers in 1usize..4) {
        let mut api = ApiServer::default();
        let spec = serde_json::json!({"parallelism": 1, "template": {"image": "x"}});
        let mut obj = ApiObject::new(Kind::Job, "ns", "j", spec);
        for i in 0..n_finalizers {
            obj.meta.finalizers.push(format!("f{i}").into());
        }
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete(Kind::Job, "ns", "j").unwrap();
        for i in 0..n_finalizers {
            prop_assert!(api.get(Kind::Job, "ns", "j").is_some(), "reaped too early");
            api.remove_finalizer(Kind::Job, "ns", "j", &format!("f{i}")).unwrap();
        }
        prop_assert!(api.get(Kind::Job, "ns", "j").is_none(), "not reaped at zero finalizers");
    }

    /// Uid uniqueness: no two creations ever share a uid, even through
    /// delete/re-create cycles of the same name.
    #[test]
    fn uids_are_never_reused(cycles in 1usize..20) {
        let mut api = ApiServer::default();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..cycles {
            let spec = serde_json::json!({"image": "x"});
            let obj = ApiObject::new(Kind::Pod, "ns", "same-name", spec);
            let created = api.create(obj, SimTime::ZERO).unwrap();
            prop_assert!(seen.insert(created.meta.uid), "uid reused");
            api.delete(Kind::Pod, "ns", "same-name").unwrap();
        }
    }
}

/// A reader whose cursor is below the compacted rv would miss events: it
/// is refused ("resourceVersion too old"), never served a gap.
#[test]
#[should_panic(expected = "too old")]
fn reading_below_the_compacted_floor_panics() {
    let mut api = ApiServer::default();
    for name in ["a", "b", "c"] {
        let pod = ApiObject::new(Kind::Pod, "ns", name, serde_json::json!({"image": "x"}));
        api.create(pod, SimTime::ZERO).unwrap();
    }
    let (_, fast) = api.events_since(0);
    api.compact(fast - 1);
    let _ = api.events_since(fast - 1); // at the floor: fine
    api.events_since(fast - 2);
}
