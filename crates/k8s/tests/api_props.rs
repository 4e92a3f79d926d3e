//! Property tests for the API machinery: resource-version monotonicity,
//! watch-stream completeness (a resuming watcher reconstructs the exact
//! store state), and finalizer/deletion safety.

use proptest::prelude::*;
use shs_des::SimTime;
use shs_k8s::{ApiObject, ApiServer, WatchType};
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
                let obj = ApiObject::new("Pod", "ns", &format!("p{name}"), serde_json::json!({}));
                let _ = api.create(obj, SimTime::ZERO);
            }
            Op::Mutate { name } => {
                let _ = api.mutate("Pod", "ns", &format!("p{name}"), |o| {
                    o.status = serde_json::json!({"touched": true});
                });
            }
            Op::Delete { name } => {
                let _ = api.delete("Pod", "ns", &format!("p{name}"));
            }
            Op::AddFinalizer { name } => {
                let _ = api.mutate("Pod", "ns", &format!("p{name}"), |o| {
                    if !o.meta.finalizers.iter().any(|f| f == "t") {
                        o.meta.finalizers.push("t".into());
                    }
                });
            }
            Op::RemoveFinalizer { name } => {
                let _ = api.remove_finalizer("Pod", "ns", &format!("p{name}"), "t");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Watch events have strictly monotone resource versions, and a
    /// watcher replaying the full stream reconstructs the live store.
    #[test]
    fn watch_stream_reconstructs_store(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut api = ApiServer::default();
        run_ops(&mut api, &ops);

        let (events, _) = api.events_since(0);
        let mut last_rv = 0;
        let mut replica: BTreeMap<String, ApiObject> = BTreeMap::new();
        for ev in &events {
            prop_assert!(ev.rv >= last_rv, "rv regressed");
            last_rv = ev.rv;
            match ev.kind {
                WatchType::Added | WatchType::Modified => {
                    replica.insert(ev.object.meta.name.clone(), (*ev.object).clone());
                }
                WatchType::Deleted => {
                    replica.remove(&ev.object.meta.name);
                }
            }
        }
        let live: BTreeMap<String, ApiObject> = api
            .list("Pod")
            .into_iter()
            .map(|o| (o.meta.name.clone(), o.clone()))
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
        run_ops(&mut api, &ops2);
        let (second, _) = api.events_since(rv);
        let (whole, _) = api.events_since(0);
        prop_assert_eq!(first.len() + second.len(), whole.len());
    }

    /// Finalizer safety: an object with finalizers survives deletion
    /// requests until the last finalizer is removed — and is then reaped
    /// without further intervention.
    #[test]
    fn finalizers_gate_reaping(n_finalizers in 1usize..4) {
        let mut api = ApiServer::default();
        let mut obj = ApiObject::new("Job", "ns", "j", serde_json::json!({}));
        for i in 0..n_finalizers {
            obj.meta.finalizers.push(format!("f{i}"));
        }
        api.create(obj, SimTime::ZERO).unwrap();
        api.delete("Job", "ns", "j").unwrap();
        for i in 0..n_finalizers {
            prop_assert!(api.get("Job", "ns", "j").is_some(), "reaped too early");
            api.remove_finalizer("Job", "ns", "j", &format!("f{i}")).unwrap();
        }
        prop_assert!(api.get("Job", "ns", "j").is_none(), "not reaped at zero finalizers");
    }

    /// Uid uniqueness: no two creations ever share a uid, even through
    /// delete/re-create cycles of the same name.
    #[test]
    fn uids_are_never_reused(cycles in 1usize..20) {
        let mut api = ApiServer::default();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..cycles {
            let obj = ApiObject::new("Pod", "ns", "same-name", serde_json::json!({}));
            let created = api.create(obj, SimTime::ZERO).unwrap();
            prop_assert!(seen.insert(created.meta.uid), "uid reused");
            api.delete("Pod", "ns", "same-name").unwrap();
        }
    }
}
