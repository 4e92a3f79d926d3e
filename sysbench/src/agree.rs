//! `sysbench --agree A.json B.json`: do two `--all` result sets of one
//! commit and one seed agree?
//!
//! Host-time end-to-end metrics may differ by their bound, in either
//! direction. Everything deterministic — the `sim_digest`, every
//! `[count]` layer metric (which includes the `sim_*` figures and
//! `failed_share`) — must be equal. Prints one row per disagreement.

use std::path::Path;

use serde_json::Value;

use crate::metrics::{Better, Kind, END_TO_END, PER_LAYER};

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
    if doc["schema"].as_str() != Some("sysbench/v1") {
        return Err(format!("{}: not a sysbench/v1 result set", path.display()));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

/// Share by which `to` is worse than `from`.
fn worsening(better: Better, from: f64, to: f64) -> f64 {
    match better {
        Better::Lower => (to - from) / from,
        Better::Higher => (from - to) / from,
    }
}

/// Compare the two result sets; the process exit code.
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("sysbench: {e}");
            }
            return 2;
        }
    };
    let mut rows: Vec<String> = Vec::new();
    for key in ["seed", "smoke"] {
        if a[key] != b[key] {
            rows.push(format!(
                "(all) {key}: {} vs {} — the sets are not comparable",
                a[key], b[key]
            ));
        }
    }
    let names: Vec<&str> = a["workloads"]
        .as_array()
        .map(|ws| ws.iter().filter_map(|w| w["name"].as_str()).collect())
        .unwrap_or_default();
    if names.is_empty() {
        rows.push("(all) the first set holds no workload".into());
    }
    for name in names {
        let wa = workload(&a, name).expect("name came from this set");
        let Some(wb) = workload(&b, name) else {
            rows.push(format!("{name}: missing from the second set"));
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                wa["end_to_end"][m.name]["value"].as_f64(),
                wb["end_to_end"][m.name]["value"].as_f64(),
            ) else {
                rows.push(format!("{name} {}: missing", m.name));
                continue;
            };
            let worst = worsening(m.better, x, y).max(worsening(m.better, y, x));
            if worst > m.bound {
                rows.push(format!(
                    "{name} {}: {x} vs {y} {} — {:.1} % apart, bound {:.0} %",
                    m.name,
                    m.unit,
                    worst * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for l in PER_LAYER.iter().filter(|l| l.kind == Kind::Count) {
            let (x, y) = (
                &wa["per_layer"][l.name]["value"],
                &wb["per_layer"][l.name]["value"],
            );
            if x.is_null() || x != y {
                rows.push(format!("{name} {}: {x} vs {y} — must be equal", l.name));
            }
        }
        for detail in ["end_to_end_detail", "per_layer_detail"] {
            let (x, y) = (&wa[detail]["sim_digest"], &wb[detail]["sim_digest"]);
            if x.is_null() || x != y || *x != wa["end_to_end_detail"]["sim_digest"] {
                rows.push(format!(
                    "{name} {detail}.sim_digest: {x} vs {y} — must be equal"
                ));
            }
        }
    }
    if rows.is_empty() {
        println!("sysbench: the two result sets agree");
        0
    } else {
        for r in &rows {
            println!("DISAGREE {r}");
        }
        1
    }
}
