//! `scenario-run` — execute the end-to-end multi-tenant scenario
//! library and emit a JSON report.
//!
//! ```text
//! scenario-run [all|<scenario-name>] [--seed N] [--out FILE] [--list]
//! ```
//!
//! Runs each k8s scenario's full job lifecycle (admission → CNI chain →
//! VNI allocation → CXI service → fabric traffic → teardown) under the
//! deterministic DES clock, plus the cluster-scale **fabric sweeps**
//! (128–1024-node dragonfly topologies sharded per group) and
//! the **control-plane stress runs** (tenant churn straight through the
//! sharded VNI database under WAL group commit, ending in a
//! crash-recovery audit), and prints one JSON document: a
//! `"control_reports"` array (one [`VniStressReport`] per stress run),
//! a `"parallel_reports"` array (one [`FabricSweepReport`] per sweep),
//! a `"reports"` array (one [`ScenarioReport`] per k8s scenario), then
//! a `"run_metrics"` block (wall-clock, DES events executed,
//! events/sec, VNI database transactions, host fingerprint). For a
//! fixed seed the report sections are byte-identical across runs;
//! wall-clock throughput lives only in `"run_metrics"`, after them.
//! Exits non-zero if any scenario's assertions fail (isolation for the
//! k8s library; conservation and conservative-sync for the sweeps;
//! consistency + crash recovery for the stress runs).
//!
//! The full-scale `vni-stress-1m` (one million tenants, ten million
//! transactions) is reachable by name but not part of `all`.
//!
//! [`ScenarioReport`]: slingshot_k8s::ScenarioReport
//! [`FabricSweepReport`]: slingshot_k8s::FabricSweepReport
//! [`VniStressReport`]: slingshot_k8s::VniStressReport

use std::path::PathBuf;
use std::time::Instant;

use shs_harness::{scenario_run_document, RunMetrics};
use slingshot_k8s::{
    by_name, library, parallel_by_name, parallel_library, run_fabric_scenario, run_scenario,
    run_vni_stress, stress_by_name, stress_library, FabricScenario, FabricSweepReport, Scenario,
    ScenarioReport, VniStressReport, VniStressScenario,
};

struct Opts {
    cmd: String,
    seed: u64,
    out: Option<PathBuf>,
    list: bool,
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1).peekable();
    let cmd = match args.peek() {
        Some(a) if !a.starts_with("--") => args.next().expect("peeked"),
        _ => "all".to_string(),
    };
    let mut opts = Opts { cmd, seed: 42, out: None, list: false };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                opts.seed = v.parse().unwrap_or_else(|_| usage("--seed must be numeric"));
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage("--out needs a path"));
                opts.out = Some(PathBuf::from(v));
            }
            "--list" => opts.list = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("scenario-run: {msg}");
    eprintln!(
        "usage: scenario-run [all|<scenario-name>] [--seed N] [--out FILE] [--list]"
    );
    std::process::exit(2);
}

fn main() {
    let opts = parse_args();
    // Validate the positional scenario name first so a typo exits 2
    // even when combined with --list. A name resolves in the k8s
    // library, the fabric sweep library, or the stress library.
    #[allow(clippy::type_complexity)]
    let (scenarios, sweeps, stress): (
        Vec<Scenario>,
        Vec<FabricScenario>,
        Vec<VniStressScenario>,
    ) = if opts.cmd == "all" {
        (library(opts.seed), parallel_library(opts.seed), stress_library(opts.seed))
    } else if let Some(s) = by_name(&opts.cmd, opts.seed) {
        (vec![s], vec![], vec![])
    } else if let Some(s) = parallel_by_name(&opts.cmd, opts.seed) {
        (vec![], vec![s], vec![])
    } else if let Some(s) = stress_by_name(&opts.cmd, opts.seed) {
        (vec![], vec![], vec![s])
    } else {
        usage(&format!("unknown scenario {:?}; use --list to see the library", opts.cmd))
    };
    if opts.list {
        for s in library(opts.seed) {
            println!("{:<22} {}", s.name, s.description);
        }
        for s in parallel_library(opts.seed) {
            println!("{:<22} {}", s.name, s.description);
        }
        for s in stress_library(opts.seed) {
            println!("{:<22} {}", s.name, s.description);
        }
        if let Some(s) = stress_by_name("vni-stress-1m", opts.seed) {
            println!("{:<22} {} (by name only)", s.name, s.description);
        }
        return;
    }

    let started = Instant::now();
    let reports: Vec<ScenarioReport> = scenarios
        .iter()
        .map(|s| {
            eprintln!("running {} ...", s.name);
            run_scenario(s)
        })
        .collect();
    let parallel: Vec<FabricSweepReport> = sweeps
        .iter()
        .map(|s| {
            eprintln!("running {} ...", s.name);
            run_fabric_scenario(s, 1)
        })
        .collect();
    let control: Vec<VniStressReport> = stress
        .iter()
        .map(|s| {
            eprintln!("running {} (shards={}) ...", s.name, s.shards);
            run_vni_stress(s)
        })
        .collect();
    let metrics = RunMetrics::from_run(&reports, &parallel, &control, started.elapsed().as_secs_f64());

    let doc = scenario_run_document(&reports, &parallel, &control, &metrics);
    let json = serde_json::to_string_pretty(&doc).expect("reports serialize");
    println!("{json}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("scenario-run: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }

    let failed: Vec<&str> = reports
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.scenario.as_str())
        .chain(parallel.iter().filter(|r| !r.passed).map(|r| r.scenario.as_str()))
        .chain(control.iter().filter(|r| !r.passed).map(|r| r.scenario.as_str()))
        .collect();
    if !failed.is_empty() {
        eprintln!("FAILED scenario assertions: {}", failed.join(", "));
        std::process::exit(1);
    }
    eprintln!("{} scenario(s) passed", reports.len() + parallel.len() + control.len());
}
