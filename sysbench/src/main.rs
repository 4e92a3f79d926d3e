//! `sysbench` — the repo's benchmark (pinned by `/BENCHMARK.json`).
//!
//! ```text
//! sysbench --workload NAME [--seed N=42] [--seconds S=10] [--trace 0|1]
//!          [--trace-out FILE] [--smoke]
//! sysbench --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! sysbench --agree A.json B.json
//! ```
//!
//! One run: build the workload's inputs from the seed, run one cold
//! repeat (set-up), then repeat the *same* fixed work on fresh state for
//! `--seconds` seconds. Every repeat's deterministic report must
//! serialize byte-identically to the first one's and pass the
//! workload's checks. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! a `{"detail": ...}` object with quartiles, the `sim_digest`, the
//! host fingerprint and any violated check. Exit code 1 when a check
//! failed.
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing
//! off. `--trace 1` runs the probes, then alternates untraced and
//! traced repeats and prints every per-layer metric; the traced repeats
//! must reproduce the untraced report. `--all` runs each workload both
//! ways in child processes (so `peak_rss_mb` belongs to one workload)
//! and collects one result set; `--agree` compares two result sets
//! against the bounds in `metrics.rs`.

mod agree;
mod metrics;
mod probes;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde_json::{json, Map, Value};
use shs_des::stats;
use shs_harness::HostInfo;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{Counts, Outcome, Workload, NAMES};

/// Cold set-ups per run (this process plus child processes); `setup_s`
/// is their median.
const SETUPS: usize = 3;

/// Fewest timed repeats, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    setup_only: bool,
    all: bool,
    out: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
}

fn usage(msg: &str) -> ! {
    eprintln!("sysbench: {msg}");
    eprintln!(
        "usage: sysbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-out FILE] [--smoke]\n       sysbench --all [--seed N] [--seconds S] [--smoke] \
         [--out FILE]\n       sysbench --agree A.json B.json\nworkloads: {}",
        NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        smoke: false,
        setup_only: false,
        all: false,
        out: None,
        agree: None,
    };
    let mut args = std::env::args().skip(1);
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => o.workload = Some(value(&mut args, &a)),
            "--seed" => {
                o.seed = value(&mut args, &a)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                o.seconds = match value(&mut args, &a).parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => usage("--seconds takes a number >= 0"),
                };
            }
            "--trace" => {
                o.trace = match value(&mut args, &a).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--trace-out" => o.trace_out = Some(PathBuf::from(value(&mut args, &a))),
            "--out" => o.out = Some(PathBuf::from(value(&mut args, &a))),
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--all" => o.all = true,
            "--agree" => {
                let first = PathBuf::from(value(&mut args, &a));
                o.agree = Some((first, PathBuf::from(value(&mut args, &a))));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    o
}

fn main() {
    let started = Instant::now();
    let opts = parse_args();
    let code = if let Some((a, b)) = &opts.agree {
        agree::run(a, b)
    } else if opts.all {
        run_all(&opts)
    } else {
        run_one(&opts, started)
    };
    std::process::exit(code);
}

/// FNV-1a over the report bytes, as 16 hex digits.
fn digest(report: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in report.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The correctness gate: every repeat must pass its workload's checks
/// and reproduce the first repeat's report byte for byte.
struct Verdict {
    baseline: String,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Verdict {
    /// Start from the cold repeat; its ops are not counted (it is the
    /// discarded warm-up), its violations are.
    fn new(first: Outcome) -> Self {
        let violations = first
            .violations
            .iter()
            .map(|v| format!("cold repeat: {v}"))
            .collect();
        Verdict {
            baseline: first.report,
            attempted: 0,
            failed: 0,
            violations,
        }
    }

    fn absorb(&mut self, what: &str, o: &Outcome) {
        let mut bad = !o.violations.is_empty();
        self.violations
            .extend(o.violations.iter().map(|v| format!("{what}: {v}")));
        if o.report != self.baseline {
            bad = true;
            self.violations
                .push(format!("{what}: report differs from the first repeat's"));
        }
        self.attempted += o.attempted;
        // Every op of a repeat that broke a check counts as failed.
        self.failed += if bad { o.attempted } else { o.failed };
    }

    fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `{median, min, max, q1, q3, n}` of a sample.
fn quartiles(xs: &[f64]) -> Value {
    json!({
        "median": stats::median(xs),
        "min": xs.iter().copied().fold(f64::INFINITY, f64::min),
        "max": xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        "q1": stats::percentile(xs, 25.0),
        "q3": stats::percentile(xs, 75.0),
        "n": xs.len(),
    })
}

/// Rate of the fastest timed repeat. Every repeat does the same fixed
/// work, and other processes on a shared host only ever slow a repeat
/// down, so the fastest one is the steadiest estimate of what the code
/// costs: across ten seeds its spread was 1.5-4.3 % where the plain
/// median's was 1.4-8.6 %, and a 10 s interference episode that moved
/// the median of one run by 32 % moved it by 4 % (README, "Steadiness").
fn fastest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// This executable, set to run the same workload on the same seed at
/// the same scale in a child process.
fn child(opts: &Opts, name: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &opts.seed.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// One cold set-up in a fresh process: process start to the end of the
/// first, checked repeat, as that process measured it.
fn child_setup_s(opts: &Opts, name: &str) -> Result<f64, String> {
    let out = child(opts, name)?
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawning the set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

/// Print the detail line and the result line; the exit code.
fn emit(mut detail: Map, verdict: &Verdict, metrics: Map) -> i32 {
    detail.insert("sim_digest".into(), json!(digest(&verdict.baseline)));
    detail.insert("violations".into(), json!(verdict.violations));
    detail.insert("host".into(), json!(HostInfo::detect()));
    println!("{}", json!({ "detail": detail }));
    println!(
        "{}",
        json!({
            "correct": verdict.correct(),
            "attempted": verdict.attempted.max(1),
            "failed": verdict.failed,
            "metrics": metrics,
        })
    );
    if verdict.correct() {
        0
    } else {
        for v in &verdict.violations {
            eprintln!("sysbench: FAILED CHECK {v}");
        }
        1
    }
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn run_one(opts: &Opts, started: Instant) -> i32 {
    let Some(name) = opts.workload.as_deref() else {
        usage("--workload, --all or --agree is required")
    };
    let Some(w) = Workload::build(name, opts.seed, opts.smoke) else {
        usage(&format!("unknown workload {name}"))
    };
    // Set-up: input generation plus the first repeat on a cold process,
    // which pays whatever the program builds once (topology, route
    // tables, allocator growth) before timed repeats can reuse it.
    let first = w.run();
    let setup_s = started.elapsed().as_secs_f64();
    if opts.setup_only {
        println!("{setup_s}");
        return i32::from(!first.violations.is_empty());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut detail = Map::new();
    detail.insert("workload".into(), json!(name));
    detail.insert("seed".into(), json!(opts.seed));
    detail.insert("seconds".into(), json!(opts.seconds));
    detail.insert("smoke".into(), json!(opts.smoke));
    let threads = w.threads(opts.trace);
    detail.insert("threads".into(), json!(threads));
    detail.insert("oversubscribed".into(), json!(threads > cores));
    detail.insert("ops_per_repeat".into(), json!(first.attempted));
    let verdict = Verdict::new(first);
    if opts.trace {
        run_traced(opts, &w, verdict, detail)
    } else {
        run_untraced(opts, name, &w, verdict, detail, setup_s)
    }
}

fn run_untraced(
    opts: &Opts,
    name: &str,
    w: &Workload,
    mut verdict: Verdict,
    mut detail: Map,
    own_setup_s: f64,
) -> i32 {
    let mut setups = vec![own_setup_s];
    for _ in 1..SETUPS {
        match child_setup_s(opts, name) {
            Ok(s) => setups.push(s),
            Err(e) => verdict.violations.push(e),
        }
    }
    let mut rates = Vec::new();
    let timed = Instant::now();
    while rates.len() < MIN_REPEATS || timed.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let o = w.run();
        let dt = t.elapsed().as_secs_f64();
        rates.push(o.attempted as f64 / dt);
        verdict.absorb(&format!("repeat {}", rates.len()), &o);
    }
    detail.insert("ops_per_s".into(), quartiles(&rates));
    detail.insert("ops_per_s_by_repeat".into(), json!(rates));
    detail.insert("setup_s".into(), quartiles(&setups));
    let mut metrics = Map::new();
    for m in &END_TO_END {
        let value = match m.name {
            "ops_per_s" => fastest(&rates),
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => stats::median(&setups),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        metrics.insert(m.name.into(), metric(value, m.unit));
    }
    emit(detail, &verdict, metrics)
}

fn run_traced(opts: &Opts, w: &Workload, mut verdict: Verdict, mut detail: Map) -> i32 {
    let t = Instant::now();
    let mut m = probes::run_all();
    m.insert("bench.probes_s", t.elapsed().as_secs_f64());

    let mut tr = Tracer::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut counts = Counts::new();
    let timed = Instant::now();
    while traced_s.len() < 2 || timed.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let o = w.run();
        plain_s.push(t.elapsed().as_secs_f64());
        verdict.absorb(&format!("untraced repeat {}", plain_s.len()), &o);

        tr.begin_repeat(traced_s.len() as u32);
        let t = Instant::now();
        let o = w.run_traced(&mut tr);
        traced_s.push(t.elapsed().as_secs_f64());
        // The traced loops re-drive the program through its public API:
        // a report that differs from the untraced one rejects the trace.
        verdict.absorb(&format!("traced repeat {}", traced_s.len()), &o);
        counts = o.counts;
        if let Some(twin) = w.run_twin(&mut tr) {
            verdict.absorb(&format!("2-thread twin {}", traced_s.len()), &twin);
        }
    }
    let reps = traced_s.len() as f64;
    let by_name = tr.by_name();
    m.extend(counts);

    // Span-derived metrics. `mean` is per span, `per_repeat` the total
    // of a name's spans in one traced repeat.
    let mean_ns = |n: &str| by_name.get(n).map_or(0.0, |s| s.mean_ns());
    let per_repeat_ns = |n: &str| by_name.get(n).map_or(0.0, |s| s.total_ns as f64 / reps);
    let count = |n: &str| by_name.get(n).map_or(0.0, |s| s.count as f64 / reps);
    let get = |m: &Counts, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sim_ns = per_repeat_ns("core.scenario.run") + per_repeat_ns("core.parsim.run");
    let parsim_ns = per_repeat_ns("core.parsim.run");
    let parsim_t2_ns = per_repeat_ns("core.parsim.run_t2");
    let span_metrics = [
        ("des.host_ns_per_event", per(sim_ns, get(&m, "des.events"))),
        (
            "des.parallel.window_ns",
            per(parsim_ns, get(&m, "des.parallel.windows")),
        ),
        (
            "des.parallel.t2_window_ns",
            per(parsim_t2_ns, get(&m, "des.parallel.windows")),
        ),
        ("des.parallel.t2_speedup", per(parsim_ns, parsim_t2_ns)),
        (
            "fabric.shardsim.host_ns_per_msg",
            per(parsim_ns, get(&m, "fabric.msgs") + get(&m, "fabric.drops")),
        ),
        (
            "fabric.topology_build_ms",
            mean_ns("fabric.topology.new") / 1e6,
        ),
        (
            "mpi.osu_lat_host_ns_per_msg",
            per(
                per_repeat_ns("mpi.osu.latency"),
                get(&m, "mpi.osu_lat_msgs"),
            ),
        ),
        (
            "mpi.osu_bw_host_ns_per_msg",
            per(
                per_repeat_ns("mpi.osu.bandwidth"),
                get(&m, "mpi.osu_bw_msgs"),
            ),
        ),
        ("core.cluster.new_ms", mean_ns("core.cluster.new") / 1e6),
        ("core.ticks", count("core.cluster.tick")),
        (
            "core.tick_ns_p50",
            by_name
                .get("core.cluster.tick")
                .map_or(0.0, |s| s.percentile_ns(50.0)),
        ),
        (
            "core.tick_ns_p99",
            by_name
                .get("core.cluster.tick")
                .map_or(0.0, |s| s.percentile_ns(99.0)),
        ),
        ("core.submit_job_ns", mean_ns("core.cluster.submit_job")),
        (
            "core.sharded_db.recover_ms",
            mean_ns("core.sharded_db.recover") / 1e6,
        ),
        (
            "core.stress.steps_ms",
            per_repeat_ns("core.stress.step_window") / 1e6,
        ),
        ("core.scenario.run_ms", mean_ns("core.scenario.run") / 1e6),
        ("core.parsim.run_ms", mean_ns("core.parsim.run") / 1e6),
        ("core.parsim.run_t2_ms", mean_ns("core.parsim.run_t2") / 1e6),
        ("harness.report_json_ns", mean_ns("harness.report.json")),
        (
            "harness.tracker_observe_ns",
            mean_ns("harness.tracker.observe"),
        ),
        (
            "failed_share",
            per(verdict.failed as f64, verdict.attempted as f64),
        ),
        (
            "bench.trace_overhead_pct",
            (per(stats::median(&traced_s), stats::median(&plain_s)) - 1.0) * 100.0,
        ),
        ("bench.spans_recorded", tr.spans().len() as f64 / reps),
        ("bench.repeat_ms", stats::median(&plain_s) * 1e3),
    ];
    m.extend(span_metrics);

    // Self time per layer: a span's duration minus what its children
    // cover, summed by the crate the span's call enters.
    let mut self_ms = Map::new();
    let mut table = Map::new();
    for (name, s) in &by_name {
        let layer = name.split('.').next().unwrap_or(name);
        let prev = self_ms.get(layer).and_then(Value::as_f64).unwrap_or(0.0);
        self_ms.insert(layer.into(), json!(prev + s.self_ns as f64 / reps / 1e6));
        table.insert(
            (*name).into(),
            json!({
                "count_per_repeat": s.count as f64 / reps,
                "total_ms_per_repeat": s.total_ns as f64 / reps / 1e6,
                "self_ms_per_repeat": s.self_ns as f64 / reps / 1e6,
                "p50_ns": s.percentile_ns(50.0),
                "p99_ns": s.percentile_ns(99.0),
            }),
        );
    }
    detail.insert("traced_repeats".into(), json!(traced_s.len()));
    detail.insert("untraced_repeat_s".into(), quartiles(&plain_s));
    detail.insert("traced_repeat_s".into(), quartiles(&traced_s));
    detail.insert("self_ms_per_repeat_by_layer".into(), Value::Object(self_ms));
    detail.insert("spans".into(), Value::Object(table));
    if let Some(path) = &opts.trace_out {
        let text = serde_json::to_string(&tr.chrome_json()).expect("trace serializes");
        if let Err(e) = std::fs::write(path, text) {
            verdict
                .violations
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    let mut metrics = Map::new();
    for l in &PER_LAYER {
        metrics.insert(l.name.into(), metric(get(&m, l.name), l.unit));
    }
    emit(detail, &verdict, metrics)
}

/// Run `sysbench` on one workload in a child process; its detail and
/// result objects, and whether it exited 0.
fn run_child(opts: &Opts, name: &str, trace: bool) -> Result<(Value, Value, bool), String> {
    let out = child(opts, name)?
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.ok_or(format!("{name}: missing output line"))?)
            .map_err(|e| format!("{name}: output is not JSON: {e}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok((detail["detail"].clone(), result, out.status.success()))
}

/// `--all`: every workload untraced then traced, one child process
/// each, collected into one result set.
fn run_all(opts: &Opts) -> i32 {
    let mut rows = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let mut row = Map::new();
        row.insert("name".into(), json!(name));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            eprintln!("sysbench: {name} --trace {} ...", u8::from(trace));
            match run_child(opts, name, trace) {
                Ok((detail, result, success)) => {
                    ok &= success && result["correct"] == json!(true);
                    row.insert(key.into(), result["metrics"].clone());
                    row.insert(format!("{key}_result"), result);
                    row.insert(format!("{key}_detail"), detail);
                }
                Err(e) => {
                    eprintln!("sysbench: {e}");
                    ok = false;
                }
            }
        }
        rows.push(Value::Object(row));
    }
    let doc = json!({
        "schema": "sysbench/v1",
        "seed": opts.seed,
        "seconds": opts.seconds,
        "smoke": opts.smoke,
        "host": HostInfo::detect(),
        "workloads": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("result set serializes");
    println!("{text}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("sysbench: writing {}: {e}", path.display());
            return 1;
        }
    }
    i32::from(!ok)
}
