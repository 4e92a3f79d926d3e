//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|all>
//!       [--seed N] [--runs N] [--paper-scale] [--out DIR | --no-out]
//!       [--spike-jobs N]
//! ```
//!
//! `--runs` and `--spike-jobs` take positive integers; a malformed
//! command line prints the usage line and exits 2.
//!
//! Default scale is reduced (same shapes, minutes instead of hours);
//! `--paper-scale` switches to the paper's iteration counts (10 k / 20 k
//! OSU iterations, 5 runs, 500-job spike).

use std::path::PathBuf;

use shs_harness::{
    admission, ramp_batches, report, run_comm, run_pattern, table1, CommConfig, Metric,
    OutputSink, Pattern,
};

#[derive(Debug, Clone)]
struct Opts {
    cmd: String,
    seed: u64,
    runs: Option<u32>,
    paper_scale: bool,
    out: Option<PathBuf>,
    spike_jobs: usize,
}

const USAGE: &str = "usage: repro <table1|fig5..fig12|all> [--seed N] [--runs N>0] \
                     [--paper-scale] [--out DIR | --no-out] [--spike-jobs N>0]";

/// Bad command line: say why, print the usage line, exit 2.
fn usage_exit(why: String) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "all".to_string());
    let mut opts = Opts {
        cmd,
        seed: 42,
        runs: None,
        paper_scale: false,
        out: Some(PathBuf::from("results")),
        spike_jobs: 0,
    };
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_exit(format!("{flag} needs a value")));
        // A count of zero measures nothing (and averages to NaN).
        let count = |v: String| match v.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => usage_exit(format!("{flag} takes a positive integer, not {v:?}")),
        };
        match flag.as_str() {
            "--seed" => {
                let v = value();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_exit(format!("{flag} takes an integer, not {v:?}")));
            }
            "--runs" => opts.runs = Some(count(value())),
            "--paper-scale" => opts.paper_scale = true,
            "--out" => opts.out = Some(PathBuf::from(value())),
            "--no-out" => opts.out = None,
            "--spike-jobs" => opts.spike_jobs = count(value()) as usize,
            other => usage_exit(format!("unknown flag {other}")),
        }
    }
    if opts.spike_jobs == 0 {
        opts.spike_jobs = if opts.paper_scale { 500 } else { 120 };
    }
    opts
}

fn comm_config(metric: Metric, opts: &Opts) -> CommConfig {
    let mut cfg = if opts.paper_scale {
        CommConfig::paper(metric, opts.seed)
    } else {
        CommConfig::quick(metric, opts.seed)
    };
    if let Some(r) = opts.runs {
        cfg.runs = r;
    }
    cfg
}

fn admission_runs(opts: &Opts) -> u32 {
    opts.runs.unwrap_or(if opts.paper_scale { 5 } else { 3 })
}

fn main() {
    let opts = parse_args();
    let sink = OutputSink::new(opts.out.as_deref());
    let all = opts.cmd == "all";
    let want = |name: &str| all || opts.cmd == name;
    let mut ran_any = false;

    if want("table1") {
        ran_any = true;
        println!("{}", table1::render());
    }
    // Figs. 5 and 6 render one bandwidth comparison; Figs. 7 and 8 one
    // latency comparison unless Fig. 8 takes more runs. Each distinct
    // comparison runs once.
    let bw = (want("fig5") || want("fig6"))
        .then(|| run_comm(Metric::Bandwidth, &comm_config(Metric::Bandwidth, &opts)));
    let lat_cfg = comm_config(Metric::Latency, &opts);
    let mut fig8_cfg = lat_cfg.clone();
    if opts.runs.is_none() {
        fig8_cfg.runs = if opts.paper_scale { 25 } else { 10 }; // Fig. 8 uses 25 runs
    }
    let fig8_own = fig8_cfg.runs != lat_cfg.runs;
    let lat = (want("fig7") || (want("fig8") && !fig8_own))
        .then(|| run_comm(Metric::Latency, &lat_cfg));
    let fig8_lat = (want("fig8") && fig8_own).then(|| run_comm(Metric::Latency, &fig8_cfg));

    if want("fig5") {
        ran_any = true;
        let res = bw.as_ref().expect("computed");
        println!("{}", report::report_comm_absolute("Fig 5", res, &sink));
    }
    if want("fig6") {
        ran_any = true;
        let res = bw.as_ref().expect("computed");
        println!("{}", report::report_comm_overhead("Fig 6", res, &sink));
    }
    if want("fig7") {
        ran_any = true;
        let res = lat.as_ref().expect("computed");
        println!("{}", report::report_comm_absolute("Fig 7", res, &sink));
    }
    if want("fig8") {
        ran_any = true;
        let res = fig8_lat.as_ref().or(lat.as_ref()).expect("computed");
        println!("{}", report::report_comm_overhead("Fig 8", res, &sink));
    }

    let need_ramp = want("fig9") || want("fig10") || want("fig12");
    let need_spike = want("fig11") || want("fig12");
    let ramp = need_ramp.then(|| {
        run_pattern(Pattern::Ramp, admission_runs(&opts), opts.seed, 300)
    });
    let spike = need_spike.then(|| {
        run_pattern(
            Pattern::Spike { jobs: opts.spike_jobs },
            admission_runs(&opts),
            opts.seed ^ 0xffee,
            600,
        )
    });

    if want("fig9") {
        ran_any = true;
        let (with, without) = ramp.as_ref().expect("computed");
        let batches = ramp_batches();
        println!("{}", report::report_running("Fig 9", with, without, Some(&batches), &sink));
    }
    if want("fig10") {
        ran_any = true;
        let (with, without) = ramp.as_ref().expect("computed");
        println!("{}", report::report_delay_by_batch("Fig 10", with, without, &sink));
    }
    if want("fig11") {
        ran_any = true;
        let (with, without) = spike.as_ref().expect("computed");
        println!("{}", report::report_running("Fig 11", with, without, None, &sink));
    }
    if want("fig12") {
        ran_any = true;
        let (rw, rwo) = ramp.as_ref().expect("computed");
        let (sw, swo) = spike.as_ref().expect("computed");
        println!("{}", report::report_boxplots((rw, rwo), (sw, swo), &sink));
        let _ = admission::median_overhead_pct(rw, rwo);
    }

    if !ran_any {
        usage_exit(format!("unknown command {:?}", opts.cmd));
    }
}
