//! Smoke tests over the full experiment harness at miniature scale:
//! every figure's pipeline runs end-to-end and yields the paper's
//! qualitative shape, wired into CI.

use shs_des::stats;
use shs_harness::{
    median_overhead_pct, ramp_batches, report, run_comm, run_pattern, CommConfig, Metric,
    OutputSink, Pattern,
};
use shs_mpi::OsuParams;

fn tiny_osu(window: u32) -> OsuParams {
    OsuParams { sizes: vec![8, 4096, 1 << 20], iterations: 15, warmup: 2, window }
}

#[test]
fn fig5_pipeline_shape() {
    let cfg = CommConfig { osu: tiny_osu(32), runs: 2, seed: 31 };
    let res = run_comm(Metric::Bandwidth, &cfg);
    let sink = OutputSink::new(None);
    let rendered = report::report_comm_absolute("Fig 5", &res, &sink);
    assert!(rendered.contains("vni:true"));
    assert!(rendered.contains("host"));
    let host = res.mean_of("host");
    assert!(host[2] > host[0] * 100.0, "bandwidth spans decades");
}

#[test]
fn fig6_and_fig8_overhead_bands() {
    for metric in [Metric::Bandwidth, Metric::Latency] {
        let cfg = CommConfig { osu: tiny_osu(16), runs: 4, seed: 32 };
        let res = run_comm(metric, &cfg);
        let t = res.overhead_of("vni:true");
        assert!(report::within_band(&t, 1.0), "{metric:?} overhead outside ±1%: {t:?}");
    }
}

#[test]
fn fig9_to_fig12_pipeline_shapes() {
    let (rw, rwo) = run_pattern(Pattern::Spike { jobs: 30 }, 2, 33, 90);
    // Fig 11-ish: running jobs accumulate then drain to zero.
    let series = rwo.running_series();
    let peak = series.iter().map(|r| r.1).fold(0.0, f64::max);
    assert!(peak >= 8.0, "peak running {peak}");
    assert_eq!(series.last().unwrap().1, 0.0, "drains to zero");
    // Fig 12-ish: overhead is a small single-digit percentage.
    let oh = median_overhead_pct(&rw, &rwo);
    assert!((-2.0..10.0).contains(&oh), "median overhead {oh}%");
    // Rendering works.
    let sink = OutputSink::new(None);
    let boxes = report::report_boxplots((&rw, &rwo), (&rw, &rwo), &sink);
    assert!(boxes.contains("median admission overhead"));
    let running = report::report_running("Fig 11", &rw, &rwo, None, &sink);
    assert!(running.contains("peak running"));
}

#[test]
fn fig10_delays_grow_through_the_ramp() {
    // A miniature ramp: delays at the sustained peak exceed early ones.
    let (_, without) = run_pattern(Pattern::Ramp, 1, 34, 120);
    let by_batch = without.delay_by_batch();
    assert_eq!(by_batch.len(), ramp_batches().len(), "every batch admitted");
    let early: Vec<f64> = by_batch[1..4].iter().map(|r| r.1).collect();
    let late: Vec<f64> = by_batch[18..24].iter().map(|r| r.1).collect();
    assert!(
        stats::mean(&late) > 2.0 * stats::mean(&early),
        "saturation must grow delays: early {early:?} late {late:?}"
    );
}
