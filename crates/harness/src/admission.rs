//! Job-admission experiments (paper §IV-B, Figs. 9-12): the ramp-up /
//! ramp-sustain / ramp-down test and the 500-job spike test, each run
//! with (`vni:true`) and without (`vni:false`) the Slingshot integration.
//!
//! "Job admission delay" = submission → workload start; jobs delete
//! themselves on completion (ttl=0), so the measured window covers VNI
//! allocation/release and CXI service lifecycle, as in the paper.

use std::collections::BTreeMap;
use std::rc::Rc;

use shs_des::stats;
use shs_des::{SimDur, SimTime};
use shs_k8s::{ApiObject, ApiServer, IdMap, Kind, WatchType};
use slingshot_k8s::{alpine, Cluster, ClusterConfig};

use crate::par;

/// Per-job lifecycle record.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Submission batch index (0-based).
    pub batch: usize,
    /// Submission instant.
    pub submitted: SimTime,
    /// First pod start (admission), if reached.
    pub started: Option<SimTime>,
    /// Full teardown: the pod object is reaped only after the kubelet has
    /// run CNI DEL and removed the sandbox, so this marks the end of the
    /// job's footprint on the cluster (completion + deletion, §IV-B).
    pub deleted: Option<SimTime>,
}

impl JobRecord {
    /// Admission delay in seconds, if admitted.
    pub(crate) fn admission_delay_s(&self) -> Option<f64> {
        self.started.map(|s| (s - self.submitted).as_secs_f64())
    }
}

/// Per-job records, iterated in job-name order.
#[derive(Debug, Default)]
pub struct JobBook {
    records: Vec<(Rc<str>, JobRecord)>,
    /// Job name → index into `records`.
    by_name: BTreeMap<Rc<str>, usize>,
}

impl JobBook {
    /// Record `rec` for `job`, replacing any record it had.
    fn insert(&mut self, job: &str, rec: JobRecord) {
        match self.by_name.get(job) {
            Some(&i) => self.records[i].1 = rec,
            None => {
                let job: Rc<str> = job.into();
                self.by_name.insert(Rc::clone(&job), self.records.len());
                self.records.push((job, rec));
            }
        }
    }

    /// The records, in job-name order.
    pub fn values(&self) -> impl Iterator<Item = &JobRecord> {
        self.by_name.values().map(|&i| &self.records[i].1)
    }

    /// The records, in job-name order.
    pub fn into_values(self) -> impl Iterator<Item = JobRecord> {
        let records = self.records;
        self.by_name.into_values().map(move |i| records[i].1)
    }

    /// Jobs recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no job is recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Watch-driven tracker: observes pod starts and job deletions without
/// rescanning the store.
#[derive(Debug, Default)]
pub struct JobTracker {
    last_rv: u64,
    /// Keyed by job name.
    pub jobs: JobBook,
    /// The record of the job each pod names, found by name at the pod's
    /// first event that needs it and remembered by the pod's id.
    of_pod: IdMap<usize>,
}

impl JobTracker {
    /// Register a submission.
    pub fn submitted(&mut self, job: &str, batch: usize, at: SimTime) {
        self.jobs.insert(job, JobRecord { batch, submitted: at, started: None, deleted: None });
    }

    /// The rv this tracker has consumed the watch log through.
    pub fn cursor(&self) -> u64 {
        self.last_rv
    }

    /// The record of the job `pod` names, if that job was submitted.
    fn record(&mut self, pod: &ApiObject) -> Option<&mut JobRecord> {
        let job = pod.pod_spec().job_name.as_deref()?;
        let i = match self.of_pod.get(&pod.meta.id) {
            Some(&i) if *self.jobs.records[i].0 == *job => i,
            _ => {
                let i = *self.jobs.by_name.get(job)?;
                self.of_pod.insert(pod.meta.id, i);
                i
            }
        };
        Some(&mut self.jobs.records[i].1)
    }

    /// Consume new watch events.
    pub fn observe(&mut self, api: &ApiServer, now: SimTime) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;
        for ev in events {
            match (ev.object.kind(), ev.kind) {
                (Kind::Pod, WatchType::Modified) => {
                    let status = ev.object.pod_status();
                    let Some(started_ns) = status.and_then(|s| s.started_at_ns) else { continue };
                    if let Some(rec) = self.record(&ev.object) {
                        let t = SimTime::from_nanos(started_ns);
                        if rec.started.is_none_or(|cur| t < cur) {
                            rec.started = Some(t);
                        }
                    }
                }
                (Kind::Pod, WatchType::Deleted) => {
                    if let Some(rec) = self.record(&ev.object) {
                        rec.deleted = Some(now);
                    }
                    self.of_pod.remove(&ev.object.meta.id);
                }
                _ => {}
            }
        }
    }

    /// Jobs admitted (started) whose pod footprint still exists — the
    /// "actively running jobs" series of Figs. 9/11.
    pub fn running(&self) -> usize {
        self.jobs.values().filter(|r| r.started.is_some() && r.deleted.is_none()).count()
    }

    /// All jobs done (deleted) — termination condition.
    pub fn all_deleted(&self) -> bool {
        self.jobs.values().all(|r| r.deleted.is_some())
    }
}

/// The ramp curve of §IV-B1: 1..=10 up, 10 × 10 sustain, 9..=1 down.
pub fn ramp_batches() -> Vec<usize> {
    let mut v: Vec<usize> = (1..=10).collect();
    v.extend(std::iter::repeat_n(10, 10));
    v.extend((1..=9).rev());
    v
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct AdmissionRun {
    /// (second, running-jobs) samples.
    pub samples: Vec<(u64, usize)>,
    /// Per-job records.
    pub jobs: Vec<JobRecord>,
}

/// Workload pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Ramp test (Figs. 9/10).
    Ramp,
    /// Spike test: 500 jobs at once (Fig. 11).
    Spike {
        /// Number of jobs submitted at t=0 (paper: 500).
        jobs: usize,
    },
}

/// Execute one admission run.
pub fn run_admission(pattern: Pattern, vni: bool, seed: u64, time_cap_s: u64) -> AdmissionRun {
    let mut cluster = Cluster::new(ClusterConfig { seed, ..Default::default() });
    let mut tracker = JobTracker::default();
    let ann: &[(&str, &str)] = if vni { &[("vni", "true")] } else { &[] };
    let tick = SimDur::from_millis(20);

    // Build the submission plan: (second, batch, count).
    let plan: Vec<(u64, usize, usize)> = match pattern {
        Pattern::Ramp => {
            ramp_batches().into_iter().enumerate().map(|(b, n)| (b as u64, b, n)).collect()
        }
        Pattern::Spike { jobs } => vec![(0, 0, jobs)],
    };

    let mut samples = Vec::new();
    let mut t = SimTime::ZERO;
    let mut next_plan = 0usize;
    let mut submitted_total = 0usize;
    for sec in 0..time_cap_s {
        let sec_start = SimTime::from_nanos(sec * 1_000_000_000);
        // Submit this second's batch(es).
        while next_plan < plan.len() && plan[next_plan].0 == sec {
            let (_, batch, count) = plan[next_plan];
            for i in 0..count {
                let name = format!("job-{batch:03}-{i:03}");
                cluster.submit_job(sec_start, "bench", &name, ann, 1, &alpine(), Some(10));
                tracker.submitted(&name, batch, sec_start);
                submitted_total += 1;
            }
            next_plan += 1;
        }
        // Advance one second of cluster time, then drop the watch events
        // every reader — the cluster's own and the tracker — has seen.
        let sec_end = SimTime::from_nanos((sec + 1) * 1_000_000_000);
        t = cluster.run_until(t.max(sec_start), sec_end, tick);
        tracker.observe(&cluster.api, t);
        cluster.api.compact(cluster.watch_floor().min(tracker.cursor()));
        samples.push((sec + 1, tracker.running()));
        if next_plan >= plan.len() && submitted_total > 0 && tracker.all_deleted() {
            break;
        }
    }
    AdmissionRun { samples, jobs: tracker.jobs.into_values().collect() }
}

/// Aggregated multi-run result for one configuration.
#[derive(Debug, Clone)]
pub struct AdmissionSeries {
    /// Config name (`vni:true` / `vni:false`).
    pub name: &'static str,
    /// Individual runs.
    pub runs: Vec<AdmissionRun>,
}

impl AdmissionSeries {
    /// Mean running-jobs per second with (p10, p90) across runs.
    pub fn running_series(&self) -> Vec<(u64, f64, f64, f64)> {
        let max_sec = self.runs.iter().map(|r| r.samples.len()).max().unwrap_or(0);
        (0..max_sec)
            .map(|i| {
                let xs: Vec<f64> = self
                    .runs
                    .iter()
                    .map(|r| r.samples.get(i).map_or(0.0, |&(_, n)| n as f64))
                    .collect();
                (
                    i as u64 + 1,
                    stats::mean(&xs),
                    stats::percentile(&xs, 10.0),
                    stats::percentile(&xs, 90.0),
                )
            })
            .collect()
    }

    /// Admission delay per batch: (batch, mean, p10, p90) over all jobs
    /// of all runs (Fig. 10).
    pub fn delay_by_batch(&self) -> Vec<(usize, f64, f64, f64)> {
        let mut by_batch: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for run in &self.runs {
            for j in &run.jobs {
                if let Some(d) = j.admission_delay_s() {
                    by_batch.entry(j.batch).or_default().push(d);
                }
            }
        }
        by_batch
            .into_iter()
            .map(|(b, xs)| {
                (b, stats::mean(&xs), stats::percentile(&xs, 10.0), stats::percentile(&xs, 90.0))
            })
            .collect()
    }

    /// All admission delays pooled (Fig. 12 boxplots).
    pub fn all_delays(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.jobs.iter().filter_map(|j| j.admission_delay_s()))
            .collect()
    }
}

/// Run a full two-configuration comparison. Its `2 × runs` repetitions
/// are independent and run side by side; every run is the one a serial
/// loop measures.
pub fn run_pattern(pattern: Pattern, runs: u32, seed: u64, time_cap_s: u64) -> (AdmissionSeries, AdmissionSeries) {
    // Unit 2r is run r with the integration, unit 2r + 1 run r without.
    let mut units = par::par_units(2 * runs as usize, |unit| {
        let (run, vni) = ((unit / 2) as u64, unit % 2 == 0);
        let seed = seed.wrapping_add(if vni { 1000 } else { 2000 } + run);
        run_admission(pattern, vni, seed, time_cap_s)
    })
    .into_iter();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    while let (Some(w), Some(wo)) = (units.next(), units.next()) {
        with.push(w);
        without.push(wo);
    }
    (
        AdmissionSeries { name: "vni:true", runs: with },
        AdmissionSeries { name: "vni:false", runs: without },
    )
}

/// The serial loop [`run_pattern`] replaced.
#[cfg(test)]
fn run_pattern_serial(
    pattern: Pattern,
    runs: u32,
    seed: u64,
    time_cap_s: u64,
) -> (AdmissionSeries, AdmissionSeries) {
    let mut with = Vec::new();
    let mut without = Vec::new();
    for r in 0..runs {
        with.push(run_admission(pattern, true, seed.wrapping_add(1000 + r as u64), time_cap_s));
        without.push(run_admission(pattern, false, seed.wrapping_add(2000 + r as u64), time_cap_s));
    }
    (
        AdmissionSeries { name: "vni:true", runs: with },
        AdmissionSeries { name: "vni:false", runs: without },
    )
}

/// Median-overhead headline number (§IV-B: 3.5 % ramp, 1.6 % spike).
pub fn median_overhead_pct(with: &AdmissionSeries, without: &AdmissionSeries) -> f64 {
    let m_true = stats::median(&with.all_delays());
    let m_false = stats::median(&without.all_delays());
    stats::overhead_pct(m_false, m_true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_curve_matches_paper_description() {
        let b = ramp_batches();
        assert_eq!(b.len(), 29);
        assert_eq!(b[..10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(b[10..20].iter().all(|&n| n == 10));
        assert_eq!(b[20..], [9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(b.iter().sum::<usize>(), 200, "200 jobs total");
    }

    #[test]
    fn side_by_side_repetitions_equal_the_serial_loop() {
        let spike = Pattern::Spike { jobs: 20 };
        assert_eq!(
            format!("{:?}", run_pattern(spike, 3, 11, 120)),
            format!("{:?}", run_pattern_serial(spike, 3, 11, 120)),
        );
    }

    #[test]
    fn small_spike_admits_everything_and_drains() {
        // 40 jobs keep the setup queue saturated for several seconds, so
        // teardown starvation (setup priority) accumulates running jobs.
        let run = run_admission(Pattern::Spike { jobs: 40 }, false, 3, 120);
        assert_eq!(run.jobs.len(), 40);
        assert!(run.jobs.iter().all(|j| j.started.is_some()), "all admitted");
        assert!(run.jobs.iter().all(|j| j.deleted.is_some()), "all deleted");
        let peak = run.samples.iter().map(|&(_, n)| n).max().unwrap();
        assert!(peak >= 10, "teardown starvation accumulates running jobs: peak {peak}");
        // And the cluster drains back to zero at the end.
        assert_eq!(run.samples.last().unwrap().1, 0);
    }

    #[test]
    fn admission_delays_grow_with_queue_depth() {
        let run = run_admission(Pattern::Spike { jobs: 16 }, false, 4, 120);
        let mut delays: Vec<f64> =
            run.jobs.iter().filter_map(|j| j.admission_delay_s()).collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            delays.last().unwrap() > &(delays.first().unwrap() * 2.0),
            "later jobs wait behind the worker pool: {delays:?}"
        );
    }

    #[test]
    fn vni_overhead_is_small_but_measurable() {
        let (with, without) = run_pattern(Pattern::Spike { jobs: 10 }, 2, 11, 120);
        let oh = median_overhead_pct(&with, &without);
        assert!(oh > -5.0 && oh < 25.0, "median overhead {oh}% out of band");
    }
}
