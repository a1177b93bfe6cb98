//! Parallel batch execution of extractions across many measurement
//! sessions.
//!
//! The paper evaluates one device at a time; a production tuning service
//! faces a *fleet* — 12 Table 1 benchmarks, a randomized robustness
//! cohort, or many physical devices cooling in parallel. This module is
//! the batch layer every such harness shares: a [`BatchExtractor`] fans a
//! job queue out over a [`mini_rayon::ThreadPool`], builds one fresh
//! [`MeasurementSession`] per job inside the worker, runs the configured
//! extractor, and collects one [`BatchOutcome`] per job **in queue
//! order**.
//!
//! # Determinism
//!
//! Parallel execution is bit-identical to serial execution by
//! construction:
//!
//! * every job owns its session (no shared mutable state between jobs);
//! * sources derive their randomness from per-job seeds threaded through
//!   the session factory, never from a pool-global RNG;
//! * outcomes are collected in job order regardless of completion order.
//!
//! Only the wall-clock fields ([`BatchOutcome::wall`], and the
//! `compute_time` inside a result) vary run-to-run; slopes, α
//! coefficients, probe counts and ledgers do not — `jobs = 1` and
//! `jobs = N` agree bit-for-bit (asserted by the workspace's
//! `batch_determinism` test over the full 12-benchmark suite).
//!
//! # Example
//!
//! ```
//! use fastvg_core::batch::BatchExtractor;
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_instrument::{CsdSource, MeasurementSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four synthetic devices, probed concurrently by two workers.
//! let diagrams: Vec<Csd> = (0..4)
//!     .map(|k| {
//!         let grid = VoltageGrid::new(0.0, 0.0, 1.0, 100, 100)?;
//!         let steep = 3.5 + 0.2 * k as f64;
//!         Csd::from_fn(grid, move |v1, v2| {
//!             let mut i = 8.0 - 0.004 * (v1 + v2);
//!             if v2 > -steep * (v1 - 62.0) { i -= 1.0 }
//!             if v2 > 58.0 - 0.30 * v1 { i -= 0.8 }
//!             i
//!         })
//!     })
//!     .collect::<Result<_, _>>()?;
//!
//! // Any extractor runs through the same batch path: fast, baseline,
//! // retry ladder, or a full Pipeline.
//! let extractor = fastvg_core::extraction::FastExtractor::new();
//! let outcomes = BatchExtractor::new().with_jobs(2).run(&extractor, diagrams.len(), |job| {
//!     MeasurementSession::new(CsdSource::new(diagrams[job].clone()))
//! });
//!
//! assert_eq!(outcomes.len(), 4);
//! for (job, o) in outcomes.iter().enumerate() {
//!     assert_eq!(o.job, job);
//!     let r = o.outcome.as_ref().expect("clean diagrams extract");
//!     assert!(r.slope_v < -1.0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::api::{extract_with, ExtractionReport, Extractor};
use crate::baseline::{BaselineResult, HoughBaseline};
use crate::extraction::{ExtractionResult, FastExtractor};
use crate::ExtractError;
use mini_rayon::ThreadPool;
use qd_instrument::{CurrentSource, MeasurementSession};
use std::time::{Duration, Instant};

/// Everything one batch job produced: the extraction outcome plus the
/// session accounting (Table 1's probe/timing columns) and the probe
/// scatter (Figure 7), captured before the session is dropped.
#[derive(Debug)]
pub struct BatchOutcome<R> {
    /// Index of the job in the queue (outcomes are returned in this
    /// order).
    pub job: usize,
    /// What the extractor returned.
    pub outcome: Result<R, ExtractError>,
    /// Dwell-costing probes the job spent.
    pub probes: usize,
    /// Distinct pixels probed.
    pub unique_pixels: usize,
    /// Fraction of the window probed.
    pub coverage: f64,
    /// Simulated dwell time accrued (`probes × dwell`).
    pub simulated_dwell: Duration,
    /// Real wall-clock time the job occupied a worker (includes any
    /// physical source latency; varies run-to-run, unlike every other
    /// field).
    pub wall: Duration,
    /// Distinct probed pixels in first-probe order.
    pub scatter: Vec<(i64, i64)>,
}

impl<R> BatchOutcome<R> {
    /// Whether the extractor returned a result.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Runs fast and/or baseline extractions over a queue of jobs with a
/// bounded number of concurrent workers.
///
/// The queue is implicit: `count` jobs indexed `0..count`, each realized
/// by a caller-supplied session factory. The factory receives the job
/// index, so per-job state (which benchmark to replay, which seed to
/// noise a live device with) is threaded explicitly — the pattern that
/// keeps parallel runs bit-identical to serial ones.
#[derive(Debug, Clone, Default)]
pub struct BatchExtractor {
    extractor: FastExtractor,
    baseline: HoughBaseline,
    jobs: usize,
}

impl BatchExtractor {
    /// A batch runner with the paper's default extractors and a worker
    /// per available core.
    pub fn new() -> Self {
        Self {
            extractor: FastExtractor::new(),
            baseline: HoughBaseline::new(),
            jobs: 0, // 0 = resolve to available parallelism at run time
        }
    }

    /// Caps concurrent jobs (builder style). `0` means one worker per
    /// available core; `1` runs serially on the calling thread.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Replaces the fast extractor (ablation configurations).
    #[must_use]
    pub fn with_extractor(mut self, extractor: FastExtractor) -> Self {
        self.extractor = extractor;
        self
    }

    /// Replaces the baseline extractor.
    #[must_use]
    pub fn with_baseline(mut self, baseline: HoughBaseline) -> Self {
        self.baseline = baseline;
        self
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        if self.jobs == 0 {
            mini_rayon::available_workers()
        } else {
            self.jobs
        }
    }

    /// The configured fast extractor.
    pub fn extractor(&self) -> &FastExtractor {
        &self.extractor
    }

    /// The configured baseline extractor.
    pub fn baseline(&self) -> &HoughBaseline {
        &self.baseline
    }

    /// Runs *any* extraction method over `count` jobs, building each
    /// job's session with `make_session(job_index)` — the unified batch
    /// entry point: the same code path serves the fast method, the
    /// baseline, retry ladders, and whole [`crate::api::Pipeline`]s
    /// (whose observers, being `Sync`, are shared by the workers).
    pub fn run<S, F>(
        &self,
        extractor: &dyn Extractor,
        count: usize,
        make_session: F,
    ) -> Vec<BatchOutcome<ExtractionReport>>
    where
        S: CurrentSource + Send,
        F: Fn(usize) -> MeasurementSession<S> + Sync,
    {
        self.run_with(count, make_session, |session| {
            extract_with(extractor, session)
        })
    }

    /// Runs the fast extractor over `count` jobs, building each job's
    /// session with `make_session(job_index)`.
    pub fn run_fast<S, F>(
        &self,
        count: usize,
        make_session: F,
    ) -> Vec<BatchOutcome<ExtractionResult>>
    where
        S: CurrentSource + Send,
        F: Fn(usize) -> MeasurementSession<S> + Sync,
    {
        self.run_with(count, make_session, |session| {
            self.extractor.extract(session)
        })
    }

    /// Runs the Hough baseline over `count` jobs, building each job's
    /// session with `make_session(job_index)`.
    pub fn run_baseline<S, F>(
        &self,
        count: usize,
        make_session: F,
    ) -> Vec<BatchOutcome<BaselineResult>>
    where
        S: CurrentSource + Send,
        F: Fn(usize) -> MeasurementSession<S> + Sync,
    {
        self.run_with(count, make_session, |session| {
            self.baseline.extract(session)
        })
    }

    /// Shared driver: fan the job queue out, run `work` per session,
    /// capture accounting, collect in job order.
    fn run_with<S, R, F, W>(&self, count: usize, make_session: F, work: W) -> Vec<BatchOutcome<R>>
    where
        S: CurrentSource + Send,
        R: Send,
        F: Fn(usize) -> MeasurementSession<S> + Sync,
        W: Fn(&mut MeasurementSession<S>) -> Result<R, ExtractError> + Sync,
    {
        let queue: Vec<usize> = (0..count).collect();
        ThreadPool::new(self.jobs()).par_map(&queue, |_, &job| {
            let started = Instant::now();
            let mut session = make_session(job);
            let outcome = work(&mut session);
            BatchOutcome {
                job,
                wall: started.elapsed(),
                probes: session.probe_count(),
                unique_pixels: session.unique_pixels(),
                coverage: session.coverage(),
                simulated_dwell: session.simulated_dwell(),
                scatter: session.ledger().scatter(),
                outcome,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::{Csd, VoltageGrid};
    use qd_instrument::CsdSource;

    /// A clean two-line diagram whose steep slope varies with `k`.
    fn diagram(k: usize, size: usize) -> Csd {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, size, size).unwrap();
        let s = size as f64 / 100.0;
        let steep = 3.5 + 0.15 * k as f64;
        Csd::from_fn(grid, move |v1, v2| {
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -steep * (v1 - 62.0 * s) {
                i -= 1.0;
            }
            if v2 > 58.0 * s - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap()
    }

    fn session_for(k: usize) -> MeasurementSession<CsdSource> {
        MeasurementSession::new(CsdSource::new(diagram(k, 100)))
    }

    #[test]
    fn outcomes_arrive_in_job_order() {
        let outcomes = BatchExtractor::new().with_jobs(4).run_fast(6, session_for);
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.job, i);
            assert!(o.is_ok(), "job {i} failed: {:?}", o.outcome.as_ref().err());
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let runner = BatchExtractor::new();
        let serial = runner.clone().with_jobs(1).run_fast(5, session_for);
        let parallel = runner.with_jobs(4).run_fast(5, session_for);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.unique_pixels, b.unique_pixels);
            assert_eq!(a.scatter, b.scatter);
            assert_eq!(a.simulated_dwell, b.simulated_dwell);
            let (ra, rb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(ra.slope_h.to_bits(), rb.slope_h.to_bits());
            assert_eq!(ra.slope_v.to_bits(), rb.slope_v.to_bits());
            assert_eq!(ra.transition_points, rb.transition_points);
        }
    }

    #[test]
    fn session_accounting_matches_result() {
        let outcomes = BatchExtractor::new().with_jobs(2).run_fast(2, session_for);
        for o in &outcomes {
            let r = o.outcome.as_ref().unwrap();
            assert_eq!(o.probes, r.probes);
            assert!(o.coverage > 0.0 && o.coverage < 0.25);
            assert_eq!(o.scatter.len(), o.unique_pixels);
            assert!(o.wall >= r.compute_time);
        }
    }

    #[test]
    fn failures_are_per_job_not_batch_wide() {
        let flat = Csd::constant(VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).unwrap(), 1.0).unwrap();
        let outcomes = BatchExtractor::new().with_jobs(3).run_fast(3, |job| {
            if job == 1 {
                MeasurementSession::new(CsdSource::new(flat.clone()))
            } else {
                session_for(job)
            }
        });
        assert!(outcomes[0].is_ok());
        assert!(!outcomes[1].is_ok(), "flat diagram must fail cleanly");
        assert!(outcomes[2].is_ok());
        // The failed job still reports its probe accounting.
        assert!(outcomes[1].probes > 0);
    }

    #[test]
    fn baseline_runs_in_batch_too() {
        let outcomes = BatchExtractor::new().with_jobs(2).run_baseline(2, |k| {
            MeasurementSession::new(CsdSource::new(diagram(k, 63)))
        });
        for o in &outcomes {
            assert!(o.is_ok());
            assert_eq!(o.probes, 63 * 63, "baseline probes everything");
            assert!((o.coverage - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn custom_extractor_config_is_honored() {
        use crate::extraction::ExtractorConfig;
        let cfg = ExtractorConfig {
            contrast_threshold: None,
            ..ExtractorConfig::default()
        };
        let runner = BatchExtractor::new()
            .with_jobs(2)
            .with_extractor(FastExtractor::with_config(cfg.clone()));
        assert_eq!(runner.extractor().config(), &cfg);
        let outcomes = runner.run_fast(2, session_for);
        assert!(outcomes.iter().all(BatchOutcome::is_ok));
    }

    #[test]
    fn dyn_extractor_batches_match_typed_batches() {
        use crate::api::Extractor;
        use crate::baseline::HoughBaseline;
        use crate::tuning::TuningLoop;

        let runner = BatchExtractor::new().with_jobs(2);
        let typed = runner.run_fast(3, session_for);
        let erased = runner.run(&FastExtractor::new(), 3, session_for);
        for (t, e) in typed.iter().zip(&erased) {
            let (tr, er) = (t.outcome.as_ref().unwrap(), e.outcome.as_ref().unwrap());
            assert_eq!(tr.slope_h.to_bits(), er.slope_h.to_bits());
            assert_eq!(tr.slope_v.to_bits(), er.slope_v.to_bits());
            assert_eq!(t.probes, e.probes);
            assert_eq!(t.scatter, e.scatter);
        }

        // Every shipped method runs through the same entry point.
        let methods: Vec<Box<dyn Extractor>> = vec![
            Box::new(FastExtractor::new()),
            Box::new(HoughBaseline::new()),
            Box::new(TuningLoop::new()),
        ];
        for m in &methods {
            let outcomes = runner.run(m.as_ref(), 2, |k| {
                MeasurementSession::new(CsdSource::new(diagram(k, 63)))
            });
            assert!(
                outcomes.iter().all(BatchOutcome::is_ok),
                "{} failed in batch",
                m.method()
            );
        }
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let runner = BatchExtractor::new();
        assert_eq!(runner.jobs(), mini_rayon::available_workers());
        assert_eq!(runner.clone().with_jobs(7).jobs(), 7);
    }
}
