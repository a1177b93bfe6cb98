//! The unified extraction API: one object-safe [`Extractor`] trait over
//! every method, a fluent [`Pipeline`] builder, and [`Observer`] hooks
//! for live progress streaming.
//!
//! The paper's evaluation (and this repo's harnesses) compares several
//! extraction methods — the fast §4 pipeline, the Canny+Hough baseline,
//! and retry ladders on top of either — across many devices. Before this
//! module each method had its own entry point and result struct, so
//! every harness hand-rolled its own dispatch. [`Extractor`] erases the
//! differences: every method runs against an object-safe session view
//! and returns the same [`ExtractionReport`], so drivers hold a
//! `Box<dyn Extractor>` (or a whole `Vec` of them) and stay
//! method-agnostic.
//!
//! # Quick tour
//!
//! ```
//! use fastvg_core::api::{extract_with, Extractor, Pipeline};
//! use fastvg_core::baseline::HoughBaseline;
//! use fastvg_core::extraction::FastExtractor;
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_instrument::{CsdSource, MeasurementSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 100, 100)?;
//! let csd = Csd::from_fn(grid, |v1, v2| {
//!     let mut i = 8.0 - 0.004 * (v1 + v2);
//!     if v2 > -3.5 * (v1 - 62.0) { i -= 1.0 }
//!     if v2 > 58.0 - 0.30 * v1 { i -= 0.8 }
//!     i
//! })?;
//!
//! // One loop, any method: trait objects erase the per-method types.
//! let methods: Vec<Box<dyn Extractor>> =
//!     vec![Box::new(FastExtractor::new()), Box::new(HoughBaseline::new())];
//! for method in &methods {
//!     let mut session = MeasurementSession::new(CsdSource::new(csd.clone()));
//!     let report = extract_with(method.as_ref(), &mut session)?;
//!     assert!(report.slope_v < -1.0);
//!     assert!(!report.stages.is_empty());
//! }
//!
//! // Or fluently, with retry and observers:
//! let pipeline = Pipeline::fast().build();
//! let mut session = MeasurementSession::new(CsdSource::new(csd));
//! let report = pipeline.run(&mut session)?;
//! assert!(report.coverage < 0.25);
//! # Ok(())
//! # }
//! ```

use crate::baseline::{BaselineConfig, BaselineResult, HoughBaseline};
use crate::error::WireError;
use crate::extraction::{ExtractionResult, ExtractorConfig, FastExtractor};
use crate::report::Method;
use crate::tuning::TuningLoop;
use crate::ExtractError;
use fastvg_wire::Json;
use qd_csd::VirtualizationMatrix;
use qd_instrument::{ProbeSession, VoltageWindow};
use std::time::{Duration, Instant};

/// `json[key]` as a finite `f64`.
fn wire_f64(json: &Json, key: &str) -> Result<f64, WireError> {
    json.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| WireError::new(format!("report: bad or missing \"{key}\"")))
}

/// `json[key]` as a `usize`.
fn wire_usize(json: &Json, key: &str) -> Result<usize, WireError> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| WireError::new(format!("report: bad or missing \"{key}\"")))
}

/// `json[key]` as a string.
fn wire_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, WireError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(format!("report: bad or missing \"{key}\"")))
}

/// `json[key]` as an array.
fn wire_arr<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::new(format!("report: bad or missing \"{key}\"")))
}

/// `json[key]` (integer nanoseconds) as a [`Duration`].
fn wire_duration(json: &Json, key: &str) -> Result<Duration, WireError> {
    json.get(key)
        .and_then(Json::as_u64)
        .map(Duration::from_nanos)
        .ok_or_else(|| WireError::new(format!("report: bad or missing \"{key}\"")))
}

/// A pipeline stage, for per-stage timings and [`Observer`] events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// §4.4 anchor preprocessing (diagonal probe + mask sweeps).
    Anchors,
    /// §4.3.2 bottom-to-top row-major sweep.
    RowSweep,
    /// §4.3.2 left-to-right column-major sweep.
    ColumnSweep,
    /// Alg. 3 erroneous-point filtering.
    Postprocess,
    /// §4.3.3 slope fit + virtualization matrix.
    Fit,
    /// Post-extraction validation (contrast check).
    Verify,
    /// Full-CSD acquisition (baseline only).
    Acquire,
    /// Canny + Hough line detection (baseline only).
    Vision,
    /// Slope refinement over supporting edge pixels (baseline only).
    Refine,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Stage {
    /// The stable lowercase token used in displays, metrics and on the
    /// wire.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Anchors => "anchors",
            Stage::RowSweep => "row-sweep",
            Stage::ColumnSweep => "column-sweep",
            Stage::Postprocess => "postprocess",
            Stage::Fit => "fit",
            Stage::Verify => "verify",
            Stage::Acquire => "acquire",
            Stage::Vision => "vision",
            Stage::Refine => "refine",
        }
    }

    /// Parses a [`Stage::name`] token.
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "anchors" => Some(Stage::Anchors),
            "row-sweep" => Some(Stage::RowSweep),
            "column-sweep" => Some(Stage::ColumnSweep),
            "postprocess" => Some(Stage::Postprocess),
            "fit" => Some(Stage::Fit),
            "verify" => Some(Stage::Verify),
            "acquire" => Some(Stage::Acquire),
            "vision" => Some(Stage::Vision),
            "refine" => Some(Stage::Refine),
            _ => None,
        }
    }
}

/// What one stage cost: probes spent and wall-clock compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Dwell-costing probes the stage spent.
    pub probes: usize,
    /// Wall-clock time inside the stage (includes any real source
    /// latency; varies run-to-run).
    pub elapsed: Duration,
}

impl StageTiming {
    /// Serializes to the wire schema
    /// (`{"stage": ..., "probes": ..., "elapsed_ns": ...}`).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("stage", self.stage.name())
            .field("probes", self.probes)
            .field("elapsed_ns", self.elapsed.as_nanos())
            .build()
    }

    /// Parses the wire schema.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on missing or mistyped fields or an unknown
    /// stage token.
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        let stage = wire_str(json, "stage").and_then(|name| {
            Stage::from_name(name)
                .ok_or_else(|| WireError::new(format!("report: unknown stage {name:?}")))
        })?;
        Ok(Self {
            stage,
            probes: wire_usize(json, "probes")?,
            elapsed: wire_duration(json, "elapsed_ns")?,
        })
    }
}

/// One observed `getCurrent` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeObservation {
    /// The session's dwell-costing probe count *after* this call.
    pub index: usize,
    /// Probed plunger voltage `V_P1`.
    pub v1: f64,
    /// Probed plunger voltage `V_P2`.
    pub v2: f64,
    /// Sensor current returned.
    pub value: f64,
    /// Whether the probe cost a dwell (`false` for cache hits).
    pub costed: bool,
}

/// Hooks into a running extraction, for live progress streaming
/// (`live_device`), fleet dashboards (`unattended_batch`) and tests.
///
/// Methods take `&self` so one observer can be shared by concurrent
/// extractions (e.g. across a [`crate::batch::BatchExtractor`] fleet);
/// observers that accumulate state use interior mutability
/// (`Mutex`, atomics). All methods default to no-ops — implement only
/// the events of interest.
pub trait Observer: Send + Sync {
    /// An extraction run is starting.
    fn on_start(&self, method: Method) {
        let _ = method;
    }

    /// A pipeline stage is starting.
    fn on_stage_start(&self, stage: Stage) {
        let _ = stage;
    }

    /// A probe went through the session (probe-level event; fires for
    /// cache hits too, with [`ProbeObservation::costed`] `false`).
    fn on_probe(&self, probe: &ProbeObservation) {
        let _ = probe;
    }

    /// A pipeline stage finished.
    fn on_stage_end(&self, timing: &StageTiming) {
        let _ = timing;
    }

    /// A retry-ladder attempt is starting (1-based; fires only for
    /// extractors with retry semantics).
    fn on_attempt_start(&self, attempt: usize, total: usize) {
        let _ = (attempt, total);
    }

    /// A retry-ladder attempt failed; the next rung (if any) runs next.
    fn on_attempt_failed(&self, attempt: usize, error: &ExtractError) {
        let _ = (attempt, error);
    }

    /// The run finished successfully.
    fn on_complete(&self, report: &ExtractionReport) {
        let _ = report;
    }

    /// The run failed (all retries exhausted).
    fn on_error(&self, error: &ExtractError) {
        let _ = error;
    }
}

impl<T: Observer + ?Sized> Observer for std::sync::Arc<T> {
    fn on_start(&self, method: Method) {
        (**self).on_start(method);
    }
    fn on_stage_start(&self, stage: Stage) {
        (**self).on_stage_start(stage);
    }
    fn on_probe(&self, probe: &ProbeObservation) {
        (**self).on_probe(probe);
    }
    fn on_stage_end(&self, timing: &StageTiming) {
        (**self).on_stage_end(timing);
    }
    fn on_attempt_start(&self, attempt: usize, total: usize) {
        (**self).on_attempt_start(attempt, total);
    }
    fn on_attempt_failed(&self, attempt: usize, error: &ExtractError) {
        (**self).on_attempt_failed(attempt, error);
    }
    fn on_complete(&self, report: &ExtractionReport) {
        (**self).on_complete(report);
    }
    fn on_error(&self, error: &ExtractError) {
        (**self).on_error(error);
    }
}

/// Bridges [`Observer`] stage events into `fastvg-obs` spans: every
/// finished stage becomes one child span under a fixed parent, named by
/// [`Stage::name`] and carrying the probe count as an attribute. The
/// pipeline needs no new instrumentation — the spans derive from the
/// same [`StageTiming`] events it already emits.
///
/// Each span is emitted at `on_stage_end` and backdated by the stage's
/// elapsed time, so consecutive stages tile the extraction interval the
/// way they tiled wall-clock time.
#[derive(Debug)]
pub struct SpanObserver {
    tracer: std::sync::Arc<fastvg_obs::Tracer>,
    trace: fastvg_obs::TraceId,
    parent: Option<fastvg_obs::SpanId>,
}

impl SpanObserver {
    /// Emits each finished stage into `trace` as a child of `parent`.
    pub fn new(
        tracer: std::sync::Arc<fastvg_obs::Tracer>,
        trace: fastvg_obs::TraceId,
        parent: Option<fastvg_obs::SpanId>,
    ) -> Self {
        Self {
            tracer,
            trace,
            parent,
        }
    }
}

impl Observer for SpanObserver {
    fn on_stage_end(&self, timing: &StageTiming) {
        let dur_us = timing.elapsed.as_micros() as u64;
        self.tracer.emit(
            self.trace,
            self.parent,
            timing.stage.name(),
            fastvg_obs::unix_us().saturating_sub(dur_us),
            dur_us,
            vec![("probes", timing.probes.to_string())],
        );
    }
}

/// The dyn-friendly session wrapper extractors run against.
///
/// Wraps any [`ProbeSession`] (type-erased), forwards probes to the
/// attached [`Observer`]s, and records per-stage timings. Extractor
/// implementations probe *through* the view (it implements
/// [`ProbeSession`] itself) and bracket their phases with
/// [`SessionView::begin_stage`] / [`SessionView::end_stage`].
pub struct SessionView<'a> {
    session: &'a mut dyn ProbeSession,
    observers: &'a [Box<dyn Observer>],
    stages: Vec<StageTiming>,
    open: Vec<(Stage, Instant, usize)>,
}

impl std::fmt::Debug for dyn Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Observer")
    }
}

impl std::fmt::Debug for SessionView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionView")
            .field("observers", &self.observers.len())
            .field("stages", &self.stages)
            .finish_non_exhaustive()
    }
}

impl<'a> SessionView<'a> {
    /// A view over `session` notifying `observers`.
    pub fn new(session: &'a mut dyn ProbeSession, observers: &'a [Box<dyn Observer>]) -> Self {
        Self {
            session,
            observers,
            stages: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A view with no observers attached (stage timings still recorded).
    pub fn detached(session: &'a mut dyn ProbeSession) -> Self {
        Self::new(session, &[])
    }

    /// Marks the start of a pipeline stage.
    pub fn begin_stage(&mut self, stage: Stage) {
        self.open
            .push((stage, Instant::now(), self.session.probe_count()));
        for o in self.observers {
            o.on_stage_start(stage);
        }
    }

    /// Marks the end of the innermost open stage, recording its timing.
    pub fn end_stage(&mut self) {
        let Some((stage, started, probes_before)) = self.open.pop() else {
            debug_assert!(false, "end_stage without begin_stage");
            return;
        };
        let timing = StageTiming {
            stage,
            probes: self.session.probe_count() - probes_before,
            elapsed: started.elapsed(),
        };
        for o in self.observers {
            o.on_stage_end(&timing);
        }
        self.stages.push(timing);
    }

    /// Takes the stage timings recorded so far, leaving the view empty
    /// (open stages are discarded — they belong to a failed run).
    pub fn take_stages(&mut self) -> Vec<StageTiming> {
        self.open.clear();
        std::mem::take(&mut self.stages)
    }

    /// Notifies observers that a retry-ladder attempt is starting.
    pub fn notify_attempt_start(&self, attempt: usize, total: usize) {
        for o in self.observers {
            o.on_attempt_start(attempt, total);
        }
    }

    /// Notifies observers that a retry-ladder attempt failed.
    pub fn notify_attempt_failed(&self, attempt: usize, error: &ExtractError) {
        for o in self.observers {
            o.on_attempt_failed(attempt, error);
        }
    }
}

impl ProbeSession for SessionView<'_> {
    fn get_current(&mut self, v1: f64, v2: f64) -> f64 {
        if self.observers.is_empty() {
            return self.session.get_current(v1, v2);
        }
        let before = self.session.probe_count();
        let value = self.session.get_current(v1, v2);
        let index = self.session.probe_count();
        let probe = ProbeObservation {
            index,
            v1,
            v2,
            value,
            costed: index > before,
        };
        for o in self.observers {
            o.on_probe(&probe);
        }
        value
    }

    fn window(&self) -> VoltageWindow {
        self.session.window()
    }

    fn probe_count(&self) -> usize {
        self.session.probe_count()
    }

    fn unique_pixels(&self) -> usize {
        self.session.unique_pixels()
    }

    fn coverage(&self) -> f64 {
        self.session.coverage()
    }

    fn simulated_dwell(&self) -> Duration {
        self.session.simulated_dwell()
    }

    fn scatter(&self) -> Vec<(i64, i64)> {
        self.session.scatter()
    }

    fn remaining_budget(&self) -> Option<usize> {
        self.session.remaining_budget()
    }
}

/// The unified outcome every extraction method reports.
///
/// Replaces the per-method result structs as the cross-method currency:
/// slopes, the virtualization matrix, the full probe/coverage/dwell/wall
/// accounting, per-stage timings, retry accounting, and (for callers
/// that need the method-specific trace data) the typed details.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionReport {
    /// Which method produced this report.
    pub method: Method,
    /// Shallow (0,0)→(0,1) line slope, `dV_P2/dV_P1`.
    pub slope_h: f64,
    /// Steep (0,0)→(1,0) line slope.
    pub slope_v: f64,
    /// The virtualization matrix built from the slopes.
    pub matrix: VirtualizationMatrix,
    /// Dwell-costing probes spent by this run (across all retry
    /// attempts).
    pub probes: usize,
    /// Distinct pixels the session has probed.
    pub unique_pixels: usize,
    /// Fraction of the window probed.
    pub coverage: f64,
    /// Simulated dwell time accrued (`probes × dwell`).
    pub simulated_dwell: Duration,
    /// Wall-clock compute time of the successful attempt (excludes
    /// dwell).
    pub compute_time: Duration,
    /// Retry attempts used (1 for single-shot extractors).
    pub attempts: usize,
    /// Failure messages of unsuccessful retry attempts, in order.
    pub retry_failures: Vec<String>,
    /// Per-stage probe/time accounting of the successful attempt.
    pub stages: Vec<StageTiming>,
    /// Method-specific trace data.
    pub details: ExtractionDetails,
}

/// The method-specific payload behind an [`ExtractionReport`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExtractionDetails {
    /// Full trace of a fast (§4) extraction.
    Fast(Box<ExtractionResult>),
    /// Full trace of a Canny+Hough baseline extraction.
    Baseline(Box<BaselineResult>),
    /// The compact summary a report parsed back off the wire carries —
    /// the in-memory traces (sweep steps, Hough lines, …) are not
    /// transmitted.
    Summary(DetailSummary),
}

/// What the wire keeps of [`ExtractionDetails`]: which trace kind the
/// report carried and its headline geometry count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailSummary {
    /// `"fast"` or `"baseline"` (the trace kind, not the method — a
    /// [`Method::TunedFast`] run carries a fast trace).
    pub kind: String,
    /// Transition points (fast trace) or Hough lines (baseline trace)
    /// behind the fit.
    pub points: usize,
}

impl ExtractionDetails {
    /// The fast-extraction trace, if this report came from the fast
    /// method (directly or through a retry ladder).
    pub fn fast(&self) -> Option<&ExtractionResult> {
        match self {
            ExtractionDetails::Fast(r) => Some(r),
            _ => None,
        }
    }

    /// The baseline trace, if this report came from the baseline.
    pub fn baseline(&self) -> Option<&BaselineResult> {
        match self {
            ExtractionDetails::Baseline(r) => Some(r),
            _ => None,
        }
    }

    /// The wire summary of this payload (identity on
    /// [`ExtractionDetails::Summary`]).
    pub fn summarize(&self) -> DetailSummary {
        match self {
            ExtractionDetails::Fast(r) => DetailSummary {
                kind: "fast".to_string(),
                points: r.transition_points.len(),
            },
            ExtractionDetails::Baseline(r) => DetailSummary {
                kind: "baseline".to_string(),
                points: r.lines.len(),
            },
            ExtractionDetails::Summary(s) => s.clone(),
        }
    }
}

impl ExtractionReport {
    /// Total simulated experiment runtime: dwell plus compute — the
    /// paper's "total runtime" column.
    pub fn total_runtime(&self) -> Duration {
        self.simulated_dwell + self.compute_time
    }

    /// Coefficient `α₁₂ = −1/slope_v` of the virtualization matrix.
    pub fn alpha12(&self) -> f64 {
        self.matrix.alpha12()
    }

    /// Coefficient `α₂₁ = −slope_h`.
    pub fn alpha21(&self) -> f64 {
        self.matrix.alpha21()
    }

    /// Serializes this report to the wire schema (`docs/PROTOCOL.md`).
    ///
    /// Everything is transmitted except the in-memory trace behind
    /// [`ExtractionReport::details`], which is flattened to its
    /// [`DetailSummary`]; durations travel as integer nanoseconds and
    /// floats in shortest round-trip form, so every transmitted field is
    /// recovered bit-for-bit by [`ExtractionReport::from_json`].
    pub fn to_json(&self) -> Json {
        let summary = self.details.summarize();
        Json::object()
            .field("method", self.method.wire_name())
            .field("slope_h", Json::num(self.slope_h))
            .field("slope_v", Json::num(self.slope_v))
            .field("alpha12", Json::num(self.alpha12()))
            .field("alpha21", Json::num(self.alpha21()))
            .field("probes", self.probes)
            .field("unique_pixels", self.unique_pixels)
            .field("coverage", Json::num(self.coverage))
            .field("simulated_dwell_ns", self.simulated_dwell.as_nanos())
            .field("compute_time_ns", self.compute_time.as_nanos())
            .field("attempts", self.attempts)
            .field(
                "retry_failures",
                self.retry_failures
                    .iter()
                    .map(|s| Json::from(s.as_str()))
                    .collect::<Vec<_>>(),
            )
            .field(
                "stages",
                self.stages
                    .iter()
                    .map(StageTiming::to_json)
                    .collect::<Vec<_>>(),
            )
            .field(
                "details",
                Json::object()
                    .field("kind", summary.kind)
                    .field("points", summary.points)
                    .build(),
            )
            .build()
    }

    /// Parses a report off the wire schema.
    ///
    /// The result carries [`ExtractionDetails::Summary`] details (traces
    /// are not transmitted); every other field is recovered exactly, and
    /// re-serializing the parsed report reproduces the input document
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on missing or mistyped fields, or alphas a
    /// [`VirtualizationMatrix`] rejects.
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        let method = wire_str(json, "method").and_then(|name| {
            Method::from_wire_name(name)
                .ok_or_else(|| WireError::new(format!("report: unknown method {name:?}")))
        })?;
        let matrix =
            VirtualizationMatrix::new(wire_f64(json, "alpha12")?, wire_f64(json, "alpha21")?)
                .map_err(|e| WireError::new(format!("report: bad virtualization matrix: {e}")))?;
        let retry_failures = wire_arr(json, "retry_failures")?
            .iter()
            .map(|v| {
                v.as_str().map(str::to_string).ok_or_else(|| {
                    WireError::new("report: \"retry_failures\" entries must be strings")
                })
            })
            .collect::<Result<_, _>>()?;
        let stages = wire_arr(json, "stages")?
            .iter()
            .map(StageTiming::from_json)
            .collect::<Result<_, _>>()?;
        let details = json
            .get("details")
            .ok_or_else(|| WireError::new("report: missing \"details\""))?;
        let details = ExtractionDetails::Summary(DetailSummary {
            kind: wire_str(details, "kind")?.to_string(),
            points: wire_usize(details, "points")?,
        });
        Ok(Self {
            method,
            slope_h: wire_f64(json, "slope_h")?,
            slope_v: wire_f64(json, "slope_v")?,
            matrix,
            probes: wire_usize(json, "probes")?,
            unique_pixels: wire_usize(json, "unique_pixels")?,
            coverage: wire_f64(json, "coverage")?,
            simulated_dwell: wire_duration(json, "simulated_dwell_ns")?,
            compute_time: wire_duration(json, "compute_time_ns")?,
            attempts: wire_usize(json, "attempts")?,
            retry_failures,
            stages,
            details,
        })
    }

    pub(crate) fn from_fast(result: ExtractionResult, view: &mut SessionView<'_>) -> Self {
        let stages = view.take_stages();
        Self {
            method: Method::FastExtraction,
            slope_h: result.slope_h,
            slope_v: result.slope_v,
            matrix: result.matrix,
            probes: result.probes,
            unique_pixels: view.unique_pixels(),
            coverage: result.coverage,
            simulated_dwell: result.simulated_dwell,
            compute_time: result.compute_time,
            attempts: 1,
            retry_failures: Vec::new(),
            stages,
            details: ExtractionDetails::Fast(Box::new(result)),
        }
    }

    pub(crate) fn from_baseline(result: BaselineResult, view: &mut SessionView<'_>) -> Self {
        let stages = view.take_stages();
        Self {
            method: Method::HoughBaseline,
            slope_h: result.slope_h,
            slope_v: result.slope_v,
            matrix: result.matrix,
            probes: result.probes,
            unique_pixels: view.unique_pixels(),
            coverage: view.coverage(),
            simulated_dwell: result.simulated_dwell,
            compute_time: result.compute_time,
            attempts: 1,
            retry_failures: Vec::new(),
            stages,
            details: ExtractionDetails::Baseline(Box::new(result)),
        }
    }
}

/// An extraction method, object-safe: any implementor can be driven
/// through `Box<dyn Extractor>` / `&dyn Extractor` by method-agnostic
/// harness code ([`Pipeline`], [`crate::batch::BatchExtractor`], the
/// bench binaries).
///
/// Implemented by [`FastExtractor`], [`HoughBaseline`], [`TuningLoop`]
/// and [`Pipeline`]. Note the concrete types also keep their typed
/// inherent entry points (e.g. [`FastExtractor::extract`] returning
/// [`ExtractionResult`]); this trait is the erased, report-producing
/// surface on top of them.
pub trait Extractor: Send + Sync {
    /// Which method this extractor implements (label for reports).
    fn method(&self) -> Method;

    /// Runs the method against a session view, reporting the unified
    /// outcome.
    ///
    /// # Errors
    ///
    /// Any [`ExtractError`]; see each method's typed entry point for its
    /// specific failure modes.
    fn extract(&self, session: &mut SessionView<'_>) -> Result<ExtractionReport, ExtractError>;
}

/// Runs any extractor against any session — the one-liner entry point
/// when no observers or retry policy are needed.
///
/// # Errors
///
/// Whatever the extractor returns.
pub fn extract_with(
    extractor: &dyn Extractor,
    session: &mut dyn ProbeSession,
) -> Result<ExtractionReport, ExtractError> {
    extractor.extract(&mut SessionView::detached(session))
}

/// A configured extraction pipeline: one method (possibly wrapped in a
/// retry ladder) plus the observers to stream its progress to.
///
/// Built fluently:
///
/// ```
/// use fastvg_core::api::Pipeline;
/// use fastvg_core::extraction::ExtractorConfig;
/// use fastvg_core::tuning::TuningLoop;
///
/// let pipeline = Pipeline::fast()
///     .with_config(ExtractorConfig::default())
///     .with_retry(TuningLoop::new())
///     .build();
/// assert_eq!(pipeline.method(), fastvg_core::report::Method::TunedFast);
/// ```
///
/// `Pipeline` itself implements [`Extractor`], so a configured pipeline
/// (with its observers) can be handed to any driver that takes a
/// `&dyn Extractor` — including [`crate::batch::BatchExtractor`], whose
/// workers then share the (thread-safe) observers.
#[must_use = "a pipeline does nothing until `run` against a session"]
#[derive(Debug)]
pub struct Pipeline {
    extractor: Box<dyn Extractor>,
    observers: Vec<Box<dyn Observer>>,
}

impl std::fmt::Debug for dyn Extractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dyn Extractor({})", self.method())
    }
}

impl Pipeline {
    /// A pipeline around the paper's fast extraction (§4).
    pub fn fast() -> PipelineBuilder {
        PipelineBuilder::new(BuilderMethod::Fast)
    }

    /// A pipeline around the Canny+Hough full-CSD baseline (§5.1).
    pub fn baseline() -> PipelineBuilder {
        PipelineBuilder::new(BuilderMethod::Baseline)
    }

    /// A pipeline around the fast extraction with the default retry
    /// ladder — shorthand for `fast().with_retry(TuningLoop::new())`.
    pub fn tuned() -> PipelineBuilder {
        Self::fast().with_retry(TuningLoop::new())
    }

    /// A pipeline around a custom extractor implementation.
    pub fn custom(extractor: Box<dyn Extractor>) -> PipelineBuilder {
        PipelineBuilder::new(BuilderMethod::Custom(extractor))
    }

    /// The method this pipeline runs.
    pub fn method(&self) -> Method {
        self.extractor.method()
    }

    /// Runs the pipeline against a session.
    ///
    /// # Errors
    ///
    /// Whatever the configured extractor returns (after exhausting any
    /// retry ladder).
    pub fn run(&self, session: &mut dyn ProbeSession) -> Result<ExtractionReport, ExtractError> {
        Extractor::extract(self, &mut SessionView::detached(session))
    }
}

impl Extractor for Pipeline {
    fn method(&self) -> Method {
        self.extractor.method()
    }

    fn extract(&self, session: &mut SessionView<'_>) -> Result<ExtractionReport, ExtractError> {
        for o in &self.observers {
            o.on_start(self.method());
        }
        // Nest a view so this pipeline's observers see probe and stage
        // events. Probe events also propagate outward (the nested view
        // forwards `get_current` through `session`); stage and attempt
        // events are delivered to *this* pipeline's observers only —
        // attach observers to the innermost pipeline to receive them.
        let mut view = SessionView::new(session, &self.observers);
        match self.extractor.extract(&mut view) {
            Ok(report) => {
                for o in &self.observers {
                    o.on_complete(&report);
                }
                Ok(report)
            }
            Err(error) => {
                for o in &self.observers {
                    o.on_error(&error);
                }
                Err(error)
            }
        }
    }
}

enum BuilderMethod {
    Fast,
    Baseline,
    Custom(Box<dyn Extractor>),
}

/// Fluent builder for [`Pipeline`] — see [`Pipeline::fast`].
#[must_use = "call `build` to finish the pipeline"]
pub struct PipelineBuilder {
    method: BuilderMethod,
    fast_config: ExtractorConfig,
    baseline_config: BaselineConfig,
    retry: Option<TuningLoop>,
    observers: Vec<Box<dyn Observer>>,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("retry", &self.retry.is_some())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl PipelineBuilder {
    fn new(method: BuilderMethod) -> Self {
        Self {
            method,
            fast_config: ExtractorConfig::default(),
            baseline_config: BaselineConfig::default(),
            retry: None,
            observers: Vec::new(),
        }
    }

    /// Configures the fast extractor (first attempt, when a retry ladder
    /// is attached). Ignored by baseline and custom pipelines.
    pub fn with_config(mut self, config: ExtractorConfig) -> Self {
        self.fast_config = config;
        self
    }

    /// Configures the baseline. Ignored by fast and custom pipelines.
    pub fn with_baseline_config(mut self, config: BaselineConfig) -> Self {
        self.baseline_config = config;
        self
    }

    /// Attaches a retry ladder: the configured first attempt runs first,
    /// then the ladder's rungs (rungs identical to the first attempt are
    /// skipped). Applies to fast pipelines only.
    pub fn with_retry(mut self, ladder: TuningLoop) -> Self {
        self.retry = Some(ladder);
        self
    }

    /// Attaches an observer; may be called repeatedly.
    pub fn with_observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        let extractor: Box<dyn Extractor> = match self.method {
            BuilderMethod::Fast => match self.retry {
                None => Box::new(FastExtractor::with_config(self.fast_config)),
                Some(ladder) => {
                    let mut rungs = vec![self.fast_config.clone()];
                    rungs.extend(
                        ladder
                            .attempts()
                            .iter()
                            .filter(|c| **c != self.fast_config)
                            .cloned(),
                    );
                    Box::new(TuningLoop::with_attempts(rungs))
                }
            },
            BuilderMethod::Baseline => Box::new(HoughBaseline::with_config(self.baseline_config)),
            BuilderMethod::Custom(extractor) => extractor,
        };
        Pipeline {
            extractor,
            observers: self.observers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::{Csd, VoltageGrid};
    use qd_instrument::{CsdSource, MeasurementSession};
    use std::sync::Mutex;

    fn synthetic_session(size: usize) -> MeasurementSession<CsdSource> {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, size, size).unwrap();
        let s = size as f64 / 100.0;
        let csd = Csd::from_fn(grid, move |v1, v2| {
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 62.0 * s) {
                i -= 1.0;
            }
            if v2 > 58.0 * s - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap();
        MeasurementSession::new(CsdSource::new(csd))
    }

    #[test]
    fn dyn_extractors_return_unified_reports() {
        let methods: Vec<Box<dyn Extractor>> = vec![
            Box::new(FastExtractor::new()),
            Box::new(HoughBaseline::new()),
            Box::new(TuningLoop::new()),
        ];
        for extractor in &methods {
            let mut session = synthetic_session(100);
            let report = extract_with(extractor.as_ref(), &mut session).unwrap();
            assert_eq!(report.method, extractor.method());
            assert!(
                report.slope_v < -1.0,
                "{}: {}",
                report.method,
                report.slope_v
            );
            assert!(report.slope_h > -1.0 && report.slope_h < 0.0);
            assert!(report.probes > 0);
            assert!(!report.stages.is_empty());
            assert_eq!(
                report.probes,
                report.stages.iter().map(|s| s.probes).sum::<usize>(),
                "{}: stage probes must add up",
                report.method
            );
        }
    }

    #[test]
    fn report_accounting_matches_typed_result() {
        let mut s1 = synthetic_session(100);
        let typed = FastExtractor::new().extract(&mut s1).unwrap();
        let mut s2 = synthetic_session(100);
        let report = extract_with(&FastExtractor::new(), &mut s2).unwrap();
        assert_eq!(report.slope_h.to_bits(), typed.slope_h.to_bits());
        assert_eq!(report.slope_v.to_bits(), typed.slope_v.to_bits());
        assert_eq!(report.probes, typed.probes);
        let details = report.details.fast().unwrap();
        assert_eq!(details.transition_points, typed.transition_points);
        assert_eq!(details.anchors, typed.anchors);
        assert_eq!(details.matrix, typed.matrix);
        assert!(report.details.baseline().is_none());
        assert_eq!(
            report.total_runtime(),
            report.simulated_dwell + report.compute_time
        );
    }

    #[test]
    fn pipeline_builder_composes_retry_ladders() {
        // Default first rung deduplicates against the default ladder.
        let p = Pipeline::fast().with_retry(TuningLoop::new()).build();
        assert_eq!(p.method(), Method::TunedFast);
        let mut session = synthetic_session(100);
        let report = p.run(&mut session).unwrap();
        assert_eq!(report.attempts, 1);
        assert!(report.retry_failures.is_empty());
    }

    #[test]
    fn pipeline_baseline_runs() {
        let mut session = synthetic_session(63);
        let report = Pipeline::baseline().build().run(&mut session).unwrap();
        assert_eq!(report.method, Method::HoughBaseline);
        assert_eq!(report.probes, 63 * 63);
        assert!((report.coverage - 1.0).abs() < 1e-12);
    }

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<String>>,
    }

    impl Observer for Recorder {
        fn on_start(&self, method: Method) {
            self.events.lock().unwrap().push(format!("start:{method}"));
        }
        fn on_stage_start(&self, stage: Stage) {
            self.events.lock().unwrap().push(format!("+{stage}"));
        }
        fn on_probe(&self, probe: &ProbeObservation) {
            if probe.costed {
                self.events.lock().unwrap().push("probe".into());
            }
        }
        fn on_stage_end(&self, timing: &StageTiming) {
            self.events
                .lock()
                .unwrap()
                .push(format!("-{}", timing.stage));
        }
        fn on_complete(&self, _report: &ExtractionReport) {
            self.events.lock().unwrap().push("complete".into());
        }
        fn on_error(&self, _error: &ExtractError) {
            self.events.lock().unwrap().push("error".into());
        }
    }

    #[test]
    fn report_round_trips_through_wire_json() {
        let methods: Vec<Box<dyn Extractor>> = vec![
            Box::new(FastExtractor::new()),
            Box::new(HoughBaseline::new()),
            Box::new(TuningLoop::new()),
        ];
        for extractor in &methods {
            let mut session = synthetic_session(100);
            let report = extract_with(extractor.as_ref(), &mut session).unwrap();

            let text = report.to_json().dump();
            let parsed = Json::parse(&text).unwrap();
            let back = ExtractionReport::from_json(&parsed).unwrap();

            // Every transmitted field is recovered bit-for-bit.
            assert_eq!(back.method, report.method);
            assert_eq!(back.slope_h.to_bits(), report.slope_h.to_bits());
            assert_eq!(back.slope_v.to_bits(), report.slope_v.to_bits());
            assert_eq!(back.matrix, report.matrix);
            assert_eq!(back.probes, report.probes);
            assert_eq!(back.unique_pixels, report.unique_pixels);
            assert_eq!(back.coverage.to_bits(), report.coverage.to_bits());
            assert_eq!(back.simulated_dwell, report.simulated_dwell);
            assert_eq!(back.compute_time, report.compute_time);
            assert_eq!(back.attempts, report.attempts);
            assert_eq!(back.retry_failures, report.retry_failures);
            assert_eq!(back.stages, report.stages);
            // Traces flatten to their summary; the summary is stable.
            assert_eq!(
                back.details,
                ExtractionDetails::Summary(report.details.summarize())
            );
            // Re-serialization reproduces the document byte-for-byte —
            // a parsed report is a fixpoint of the wire format.
            assert_eq!(back.to_json().dump(), text, "{}", report.method);
        }
    }

    #[test]
    fn report_from_json_rejects_malformed_documents() {
        let mut session = synthetic_session(100);
        let good = extract_with(&FastExtractor::new(), &mut session)
            .unwrap()
            .to_json();

        // Dropping any required member must fail decoding.
        let members = good.as_obj().unwrap().to_vec();
        for (skip, _) in &members {
            let stripped = Json::Obj(members.iter().filter(|(k, _)| k != skip).cloned().collect());
            assert!(
                ExtractionReport::from_json(&stripped).is_err(),
                "dropping {skip:?} must fail"
            );
        }
        let err = ExtractionReport::from_json(&Json::Null).unwrap_err();
        assert!(err.to_string().contains("method"), "{err}");
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in [
            Stage::Anchors,
            Stage::RowSweep,
            Stage::ColumnSweep,
            Stage::Postprocess,
            Stage::Fit,
            Stage::Verify,
            Stage::Acquire,
            Stage::Vision,
            Stage::Refine,
        ] {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
        }
        assert_eq!(Stage::from_name("warmup"), None);
    }

    #[test]
    fn span_observer_mirrors_report_stages() {
        let tracer = fastvg_obs::Tracer::new("core", 7);
        let trace = fastvg_obs::TraceId(0x42);
        let parent = fastvg_obs::SpanId(0x7);
        let pipeline = Pipeline::fast()
            .with_observer(SpanObserver::new(
                std::sync::Arc::clone(&tracer),
                trace,
                Some(parent),
            ))
            .build();
        let mut session = synthetic_session(100);
        let report = pipeline.run(&mut session).unwrap();

        // One span per recorded stage, in end order, under the fixed
        // parent — the bridge is a faithful transcription of
        // `report.stages`.
        let lines = tracer.recent();
        assert_eq!(lines.len(), report.stages.len());
        for (line, timing) in lines.iter().zip(&report.stages) {
            assert!(
                line.contains(&format!("\"name\":\"{}\"", timing.stage.name())),
                "{line}"
            );
            assert!(line.contains("\"trace\":\"0000000000000042\""), "{line}");
            assert!(line.contains("\"parent\":\"0000000000000007\""), "{line}");
            assert!(
                line.contains(&format!("\"probes\":\"{}\"", timing.probes)),
                "{line}"
            );
        }
    }

    #[test]
    fn observers_see_ordered_events() {
        let recorder = std::sync::Arc::new(Recorder::default());
        let pipeline = Pipeline::fast().with_observer(recorder.clone()).build();
        let mut session = synthetic_session(100);
        let report = pipeline.run(&mut session).unwrap();

        let events = recorder.events.lock().unwrap();
        assert_eq!(
            events.first().map(String::as_str),
            Some("start:Fast Extraction")
        );
        assert_eq!(events.last().map(String::as_str), Some("complete"));
        // Stage events nest properly and probes only occur inside stages.
        let mut depth = 0usize;
        let mut costed = 0usize;
        for e in events.iter() {
            if e == "probe" {
                assert!(depth > 0, "probe outside any stage");
                costed += 1;
            } else if e.starts_with('+') {
                depth += 1;
            } else if e.starts_with('-') {
                assert!(depth > 0, "stage end without start");
                depth -= 1;
            }
        }
        assert_eq!(depth, 0, "unbalanced stage events");
        assert_eq!(costed, report.probes, "probe events must match probe count");
    }
}
