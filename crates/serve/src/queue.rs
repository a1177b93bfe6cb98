//! The bounded job queue, job table, and batch scheduler.
//!
//! `POST /extract` submissions land here as validated [`JobRequest`]s.
//! One scheduler thread drains the queue in arrival order, *realizes*
//! each scenario into a diagram and fans the extractions out over the
//! vendored mini-rayon pool through the same
//! [`fastvg_core::batch::BatchExtractor`]`/&dyn `[`Extractor`] path
//! every offline harness uses — the daemon adds scheduling and caching,
//! never a second extraction code path.
//!
//! # Determinism
//!
//! Scenario specs carry their own seeds ([`qd_dataset::BenchmarkSpec`]),
//! generation derives per-job RNGs from them, and replay sessions are
//! pure, so resubmitting a request reproduces the same slopes, α
//! coefficients and probe counts bit-for-bit regardless of batch
//! composition or worker count — only wall-clock fields vary. That is
//! what makes result caching sound.

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use fastvg_core::api::{extract_with, ExtractionReport, Extractor};
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::Method;
use fastvg_core::tuning::TuningLoop;
use fastvg_core::ExtractError;
use fastvg_obs::{SpanId, TraceId, Tracer};
use fastvg_wire::{Json, TraceContext};
use mini_rayon::ThreadPool;
use qd_csd::Csd;
use qd_dataset::BenchmarkSpec;
use qd_instrument::{BoxedSource, MeasurementSession, SourceBackend, SourceScenario};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one job extracts: a scenario to realize into a diagram.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Generate a synthetic device from a (seeded) spec.
    Spec(BenchmarkSpec),
    /// Replay an inline charge stability diagram.
    Grid(Box<Csd>),
}

impl Scenario {
    /// Produces the diagram to probe. Spec generation is deterministic
    /// in the spec's seed, so realization commutes with batching.
    fn realize(&self) -> Result<Csd, String> {
        match self {
            Scenario::Spec(spec) => qd_dataset::generate(spec)
                .map(|bench| bench.csd)
                .map_err(|e| e.to_string()),
            Scenario::Grid(csd) => Ok((**csd).clone()),
        }
    }

    /// The generation seed behind the scenario (0 for inline grids),
    /// recorded into tape headers by recording backends.
    fn seed(&self) -> u64 {
        match self {
            Scenario::Spec(spec) => spec.seed,
            Scenario::Grid(_) => 0,
        }
    }
}

/// A validated submission: the scenario, the method to run, the probe
/// backend realizing it, and the canonical form + fingerprint the
/// result cache is keyed by.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to extract.
    pub scenario: Scenario,
    /// Which method to run.
    pub method: Method,
    /// The probe backend the scenario is measured through — the
    /// daemon's default, or the request's validated `"backend"` member.
    pub backend: Arc<dyn SourceBackend>,
    /// [`fastvg_wire::fnv1a64`] of [`JobRequest::canonical`].
    pub fingerprint: u64,
    /// The canonical request document (sorted keys, resolved spec,
    /// canonical backend string).
    pub canonical: String,
    /// Trace context of the originating request (the daemon's request
    /// span), when the request is being traced. The scheduler parents
    /// its queue-wait / prepare / extract / stage spans to it.
    /// Deliberately *not* part of the canonical form: tracing never
    /// splits cache entries.
    pub trace: Option<TraceContext>,
}

/// A finished job's outcome: the serialized, newline-framed result
/// document — exactly the bytes a cache hit will replay.
#[derive(Debug, Clone)]
pub struct FinishedJob {
    /// Whether extraction succeeded (`"ok": true` in the document).
    pub ok: bool,
    /// Whether this outcome was served from the result cache.
    pub cache_hit: bool,
    /// The result document bytes.
    pub body: Vec<u8>,
}

impl FinishedJob {
    /// The wire token for this outcome — `done` or `failed`, carried in
    /// the `x-fastvg-status` header of finished-job responses.
    pub fn status_name(&self) -> &'static str {
        if self.ok {
            "done"
        } else {
            "failed"
        }
    }
}

/// Where a job currently is.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Being extracted by a batch worker.
    Running,
    /// Finished (result or failure).
    Finished(FinishedJob),
}

impl JobState {
    /// The wire token for status documents and headers.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished(finished) => finished.status_name(),
        }
    }
}

struct JobEntry {
    state: JobState,
    /// Taken by the scheduler when the job starts running.
    request: Option<JobRequest>,
    submitted: Instant,
}

/// A one-shot completion subscription (see [`JobQueue::on_finished`]):
/// invoked with `Some(outcome)` when the job finishes, `None` if the
/// queue stops first.
pub type FinishedCallback = Box<dyn FnOnce(Option<FinishedJob>) + Send>;

struct QueueInner {
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    finished_order: VecDeque<u64>,
    watchers: HashMap<u64, Vec<FinishedCallback>>,
    stopping: bool,
}

/// The bounded submission queue plus the job table behind
/// `GET /jobs/<id>`.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
    retain_finished: usize,
    next_id: AtomicU64,
}

/// The queue refused a submission because it is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("job queue at capacity")
    }
}

impl std::error::Error for QueueFull {}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// An empty queue holding at most `capacity` pending jobs and
    /// remembering the last `retain_finished` finished ones.
    pub fn new(capacity: usize, retain_finished: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                finished_order: VecDeque::new(),
                watchers: HashMap::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            retain_finished: retain_finished.max(1),
            next_id: AtomicU64::new(1),
        }
    }

    fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Enqueues a job, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when `capacity` jobs are already pending or
    /// the queue is stopping (a stopping scheduler would never run the
    /// job, so admitting it would strand the client).
    pub fn submit(&self, request: JobRequest) -> Result<u64, QueueFull> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.pending.len() >= self.capacity || inner.stopping {
            return Err(QueueFull);
        }
        let id = self.allocate_id();
        inner.jobs.insert(
            id,
            JobEntry {
                state: JobState::Queued,
                request: Some(request),
                submitted: Instant::now(),
            },
        );
        inner.pending.push_back(id);
        drop(inner);
        self.cv.notify_all();
        Ok(id)
    }

    /// Registers a job that is already finished (cache hits), so
    /// `GET /jobs/<id>` works uniformly.
    pub fn insert_finished(&self, finished: FinishedJob) -> u64 {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let id = self.allocate_id();
        inner.jobs.insert(
            id,
            JobEntry {
                state: JobState::Finished(finished),
                request: None,
                submitted: Instant::now(),
            },
        );
        Self::remember_finished(&mut inner, id, self.retain_finished);
        id
    }

    fn remember_finished(inner: &mut QueueInner, id: u64, retain: usize) {
        inner.finished_order.push_back(id);
        while inner.finished_order.len() > retain {
            if let Some(old) = inner.finished_order.pop_front() {
                inner.jobs.remove(&old);
            }
        }
    }

    /// The current state of a job, if it is still remembered.
    pub fn status(&self, id: u64) -> Option<JobState> {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.jobs.get(&id).map(|entry| entry.state.clone())
    }

    /// Blocks until job `id` finishes, the timeout lapses, or the queue
    /// stops. Returns the outcome only in the first case.
    pub fn wait_finished(&self, id: u64, timeout: Duration) -> Option<FinishedJob> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            match inner.jobs.get(&id) {
                Some(JobEntry {
                    state: JobState::Finished(finished),
                    ..
                }) => return Some(finished.clone()),
                Some(_) => {}
                None => return None,
            }
            if inner.stopping {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("queue poisoned");
            inner = guard;
        }
    }

    /// Takes up to `max` pending jobs (blocking while the queue is empty)
    /// and marks them running. Returns `None` once the queue is stopping
    /// and drained — the scheduler's exit condition.
    pub fn take_batch(&self, max: usize) -> Option<Vec<(u64, JobRequest, Instant)>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if !inner.pending.is_empty() {
                let take = inner.pending.len().min(max.max(1));
                let mut batch = Vec::with_capacity(take);
                for _ in 0..take {
                    let id = inner.pending.pop_front().expect("checked non-empty");
                    let entry = inner.jobs.get_mut(&id).expect("pending job in table");
                    entry.state = JobState::Running;
                    let request = entry.request.take().expect("queued job has request");
                    batch.push((id, request, entry.submitted));
                }
                return Some(batch);
            }
            if inner.stopping {
                return None;
            }
            inner = self.cv.wait(inner).expect("queue poisoned");
        }
    }

    /// Records a job's outcome and wakes any waiters — blocking
    /// (`wait_finished`) and subscribed (`on_finished`) alike.
    pub fn finish(&self, id: u64, finished: FinishedJob) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut fire: Vec<FinishedCallback> = Vec::new();
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.state = JobState::Finished(finished.clone());
            Self::remember_finished(&mut inner, id, self.retain_finished);
            if let Some(watchers) = inner.watchers.remove(&id) {
                fire = watchers;
            }
        }
        drop(inner);
        self.cv.notify_all();
        // Callbacks run outside the queue lock: they may grab other locks
        // (the reactor's completion list) or be arbitrarily slow.
        for callback in fire {
            callback(Some(finished.clone()));
        }
    }

    /// Subscribes a one-shot callback for job `id`, the non-blocking
    /// sibling of [`JobQueue::wait_finished`] (this is how the reactor's
    /// deferred `?wait` responses get completed). The callback fires
    /// on whichever thread resolves the job:
    ///
    /// * immediately on this thread if the job already finished (or is
    ///   unknown / the queue is stopping — then with `None`);
    /// * on the scheduler thread from [`JobQueue::finish`];
    /// * on the stopping thread from [`JobQueue::stop`], with `None`.
    pub fn on_finished(&self, id: u64, callback: FinishedCallback) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let immediate: Option<Option<FinishedJob>> = match inner.jobs.get(&id) {
            Some(JobEntry {
                state: JobState::Finished(finished),
                ..
            }) => Some(Some(finished.clone())),
            None => Some(None),
            Some(_) if inner.stopping => Some(None),
            Some(_) => None,
        };
        match immediate {
            Some(outcome) => {
                drop(inner);
                callback(outcome);
            }
            None => {
                inner.watchers.entry(id).or_default().push(callback);
            }
        }
    }

    /// Pending jobs waiting for the scheduler.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").pending.len()
    }

    /// Starts the shutdown: wakes the scheduler and every waiter, and
    /// fires outstanding [`JobQueue::on_finished`] subscriptions with
    /// `None` so parked connections fall back instead of hanging out the
    /// full wait timeout.
    pub fn stop(&self) {
        let fire: Vec<FinishedCallback> = {
            let mut inner = self.inner.lock().expect("queue poisoned");
            inner.stopping = true;
            inner.watchers.drain().flat_map(|(_, v)| v).collect()
        };
        self.cv.notify_all();
        for callback in fire {
            callback(None);
        }
    }
}

/// Serializes a successful extraction into the newline-framed result
/// document (`{"ok":true,"report":{…}}`).
pub fn result_body(report: &ExtractionReport) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", true)
        .field("report", report.to_json())
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// Serializes an extraction failure into the newline-framed result
/// document (`{"ok":false,"error":{…}}`), flattening the taxonomy chain.
pub fn failure_body(error: &ExtractError) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", false)
        .field("error", error.to_wire().to_json())
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// Serializes a protocol-level failure (scenario realization, queue
/// administration) with the out-of-taxonomy category `"request"`.
pub fn request_failure_body(message: &str) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", false)
        .field(
            "error",
            Json::object()
                .field("category", "request")
                .field("message", message)
                .field("chain", Vec::<Json>::new())
                .build(),
        )
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// The scheduler: drains the queue, realizes scenarios, and fans each
/// batch onto the worker pool through the erased [`Extractor`] path.
pub struct Scheduler {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    jobs: usize,
    batch_max: usize,
    tracer: Option<Arc<Tracer>>,
}

impl Scheduler {
    /// A scheduler over the shared queue/cache/metrics, running up to
    /// `jobs` concurrent extractions (`0` = one per core) and draining
    /// at most `batch_max` submissions per wakeup.
    pub fn new(
        queue: Arc<JobQueue>,
        cache: Arc<ResultCache>,
        metrics: Arc<Metrics>,
        jobs: usize,
        batch_max: usize,
    ) -> Self {
        Self {
            queue,
            cache,
            metrics,
            jobs: if jobs == 0 {
                mini_rayon::available_workers()
            } else {
                jobs
            },
            batch_max: batch_max.max(1),
            tracer: None,
        }
    }

    /// Attaches the daemon's tracer: jobs carrying a
    /// [`JobRequest::trace`] context get queue-wait / prepare / extract /
    /// stage spans minted when they finish.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs until [`JobQueue::stop`] — the scheduler thread's body.
    pub fn run(self) {
        // One extractor per method, built once and driven erased — the
        // scheduler never branches on what it is running.
        let extractors: Vec<(Method, Box<dyn Extractor>)> = vec![
            (Method::FastExtraction, Box::new(FastExtractor::new())),
            (Method::HoughBaseline, Box::new(HoughBaseline::new())),
            (Method::TunedFast, Box::new(TuningLoop::new())),
        ];
        while let Some(batch) = self.queue.take_batch(self.batch_max) {
            self.metrics.queue_depth.set(self.queue.depth() as u64);
            self.metrics.jobs_running.set(batch.len() as u64);
            self.run_batch(&batch, &extractors);
            self.metrics.jobs_running.set(0);
            self.metrics.queue_depth.set(self.queue.depth() as u64);
        }
    }

    fn run_batch(
        &self,
        batch: &[(u64, JobRequest, Instant)],
        extractors: &[(Method, Box<dyn Extractor>)],
    ) {
        let dequeued = Instant::now();
        let pool = ThreadPool::new(self.jobs);
        let realized: Vec<Result<Csd, String>> =
            pool.par_map(batch, |_, (_, request, _)| request.scenario.realize());

        // Scenarios that failed to realize finish immediately.
        for ((id, request, submitted), realized) in batch.iter().zip(&realized) {
            if let Err(message) = realized {
                self.finish(
                    *id,
                    request,
                    *submitted,
                    FinishedJob {
                        ok: false,
                        cache_hit: false,
                        body: request_failure_body(message),
                    },
                    None,
                );
            }
        }

        // A method with no registered extractor must still finish its
        // jobs (defensive: `Method` is non-exhaustive, and a hung job
        // would pin its waiter until the timeout).
        for ((id, request, submitted), realized) in batch.iter().zip(&realized) {
            if realized.is_ok() && !extractors.iter().any(|(m, _)| *m == request.method) {
                self.finish(
                    *id,
                    request,
                    *submitted,
                    FinishedJob {
                        ok: false,
                        cache_hit: false,
                        body: request_failure_body(&format!(
                            "method {} not servable",
                            request.method
                        )),
                    },
                    None,
                );
            }
        }

        // Group the rest by method and run each group through the one
        // erased batch path. Sources are opened through each job's
        // backend *before* the fan-out, so an open failure (unreadable
        // tape, unwritable path) finishes its job cleanly instead of
        // panicking a worker.
        for (method, extractor) in extractors {
            let mut group: Vec<(usize, Mutex<Option<BoxedSource>>)> = Vec::new();
            for (i, (id, request, submitted)) in batch.iter().enumerate() {
                if request.method != *method || realized[i].is_err() {
                    continue;
                }
                let csd = realized[i].as_ref().expect("checked ok").clone();
                let scenario = SourceScenario::new(csd)
                    .with_label(format!("job{id}"))
                    .with_seed(request.scenario.seed());
                match request.backend.open(scenario) {
                    Ok(source) => group.push((i, Mutex::new(Some(source)))),
                    // Open failures are environmental (a tape missing
                    // *right now*, a directory briefly unwritable), not
                    // deterministic properties of the request — finish
                    // the job but keep the failure out of the result
                    // cache so a fixed environment serves fresh runs.
                    Err(e) => self.finish_uncached(
                        *id,
                        *submitted,
                        FinishedJob {
                            ok: false,
                            cache_hit: false,
                            body: request_failure_body(&format!("backend open failed: {e}")),
                        },
                    ),
                }
            }
            if group.is_empty() {
                continue;
            }
            let outcomes = fastvg_core::batch::BatchExtractor::new()
                .with_jobs(self.jobs)
                .run(extractor.as_ref(), group.len(), |k| {
                    let source = group[k]
                        .1
                        .lock()
                        .expect("source slot poisoned")
                        .take()
                        .expect("each job's source is taken exactly once");
                    MeasurementSession::new(source)
                });
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let (id, request, submitted) = &batch[group[k].0];
                let (finished, stages) = match outcome.outcome {
                    Ok(report) => {
                        let body = result_body(&report);
                        (
                            FinishedJob {
                                ok: true,
                                cache_hit: false,
                                body,
                            },
                            Some(report.stages),
                        )
                    }
                    Err(error) => (
                        FinishedJob {
                            ok: false,
                            cache_hit: false,
                            body: failure_body(&error),
                        },
                        None,
                    ),
                };
                self.trace_job(
                    request,
                    *submitted,
                    dequeued,
                    outcome.started,
                    outcome.wall,
                    stages.as_deref(),
                );
                self.finish(*id, request, *submitted, finished, stages.as_deref());
            }
        }
    }

    /// Mints the scheduler-side spans for one finished traced job:
    /// `queue_wait` (submit → the scheduler dequeuing its batch),
    /// `prepare` (dequeue → extraction start: scenario synthesis,
    /// source open, and waiting for a batch worker) and `extract` (the
    /// job's in-pipeline wall time). The three tile without overlap.
    /// One child span per extraction stage is laid out sequentially
    /// inside `extract`; stage spans are re-exported from the
    /// Observer-derived [`StageTiming`]s each report carries — the
    /// pipeline itself is not re-instrumented. Instants map to
    /// wall-clock microseconds through one "now" reading.
    fn trace_job(
        &self,
        request: &JobRequest,
        submitted: Instant,
        dequeued: Instant,
        started: Instant,
        wall: Duration,
        stages: Option<&[fastvg_core::api::StageTiming]>,
    ) {
        let (Some(tracer), Some(ctx)) = (self.tracer.as_ref(), request.trace) else {
            return;
        };
        let trace = TraceId(ctx.trace);
        let parent = Some(SpanId(ctx.span));
        let since_submit = |t: Instant| t.saturating_duration_since(submitted).as_micros() as u64;
        let submit_us = fastvg_obs::unix_us().saturating_sub(since_submit(Instant::now()));
        let queue_us = since_submit(dequeued);
        let start_us = since_submit(started);
        let extract_start_us = submit_us + start_us;
        tracer.emit(trace, parent, "queue_wait", submit_us, queue_us, Vec::new());
        tracer.emit(
            trace,
            parent,
            "prepare",
            submit_us + queue_us,
            start_us - queue_us,
            Vec::new(),
        );
        let extract = tracer.emit(
            trace,
            parent,
            "extract",
            extract_start_us,
            wall.as_micros() as u64,
            vec![("method", request.method.wire_name().to_string())],
        );
        let mut cursor = extract_start_us;
        for timing in stages.unwrap_or(&[]) {
            let dur = timing.elapsed.as_micros() as u64;
            tracer.emit(
                trace,
                Some(extract),
                timing.stage.name(),
                cursor,
                dur,
                vec![("probes", timing.probes.to_string())],
            );
            cursor += dur;
        }
    }

    fn finish(
        &self,
        id: u64,
        request: &JobRequest,
        submitted: Instant,
        finished: FinishedJob,
        stages: Option<&[fastvg_core::api::StageTiming]>,
    ) {
        if let Some(stages) = stages {
            self.metrics.observe_stages(stages);
        }
        // Extraction and realization failures are cached too: they are
        // as deterministic as results. (Environmental failures go
        // through `finish_uncached` instead.)
        self.cache.insert(
            request.fingerprint,
            &request.canonical,
            crate::cache::CachedResult {
                body: finished.body.clone(),
                ok: finished.ok,
            },
        );
        self.metrics.cache_entries.set(self.cache.len() as u64);
        self.finish_uncached(id, submitted, finished);
    }

    /// [`Scheduler::finish`] without the cache insert — for failures
    /// that depend on the daemon's environment rather than the request.
    fn finish_uncached(&self, id: u64, submitted: Instant, finished: FinishedJob) {
        if finished.ok {
            self.metrics.jobs_completed.inc();
        } else {
            self.metrics.jobs_failed.inc();
        }
        self.metrics.job_latency.observe(submitted.elapsed());
        self.queue.finish(id, finished);
    }
}

/// Convenience used by tests and the `serve` example: runs one request
/// synchronously through the same code path the scheduler uses
/// (realize, open through the request's backend, erased extract,
/// serialize), without a daemon.
///
/// # Errors
///
/// Returns the realization / backend-open error message for
/// unrealizable scenarios.
pub fn run_inline(request: &JobRequest) -> Result<Vec<u8>, String> {
    let csd = request.scenario.realize()?;
    let extractor: Box<dyn Extractor> = match request.method {
        Method::FastExtraction => Box::new(FastExtractor::new()),
        Method::HoughBaseline => Box::new(HoughBaseline::new()),
        Method::TunedFast => Box::new(TuningLoop::new()),
        other => return Err(format!("method {other} not servable")),
    };
    let scenario = SourceScenario::new(csd)
        .with_label("inline")
        .with_seed(request.scenario.seed());
    let mut session = request
        .backend
        .session(scenario)
        .map_err(|e| format!("backend open failed: {e}"))?;
    Ok(match extract_with(extractor.as_ref(), &mut session) {
        Ok(report) => result_body(&report),
        Err(error) => failure_body(&error),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn request(seed: u64) -> JobRequest {
        let mut spec = BenchmarkSpec::clean(0, 64);
        spec.seed = seed;
        let canonical = spec.to_json().canonical();
        JobRequest {
            fingerprint: fastvg_wire::fnv1a64(canonical.as_bytes()),
            canonical,
            scenario: Scenario::Spec(spec),
            method: Method::FastExtraction,
            backend: Arc::new(qd_instrument::SimBackend),
            trace: None,
        }
    }

    #[test]
    fn queue_respects_capacity_and_order() {
        let q = JobQueue::new(2, 16);
        let a = q.submit(request(1)).unwrap();
        let b = q.submit(request(2)).unwrap();
        assert_eq!(q.submit(request(3)).unwrap_err(), QueueFull);
        assert_eq!(q.depth(), 2);
        let batch = q.take_batch(8).unwrap();
        let ids: Vec<u64> = batch.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, vec![a, b], "arrival order preserved");
        assert_eq!(q.depth(), 0);
        assert!(matches!(q.status(a), Some(JobState::Running)));
    }

    #[test]
    fn finish_wakes_waiters_and_is_observable() {
        let q = Arc::new(JobQueue::new(8, 16));
        let id = q.submit(request(7)).unwrap();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_finished(id, Duration::from_secs(5)))
        };
        let batch = q.take_batch(1).unwrap();
        q.finish(
            batch[0].0,
            FinishedJob {
                ok: true,
                cache_hit: false,
                body: b"{}\n".to_vec(),
            },
        );
        let finished = waiter.join().unwrap().expect("woken with outcome");
        assert!(finished.ok);
        assert!(matches!(q.status(id), Some(JobState::Finished(_))));
        assert_eq!(q.status(id).unwrap().name(), "done");
    }

    #[test]
    fn wait_times_out_and_stop_unblocks() {
        let q = Arc::new(JobQueue::new(8, 16));
        let id = q.submit(request(9)).unwrap();
        assert!(q.wait_finished(id, Duration::from_millis(30)).is_none());

        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.take_batch(4))
        };
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_finished(9999, Duration::from_secs(30)))
        };
        // Unknown job id returns immediately.
        assert!(waiter.join().unwrap().is_none());
        // take_batch first drains the one pending job…
        assert!(blocked.join().unwrap().is_some());
        // …then stop() makes the next take return None.
        q.stop();
        assert!(q.take_batch(4).is_none());
    }

    #[test]
    fn on_finished_fires_at_finish_immediately_and_on_stop() {
        let q = Arc::new(JobQueue::new(8, 16));
        let outcomes: Arc<Mutex<Vec<(&'static str, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let record = |label: &'static str| {
            let outcomes = Arc::clone(&outcomes);
            Box::new(move |finished: Option<FinishedJob>| {
                outcomes.lock().unwrap().push((label, finished.is_some()));
            })
        };

        // Subscribed before the job resolves: fires from finish().
        let id = q.submit(request(11)).unwrap();
        q.on_finished(id, record("pending"));
        assert!(outcomes.lock().unwrap().is_empty(), "not fired yet");
        let batch = q.take_batch(1).unwrap();
        q.finish(
            batch[0].0,
            FinishedJob {
                ok: true,
                cache_hit: false,
                body: b"{}\n".to_vec(),
            },
        );
        // Already finished: fires inline. Unknown id: fires inline with None.
        q.on_finished(id, record("done"));
        q.on_finished(424242, record("unknown"));
        // Still-queued watcher at stop(): fired with None.
        let parked = q.submit(request(12)).unwrap();
        q.on_finished(parked, record("stopped"));
        q.stop();

        let seen = outcomes.lock().unwrap().clone();
        assert_eq!(
            seen,
            vec![
                ("pending", true),
                ("done", true),
                ("unknown", false),
                ("stopped", false),
            ]
        );
        // Stopping queues refuse new work instead of stranding it.
        assert_eq!(q.submit(request(13)).unwrap_err(), QueueFull);
    }

    #[test]
    fn finished_jobs_are_garbage_collected() {
        let q = JobQueue::new(64, 2);
        let first = q.insert_finished(FinishedJob {
            ok: true,
            cache_hit: true,
            body: b"1".to_vec(),
        });
        for _ in 0..2 {
            q.insert_finished(FinishedJob {
                ok: true,
                cache_hit: true,
                body: b"x".to_vec(),
            });
        }
        assert!(q.status(first).is_none(), "oldest finished job evicted");
    }

    #[test]
    fn scheduler_drains_and_caches() {
        let queue = Arc::new(JobQueue::new(16, 64));
        let cache = Arc::new(ResultCache::new(CacheConfig::default()));
        let metrics = Arc::new(Metrics::default());
        let scheduler = Scheduler::new(
            Arc::clone(&queue),
            Arc::clone(&cache),
            Arc::clone(&metrics),
            2,
            8,
        );
        let handle = std::thread::spawn(move || scheduler.run());

        let ids: Vec<u64> = (0..3)
            .map(|k| queue.submit(request(100 + k)).unwrap())
            .collect();
        let outcomes: Vec<FinishedJob> = ids
            .iter()
            .map(|&id| {
                queue
                    .wait_finished(id, Duration::from_secs(60))
                    .expect("job finishes")
            })
            .collect();
        for outcome in &outcomes {
            assert!(outcome.ok, "clean spec must extract");
            assert!(outcome.body.ends_with(b"\n"), "newline framing");
        }
        assert_eq!(metrics.jobs_completed.get(), 3);
        assert_eq!(cache.len(), 3, "every outcome cached");

        // The cache now replays the exact bytes, outcome attached.
        let req = request(100);
        let cached = cache.get(req.fingerprint, &req.canonical).unwrap();
        assert_eq!(cached.body, outcomes[0].body);
        assert!(cached.ok);

        queue.stop();
        handle.join().unwrap();
    }

    #[test]
    fn inline_runner_matches_scheduler_bytes_except_timing() {
        // Same request through run_inline twice: slopes identical
        // (timing fields differ, so compare the parsed reports).
        let req = request(5);
        let a = run_inline(&req).unwrap();
        let b = run_inline(&req).unwrap();
        let parse = |bytes: &[u8]| {
            let doc = Json::parse(std::str::from_utf8(bytes).unwrap().trim()).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            ExtractionReport::from_json(doc.get("report").unwrap()).unwrap()
        };
        let (ra, rb) = (parse(&a), parse(&b));
        assert_eq!(ra.slope_h.to_bits(), rb.slope_h.to_bits());
        assert_eq!(ra.slope_v.to_bits(), rb.slope_v.to_bits());
        assert_eq!(ra.probes, rb.probes);
    }

    #[test]
    fn unrealizable_scenarios_fail_with_request_category() {
        let queue = Arc::new(JobQueue::new(4, 16));
        let cache = Arc::new(ResultCache::new(CacheConfig::default()));
        let metrics = Arc::new(Metrics::default());

        // A spec the generator rejects: lever arms that make the device
        // model singular.
        let mut spec = BenchmarkSpec::clean(0, 64);
        spec.lever_arms = [[0.01, 0.01], [0.01, 0.01]];
        let canonical = spec.to_json().canonical();
        let id = queue
            .submit(JobRequest {
                fingerprint: fastvg_wire::fnv1a64(canonical.as_bytes()),
                canonical,
                scenario: Scenario::Spec(spec),
                method: Method::FastExtraction,
                backend: Arc::new(qd_instrument::SimBackend),
                trace: None,
            })
            .unwrap();

        let scheduler = Scheduler::new(Arc::clone(&queue), cache, Arc::clone(&metrics), 1, 4);
        let handle = std::thread::spawn(move || scheduler.run());
        let finished = queue
            .wait_finished(id, Duration::from_secs(30))
            .expect("finishes");
        assert!(!finished.ok);
        let doc = Json::parse(std::str::from_utf8(&finished.body).unwrap().trim()).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("category"))
                .and_then(Json::as_str),
            Some("request")
        );
        assert_eq!(metrics.jobs_failed.get(), 1);
        queue.stop();
        handle.join().unwrap();
    }
}
