//! The bounded job queue, job table, and extraction workers.
//!
//! `POST /extract` submissions land here as validated [`JobRequest`]s.
//! `spawn_workers` starts the daemon's long-lived workers. Each takes
//! one job at a time in arrival order and runs it start to finish:
//! realize the scenario into a diagram, open it through the job's
//! backend, extract through the same `&dyn `[`Extractor`] path every
//! offline harness uses, serialize, cache, finish. A job never waits
//! for another job to finish — the daemon adds scheduling and caching,
//! never a second extraction code path.
//!
//! # Determinism
//!
//! Scenario specs carry their own seeds ([`qd_dataset::BenchmarkSpec`]),
//! generation derives per-job RNGs from them, and replay sessions are
//! pure, so resubmitting a request reproduces the same slopes, α
//! coefficients and probe counts bit-for-bit regardless of which worker
//! runs it or how many workers there are — only wall-clock fields vary.
//! That is what makes result caching sound.

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use fastvg_core::api::{extract_with, ExtractionReport, Extractor, StageTiming};
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::Method;
use fastvg_core::tuning::TuningLoop;
use fastvg_core::ExtractError;
use fastvg_obs::{SpanId, TraceId, Tracer};
use fastvg_wire::{Json, TraceContext};
use qd_csd::Csd;
use qd_dataset::BenchmarkSpec;
use qd_instrument::{SourceBackend, SourceScenario};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    /// in the spec's seed, so it does not matter which worker realizes it.
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
    /// span), when the request is being traced. The worker parents the
    /// job's queue-wait / prepare / extract / stage spans to it.
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
    /// Taken by a worker and being run.
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
    /// Taken by the worker when the job starts running.
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
    /// the queue is stopping (stopping workers would never run the job,
    /// so admitting it would strand the client).
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

    /// Takes the oldest pending job (blocking while the queue is empty)
    /// and marks it running, returning its id, request and submit time.
    /// Returns `None` once the queue is stopping and drained — a
    /// worker's exit condition.
    pub fn take(&self) -> Option<(u64, JobRequest, Instant)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(id) = inner.pending.pop_front() {
                let entry = inner.jobs.get_mut(&id).expect("pending job in table");
                entry.state = JobState::Running;
                let request = entry.request.take().expect("queued job has request");
                return Some((id, request, entry.submitted));
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
    /// * on the worker thread from [`JobQueue::finish`];
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

    /// Pending jobs waiting for a worker.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").pending.len()
    }

    /// Starts the shutdown: wakes the workers and every waiter, and
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

/// Serializes a protocol-level failure (a rejected request, scenario
/// realization, queue administration) with the out-of-taxonomy
/// category `"request"` — the one error document the daemon and the
/// router answer with.
pub fn request_failure_body(message: &str) -> Vec<u8> {
    reserved_failure_body("request", message)
}

/// A failure document under one of the reserved out-of-taxonomy
/// categories (`"request"`, `"internal"`), with an empty chain.
fn reserved_failure_body(category: &str, message: &str) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", false)
        .field(
            "error",
            Json::object()
                .field("category", category)
                .field("message", message)
                .field("chain", Vec::<Json>::new())
                .build(),
        )
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// What the workers share.
struct Shared {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    tracer: Option<Arc<Tracer>>,
}

/// Spawns `jobs` long-lived extraction workers (`0` = one per core)
/// over the shared queue, cache and metrics. Each takes one job at a
/// time and runs it start to finish; all exit once [`JobQueue::stop`]
/// has been called and the queue is drained. With a tracer, jobs
/// carrying a [`JobRequest::trace`] context get queue-wait / prepare /
/// extract / stage spans.
pub(crate) fn spawn_workers(
    jobs: usize,
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    tracer: Option<Arc<Tracer>>,
) -> Vec<JoinHandle<()>> {
    let jobs = if jobs == 0 {
        mini_rayon::available_workers()
    } else {
        jobs
    };
    let shared = Arc::new(Shared {
        queue,
        cache,
        metrics,
        tracer,
    });
    (0..jobs)
        .map(|k| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("fastvg-worker-{k}"))
                .spawn(move || {
                    while let Some((id, request, submitted)) = shared.queue.take() {
                        run_job(&shared, id, &request, submitted);
                    }
                })
                .expect("spawn extraction worker")
        })
        .collect()
}

/// The extractor serving `method`, or `None` for a method the daemon
/// cannot serve (`Method` is non-exhaustive).
fn extractor_for(method: Method) -> Option<Box<dyn Extractor>> {
    match method {
        Method::FastExtraction => Some(Box::new(FastExtractor::new())),
        Method::HoughBaseline => Some(Box::new(HoughBaseline::new())),
        Method::TunedFast => Some(Box::new(TuningLoop::new())),
        _ => None,
    }
}

/// When a job's extraction ran, for how long, and the stage timings of
/// its report (empty when extraction failed).
struct Extraction {
    started: Instant,
    wall: Duration,
    stages: Vec<StageTiming>,
}

/// What running one job produced, before it is traced, cached and
/// finished.
struct Ran {
    finished: FinishedJob,
    /// Whether the outcome is a deterministic property of the request,
    /// and so may be cached.
    cacheable: bool,
    /// `None` when the job failed before extraction started.
    extraction: Option<Extraction>,
}

impl Ran {
    fn failed(body: Vec<u8>, cacheable: bool) -> Self {
        Self {
            finished: FinishedJob {
                ok: false,
                cache_hit: false,
                body,
            },
            cacheable,
            extraction: None,
        }
    }
}

/// `run_job`'s pure part: realize → pick the extractor → open →
/// extract → serialize. It touches none of the daemon's shared state
/// (queue, cache, metrics).
fn execute(id: u64, request: &JobRequest) -> Ran {
    // Realization and method failures are as deterministic as results,
    // so they are cached.
    let csd = match request.scenario.realize() {
        Ok(csd) => csd,
        Err(message) => return Ran::failed(request_failure_body(&message), true),
    };
    let Some(extractor) = extractor_for(request.method) else {
        let message = format!("method {} not servable", request.method);
        return Ran::failed(request_failure_body(&message), true);
    };
    let scenario = SourceScenario::new(csd)
        .with_label(format!("job{id}"))
        .with_seed(request.scenario.seed());
    let mut session = match request.backend.session(scenario) {
        Ok(session) => session,
        // Open failures are environmental (a tape missing *right now*,
        // a directory briefly unwritable), not deterministic properties
        // of the request — keep them out of the result cache so a fixed
        // environment serves fresh runs.
        Err(e) => {
            let message = format!("backend open failed: {e}");
            return Ran::failed(request_failure_body(&message), false);
        }
    };
    let started = Instant::now();
    let outcome = extract_with(extractor.as_ref(), &mut session);
    let wall = started.elapsed();
    let (ok, body, stages) = match outcome {
        Ok(report) => (true, result_body(&report), report.stages),
        Err(error) => (false, failure_body(&error), Vec::new()),
    };
    Ran {
        finished: FinishedJob {
            ok,
            cache_hit: false,
            body,
        },
        cacheable: true,
        extraction: Some(Extraction {
            started,
            wall,
            stages,
        }),
    }
}

/// Runs one taken job start to finish — the daemon's only extraction
/// path: [`execute`], then trace, cache, and [`JobQueue::finish`]. A
/// panic inside `execute` is contained: the job finishes as an
/// uncached failure with the reserved category `"internal"` and the
/// worker keeps serving.
fn run_job(shared: &Shared, id: u64, request: &JobRequest, submitted: Instant) {
    let taken = Instant::now();
    shared.metrics.jobs_running.inc();
    let ran =
        panic::catch_unwind(AssertUnwindSafe(|| execute(id, request))).unwrap_or_else(|payload| {
            let reason = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("unknown panic");
            let message = format!("job panicked: {reason}");
            Ran::failed(reserved_failure_body("internal", &message), false)
        });
    if let Some(tracer) = &shared.tracer {
        trace_job(tracer, request, submitted, taken, ran.extraction.as_ref());
    }
    let metrics = &shared.metrics;
    if let Some(extraction) = &ran.extraction {
        metrics.observe_stages(&extraction.stages);
    }
    if ran.cacheable {
        shared.cache.insert(
            request.fingerprint,
            &request.canonical,
            crate::cache::CachedResult {
                body: ran.finished.body.clone(),
                ok: ran.finished.ok,
            },
        );
        metrics.cache_entries.set(shared.cache.len() as u64);
    }
    if ran.finished.ok {
        metrics.jobs_completed.inc();
    } else {
        metrics.jobs_failed.inc();
    }
    metrics.job_latency.observe(submitted.elapsed());
    // Released before `finish` wakes anyone, so a waiter that sees the
    // job finished never sees it still counted as running.
    metrics.jobs_running.dec();
    shared.queue.finish(id, ran.finished);
}

/// Mints the worker-side spans for one traced job: `queue_wait`
/// (submit → a worker taking the job), `prepare` (take → extraction
/// start: scenario synthesis and source open; up to now for a job that
/// failed before extracting) and `extract` (the extraction wall time).
/// The three tile without overlap. One child span per extraction stage
/// is laid out sequentially inside `extract`; stage spans are
/// re-exported from the Observer-derived [`StageTiming`]s each report
/// carries — the pipeline itself is not re-instrumented. Instants map
/// to wall-clock microseconds through one "now" reading.
fn trace_job(
    tracer: &Tracer,
    request: &JobRequest,
    submitted: Instant,
    taken: Instant,
    extraction: Option<&Extraction>,
) {
    let Some(ctx) = request.trace else {
        return;
    };
    let trace = TraceId(ctx.trace);
    let parent = Some(SpanId(ctx.span));
    let now = Instant::now();
    let since_submit = |t: Instant| t.saturating_duration_since(submitted).as_micros() as u64;
    let submit_us = fastvg_obs::unix_us().saturating_sub(since_submit(now));
    let queue_us = since_submit(taken);
    let start_us = since_submit(extraction.map_or(now, |e| e.started));
    tracer.emit(trace, parent, "queue_wait", submit_us, queue_us, Vec::new());
    tracer.emit(
        trace,
        parent,
        "prepare",
        submit_us + queue_us,
        start_us.saturating_sub(queue_us),
        Vec::new(),
    );
    let Some(extraction) = extraction else {
        return;
    };
    let extract_start_us = submit_us + start_us;
    let extract = tracer.emit(
        trace,
        parent,
        "extract",
        extract_start_us,
        extraction.wall.as_micros() as u64,
        vec![("method", request.method.wire_name().to_string())],
    );
    let mut cursor = extract_start_us;
    for timing in &extraction.stages {
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
        let ids = [q.take().unwrap().0, q.take().unwrap().0];
        assert_eq!(ids, [a, b], "arrival order preserved");
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
        let (taken, _, _) = q.take().unwrap();
        q.finish(
            taken,
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
            std::thread::spawn(move || q.take())
        };
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_finished(9999, Duration::from_secs(30)))
        };
        // Unknown job id returns immediately.
        assert!(waiter.join().unwrap().is_none());
        // take first drains the one pending job…
        assert!(blocked.join().unwrap().is_some());
        // …then stop() makes the next take return None.
        q.stop();
        assert!(q.take().is_none());
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
        let (taken, _, _) = q.take().unwrap();
        q.finish(
            taken,
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

    /// A running set of workers over fresh shared state.
    struct Daemon {
        queue: Arc<JobQueue>,
        cache: Arc<ResultCache>,
        metrics: Arc<Metrics>,
        workers: Vec<JoinHandle<()>>,
    }

    impl Daemon {
        fn start(jobs: usize) -> Self {
            let queue = Arc::new(JobQueue::new(16, 64));
            let cache = Arc::new(ResultCache::new(CacheConfig::default()));
            let metrics = Arc::new(Metrics::default());
            let workers = spawn_workers(
                jobs,
                Arc::clone(&queue),
                Arc::clone(&cache),
                Arc::clone(&metrics),
                None,
            );
            Self {
                queue,
                cache,
                metrics,
                workers,
            }
        }

        fn run(&self, request: JobRequest) -> FinishedJob {
            let id = self.queue.submit(request).unwrap();
            self.queue
                .wait_finished(id, Duration::from_secs(60))
                .expect("job finishes")
        }

        fn stop(self) {
            self.queue.stop();
            for worker in self.workers {
                worker.join().unwrap();
            }
        }
    }

    /// A test backend whose `open` misbehaves on cue.
    enum Misbehaving {
        Panics,
        Fails,
        /// Signals `entered`, then blocks until `release` fires.
        Blocks {
            entered: Mutex<std::sync::mpsc::Sender<()>>,
            release: Mutex<std::sync::mpsc::Receiver<()>>,
        },
    }

    impl SourceBackend for Misbehaving {
        fn scheme(&self) -> &str {
            "test"
        }

        fn describe(&self) -> String {
            "test".to_string()
        }

        fn open(
            &self,
            scenario: SourceScenario,
        ) -> Result<qd_instrument::BoxedSource, qd_instrument::BackendError> {
            match self {
                Misbehaving::Panics => panic!("test backend panics on open"),
                Misbehaving::Fails => Err(qd_instrument::BackendError::InvalidSpec {
                    message: "test backend refuses to open".into(),
                }),
                Misbehaving::Blocks { entered, release } => {
                    entered.lock().unwrap().send(()).unwrap();
                    release.lock().unwrap().recv().unwrap();
                    qd_instrument::SimBackend.open(scenario)
                }
            }
        }
    }

    fn through(seed: u64, backend: Misbehaving) -> JobRequest {
        JobRequest {
            backend: Arc::new(backend),
            ..request(seed)
        }
    }

    fn category(finished: &FinishedJob) -> String {
        let doc = Json::parse(std::str::from_utf8(&finished.body).unwrap().trim()).unwrap();
        let error = doc.get("error").expect("failure document");
        error
            .get("category")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn workers_drain_and_cache() {
        let daemon = Daemon::start(2);
        let ids: Vec<u64> = (0..3)
            .map(|k| daemon.queue.submit(request(100 + k)).unwrap())
            .collect();
        let outcomes: Vec<FinishedJob> = ids
            .iter()
            .map(|&id| {
                daemon
                    .queue
                    .wait_finished(id, Duration::from_secs(60))
                    .expect("job finishes")
            })
            .collect();
        for outcome in &outcomes {
            assert!(outcome.ok, "clean spec must extract");
            assert!(outcome.body.ends_with(b"\n"), "newline framing");
        }
        assert_eq!(daemon.metrics.jobs_completed.get(), 3);
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        assert_eq!(daemon.cache.len(), 3, "every outcome cached");

        // The cache now replays the exact bytes, outcome attached.
        let req = request(100);
        let cached = daemon.cache.get(req.fingerprint, &req.canonical).unwrap();
        assert_eq!(cached.body, outcomes[0].body);
        assert!(cached.ok);
        daemon.stop();
    }

    #[test]
    fn execute_is_deterministic_except_timing() {
        // Same request through the pure part twice: slopes identical
        // (timing fields differ, so compare the parsed reports).
        let req = request(5);
        let (a, b) = (execute(1, &req), execute(2, &req));
        let parse = |ran: &Ran| {
            assert!(ran.cacheable && ran.extraction.is_some());
            let doc = Json::parse(std::str::from_utf8(&ran.finished.body).unwrap().trim()).unwrap();
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
        let daemon = Daemon::start(1);
        // A spec the generator rejects: lever arms that make the device
        // model singular.
        let mut spec = BenchmarkSpec::clean(0, 64);
        spec.lever_arms = [[0.01, 0.01], [0.01, 0.01]];
        let canonical = spec.to_json().canonical();
        let req = JobRequest {
            fingerprint: fastvg_wire::fnv1a64(canonical.as_bytes()),
            canonical,
            scenario: Scenario::Spec(spec),
            ..request(0)
        };
        let finished = daemon.run(req.clone());
        assert!(!finished.ok);
        assert_eq!(category(&finished), "request");
        assert_eq!(daemon.metrics.jobs_failed.get(), 1);
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        assert!(
            daemon.cache.get(req.fingerprint, &req.canonical).is_some(),
            "realization failures are deterministic, so cached"
        );
        daemon.stop();
    }

    #[test]
    fn open_failures_finish_uncached() {
        let daemon = Daemon::start(1);
        let req = through(21, Misbehaving::Fails);
        let finished = daemon.run(req.clone());
        assert!(!finished.ok);
        assert_eq!(category(&finished), "request");
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        assert!(daemon.cache.get(req.fingerprint, &req.canonical).is_none());
        daemon.stop();
    }

    #[test]
    fn a_panicking_job_finishes_internal_and_the_worker_keeps_serving() {
        let daemon = Daemon::start(1);
        let req = through(31, Misbehaving::Panics);
        let finished = daemon.run(req.clone());
        assert!(!finished.ok);
        assert_eq!(category(&finished), "internal");
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        assert!(
            daemon.cache.get(req.fingerprint, &req.canonical).is_none(),
            "a panic is not a property of the request"
        );
        // The only worker survived and serves the next job.
        assert!(daemon.run(request(32)).ok);
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        daemon.stop();
    }

    #[test]
    fn a_blocked_job_does_not_hold_back_later_jobs() {
        let daemon = Daemon::start(2);
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let a = daemon
            .queue
            .submit(through(
                41,
                Misbehaving::Blocks {
                    entered: Mutex::new(entered_tx),
                    release: Mutex::new(release_rx),
                },
            ))
            .unwrap();
        entered
            .recv_timeout(Duration::from_secs(60))
            .expect("job A reaches open");

        // B finishes on the other worker while A is still inside open.
        assert!(daemon.run(request(42)).ok);
        assert!(matches!(daemon.queue.status(a), Some(JobState::Running)));
        assert_eq!(daemon.metrics.jobs_running.get(), 1);

        release.send(()).unwrap();
        let finished = daemon
            .queue
            .wait_finished(a, Duration::from_secs(60))
            .expect("A finishes once released");
        assert!(finished.ok);
        assert_eq!(daemon.metrics.jobs_running.get(), 0);
        daemon.stop();
    }
}
