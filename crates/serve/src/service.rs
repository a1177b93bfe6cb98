//! The extraction service: routes, request validation, cache fronting,
//! and daemon lifecycle.
//!
//! [`ExtractService`] is the [`Handler`] behind the four routes of
//! `docs/PROTOCOL.md` (`POST /extract`, `GET /jobs/<id>`,
//! `GET /healthz`, `GET /metrics`, plus the administrative
//! `POST /shutdown`). [`start`] assembles the full daemon: HTTP server,
//! extraction workers, result cache and metrics, returned as a
//! [`ServiceHandle`] whose [`ServiceHandle::shutdown`] /
//! [`ServiceHandle::join`] implement the graceful stop.
//!
//! `?wait` requests never block a thread: the handler returns
//! [`Outcome::Pending`] and completes the connection from the job
//! queue's finish notification, with the reactor's timer wheel firing
//! the `202 queued` fallback if the job outlives
//! [`ServeConfig::wait_timeout`].

use crate::cache::{CacheConfig, CachedResult, ResultCache};
use crate::http::{
    deferred, Handler, HttpConfig, HttpServer, Outcome, Request, Response, ServerStats,
    ShutdownHandle,
};
use crate::metrics::Metrics;
use crate::queue::{
    request_failure_body, spawn_workers, FinishedJob, JobQueue, JobRequest, JobState, Scenario,
};
use fastvg_core::report::Method;
use fastvg_obs::{ActiveSpan, FlusherHandle, SpanId, TraceId, Tracer};
use fastvg_wire::{request_canonical, request_fingerprint, Json, TraceContext, TRACE_HEADER};
use qd_csd::{Csd, VoltageGrid};
use qd_dataset::wire::MAX_SPEC_SIZE;
use qd_dataset::BenchmarkSpec;
use qd_instrument::{BackendError, BackendRegistry, SourceBackend};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Largest dwell a request-supplied `throttled:<dwell>` backend may ask
/// for — the paper's physical 50 ms. The *operator's* `--backend` flag
/// is not capped (their machine, their dwell); this bound only stops a
/// hostile request from parking extraction workers.
pub const REQUEST_MAX_DWELL: Duration = Duration::from_millis(50);

/// The backend schemes a request's `"backend"` member may use. Tape
/// schemes (`record`, `replay`) touch the server's filesystem and stay
/// operator-only; `hwsim` is wire-safe because its dwell is virtual
/// accounting (no wall-clock sleep) and every profile knob is
/// range-checked at parse time.
pub const REQUEST_BACKEND_SCHEMES: [&str; 3] = ["sim", "throttled", "hwsim"];

/// Daemon configuration.
///
/// Construct via [`ServeConfig::builder`] to get hostile values rejected
/// up front, or fill the fields directly and let [`start`] validate.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` for an ephemeral port).
    pub addr: String,
    /// Concurrent extraction workers (`0` = one per core).
    pub extract_jobs: usize,
    /// Maximum pending jobs before `POST /extract` answers 503.
    pub queue_capacity: usize,
    /// Result-cache sizing.
    pub cache: CacheConfig,
    /// Maximum request body bytes (inline grids are the big ones).
    pub max_body_bytes: usize,
    /// How long `?wait` requests may stay pending before the reactor
    /// answers `202` with the job id for polling.
    pub wait_timeout: Duration,
    /// Maximum concurrently open connections; excess accepts get an
    /// immediate `503` and a close.
    pub max_connections: usize,
    /// How long one request (head + body) may take to arrive once its
    /// first byte is in — the anti-slowloris bound.
    pub request_read_deadline: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server closes it silently.
    pub idle_timeout: Duration,
    /// How long graceful shutdown waits for in-flight connections.
    pub drain_deadline: Duration,
    /// The probe backend scenarios are measured through when a request
    /// does not pick its own (a [`BackendRegistry::standard`] spec
    /// string; operator-supplied, so tape schemes are allowed here).
    pub backend: String,
    /// Whether the fleet cache-peering endpoints
    /// (`GET`/`PUT /cache/<fingerprint>`) are served. On by default;
    /// standalone daemons exposed to untrusted clients may turn it off
    /// (`PUT` lets a peer seed arbitrary cache entries).
    pub cache_peering: bool,
    /// Where to export finished spans as newline-JSON (`--trace-out`).
    /// Setting it also makes the daemon trace *every* request; without
    /// it only requests carrying an `x-fastvg-trace` header are traced
    /// (and their spans reach `GET /trace/recent` only).
    pub trace_out: Option<PathBuf>,
    /// Fixed span/trace id seed (`--trace-seed`) for reproducible id
    /// sequences in replay tests; `None` seeds from entropy.
    pub trace_seed: Option<u64>,
    /// Emit a rate-limited structured log line (JSON on stderr) for any
    /// request slower than this (`--slow-ms`). `None` (default) is off.
    pub slow_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8737".to_string(),
            extract_jobs: 0,
            queue_capacity: 256,
            cache: CacheConfig::default(),
            max_body_bytes: 8 * 1024 * 1024,
            wait_timeout: Duration::from_secs(60),
            max_connections: 4096,
            request_read_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(30),
            backend: "sim".to_string(),
            cache_peering: true,
            trace_out: None,
            trace_seed: None,
            slow_threshold: None,
        }
    }
}

impl ServeConfig {
    /// A fluent builder over the defaults, mirroring
    /// `fastvg_core::Pipeline`.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Checks every field against its sane range; [`start`] runs this,
    /// and [`ServeConfigBuilder::build`] runs it early.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const HOUR: Duration = Duration::from_secs(3600);
        fn bounded(
            field: &'static str,
            value: usize,
            range: std::ops::RangeInclusive<usize>,
        ) -> Result<(), ConfigError> {
            if range.contains(&value) {
                Ok(())
            } else {
                Err(ConfigError::new(
                    field,
                    format!("{value} is outside {}..={}", range.start(), range.end()),
                ))
            }
        }
        fn duration(field: &'static str, value: Duration) -> Result<(), ConfigError> {
            if value.is_zero() || value > HOUR {
                Err(ConfigError::new(
                    field,
                    format!("{value:?} is outside (0, 1h]"),
                ))
            } else {
                Ok(())
            }
        }
        if self.addr.is_empty() || !self.addr.contains(':') {
            return Err(ConfigError::new(
                "addr",
                format!("{:?} is not a host:port address", self.addr),
            ));
        }
        bounded("queue_capacity", self.queue_capacity, 1..=1_000_000)?;
        bounded("extract_jobs", self.extract_jobs, 0..=1024)?;
        bounded("max_body_bytes", self.max_body_bytes, 1..=(1 << 30))?;
        bounded("max_connections", self.max_connections, 1..=1_000_000)?;
        bounded("cache.shards", self.cache.shards, 1..=4096)?;
        duration("wait_timeout", self.wait_timeout)?;
        duration("request_read_deadline", self.request_read_deadline)?;
        duration("idle_timeout", self.idle_timeout)?;
        duration("drain_deadline", self.drain_deadline)?;
        if let Some(slow) = self.slow_threshold {
            duration("slow_threshold", slow)?;
        }
        BackendRegistry::standard()
            .resolve(&self.backend)
            .map_err(|e| ConfigError::new("backend", e.to_string()))?;
        Ok(())
    }
}

/// Builder for [`ServeConfig`] — every setter is fluent, and
/// [`ServeConfigBuilder::build`] rejects hostile values at construction
/// instead of at [`start`].
#[derive(Debug, Clone)]
#[must_use = "the builder does nothing until build() is called"]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bind address (`"127.0.0.1:0"` for an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Concurrent extraction workers (`0` = one per core).
    pub fn extract_jobs(mut self, jobs: usize) -> Self {
        self.config.extract_jobs = jobs;
        self
    }

    /// Maximum pending jobs before `POST /extract` answers 503.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Result-cache sizing.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Maximum request body bytes.
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.config.max_body_bytes = bytes;
        self
    }

    /// How long `?wait` requests may stay pending before the `202`
    /// fallback.
    pub fn wait_timeout(mut self, timeout: Duration) -> Self {
        self.config.wait_timeout = timeout;
        self
    }

    /// Maximum concurrently open connections.
    pub fn max_connections(mut self, connections: usize) -> Self {
        self.config.max_connections = connections;
        self
    }

    /// Per-request read deadline (anti-slowloris).
    pub fn request_read_deadline(mut self, deadline: Duration) -> Self {
        self.config.request_read_deadline = deadline;
        self
    }

    /// Keep-alive idle timeout between requests.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Graceful-shutdown drain deadline.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.config.drain_deadline = deadline;
        self
    }

    /// Default probe backend spec (operator-side, tape schemes allowed).
    pub fn backend(mut self, spec: impl Into<String>) -> Self {
        self.config.backend = spec.into();
        self
    }

    /// Whether to serve the fleet cache-peering endpoints
    /// (`GET`/`PUT /cache/<fingerprint>`).
    pub fn cache_peering(mut self, enabled: bool) -> Self {
        self.config.cache_peering = enabled;
        self
    }

    /// Newline-JSON span export path (also turns on tracing of every
    /// request, not only those carrying `x-fastvg-trace`).
    pub fn trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace_out = Some(path.into());
        self
    }

    /// Fixed trace/span id seed for reproducible replay tests.
    pub fn trace_seed(mut self, seed: u64) -> Self {
        self.config.trace_seed = Some(seed);
        self
    }

    /// Slow-request log threshold (off by default).
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.config.slow_threshold = Some(threshold);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range field as a [`ConfigError`].
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A rejected [`ServeConfig`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    message: String,
}

impl ConfigError {
    fn new(field: &'static str, message: impl Into<String>) -> Self {
        Self {
            field,
            message: message.into(),
        }
    }

    /// The offending `ServeConfig` field name.
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ServeConfig.{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Errors starting the daemon.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The configured default backend spec did not resolve.
    Backend(BackendError),
    /// A configuration field was out of range.
    Config(ConfigError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service socket error: {e}"),
            ServeError::Backend(e) => write!(f, "service backend error: {e}"),
            ServeError::Config(e) => write!(f, "service config error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Backend(e) => Some(e),
            ServeError::Config(e) => Some(e),
        }
    }
}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> Self {
        ServeError::Backend(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

/// The request handler, shared with the reactor thread.
pub struct ExtractService {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    wait_timeout: Duration,
    max_connections: usize,
    cache_peering: bool,
    shutdown: OnceLock<ShutdownHandle>,
    server_stats: OnceLock<Arc<ServerStats>>,
    started: Instant,
    parser: ExtractParser,
    tracer: Arc<Tracer>,
    /// Trace every request (true when `trace_out` is configured), not
    /// only those that arrive with an `x-fastvg-trace` header.
    trace_all: bool,
    slow: Option<Arc<SlowLog>>,
}

/// Rate-limited slow-request logger: at most one structured line per
/// second; requests suppressed in between are counted and reported on
/// the next line.
#[derive(Debug)]
struct SlowLog {
    threshold: Duration,
    last: Mutex<Option<Instant>>,
    suppressed: AtomicU64,
}

impl SlowLog {
    const MIN_GAP: Duration = Duration::from_secs(1);

    fn new(threshold: Duration) -> Self {
        Self {
            threshold,
            last: Mutex::new(None),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Logs one finished request if it crossed the threshold. The line
    /// is a single JSON object on stderr carrying the trace id (when
    /// the request was traced) and the top span name, so a waterfall
    /// can be pulled from the trace file by id.
    fn observe(&self, elapsed: Duration, outcome: &str, trace: Option<&str>) {
        if elapsed < self.threshold {
            return;
        }
        {
            let mut last = self.last.lock().expect("slow log poisoned");
            let now = Instant::now();
            if last.is_some_and(|at| now.duration_since(at) < Self::MIN_GAP) {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            *last = Some(now);
        }
        let suppressed = self.suppressed.swap(0, Ordering::Relaxed);
        let line = Json::object()
            .field("event", "slow_request")
            .field("top_span", "request")
            .field("route", "extract")
            .field("outcome", outcome)
            .field("dur_ms", Json::num(elapsed.as_secs_f64() * 1e3))
            .field(
                "threshold_ms",
                Json::num(self.threshold.as_secs_f64() * 1e3),
            )
            .field(
                "trace",
                match trace {
                    Some(hex) => Json::from(hex),
                    None => Json::Null,
                },
            )
            .field("suppressed", suppressed)
            .build()
            .dump();
        eprintln!("{line}");
    }
}

impl std::fmt::Debug for ExtractService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractService").finish_non_exhaustive()
    }
}

/// A protocol-level rejection: the HTTP status plus the message the
/// error document carries. Public so `fastvg-router` can run the
/// daemon's exact request validation up front and report the very same
/// errors without a round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The HTTP status to answer with (4xx/5xx).
    pub status: u16,
    /// Human-readable message for the error body.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for RequestError {}

/// Internal shorthand predating the public [`RequestError`] name.
type Rejection = RequestError;

fn reject(status: u16, message: impl Into<String>) -> RequestError {
    RequestError {
        status,
        message: message.into(),
    }
}

/// Parses and validates `POST /extract` requests into [`JobRequest`]s.
///
/// Split out of [`ExtractService`] so `fastvg-router` resolves the
/// *same* canonical fingerprint from the *same* bytes without running a
/// daemon: both sides build the envelope through
/// [`fastvg_wire::request_canonical`], so a request's ring position at
/// the router and its cache key at the daemon can never disagree —
/// provided both are configured with the same default backend spec.
pub struct ExtractParser {
    registry: BackendRegistry,
    default_backend: Arc<dyn SourceBackend>,
}

impl std::fmt::Debug for ExtractParser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractParser")
            .field("default_backend", &self.default_backend.describe())
            .finish_non_exhaustive()
    }
}

impl ExtractParser {
    /// A parser resolving requests against the standard backend registry,
    /// with `default_backend` (a spec string like `"sim"`) used when a
    /// request does not pick its own.
    ///
    /// # Errors
    ///
    /// Returns the [`BackendError`] when the default spec does not
    /// resolve.
    pub fn new(default_backend: &str) -> Result<Self, BackendError> {
        let registry = BackendRegistry::standard();
        let default_backend = registry.resolve(default_backend)?;
        Ok(Self {
            registry,
            default_backend,
        })
    }

    /// The backend registry requests resolve against.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The backend used when a request names none.
    pub fn default_backend(&self) -> &Arc<dyn SourceBackend> {
        &self.default_backend
    }

    /// Validates a request-supplied backend spec at the door: only
    /// [`REQUEST_BACKEND_SCHEMES`] are reachable over the wire, inner
    /// compositions (`+`) are refused, and throttle dwells are capped
    /// at [`REQUEST_MAX_DWELL`] so a hostile request cannot park the
    /// extraction workers.
    fn request_backend(&self, spec: &str) -> Result<Arc<dyn SourceBackend>, RequestError> {
        // One scheme parser everywhere: the registry's, not an ad-hoc
        // prefix match (which would let "sim extra" or " throttled"
        // disagree with what resolve() later sees).
        let (scheme, _) = BackendRegistry::split_spec(spec);
        if !REQUEST_BACKEND_SCHEMES.contains(&scheme) || spec.contains('+') {
            return Err(reject(
                400,
                format!(
                    "backend {spec:?} is not allowed over the wire \
                     (allowed: sim, throttled:<dwell>, hwsim:<profile>)"
                ),
            ));
        }
        let backend = self
            .registry
            .resolve(spec)
            .map_err(|e| reject(400, e.to_string()))?;
        if backend.dwell() > REQUEST_MAX_DWELL {
            return Err(reject(
                400,
                format!(
                    "requested dwell {:?} exceeds the {REQUEST_MAX_DWELL:?} cap",
                    backend.dwell()
                ),
            ));
        }
        Ok(backend)
    }
}

impl ExtractService {
    fn new(config: &ServeConfig) -> Result<Self, ServeError> {
        let tracer = Tracer::new(
            "daemon",
            config
                .trace_seed
                .unwrap_or_else(|| fastvg_obs::IdGen::from_entropy().next_id()),
        );
        if let Some(path) = &config.trace_out {
            tracer.set_file(path)?;
        }
        Ok(Self {
            queue: Arc::new(JobQueue::new(config.queue_capacity, 4096)),
            cache: Arc::new(ResultCache::new(config.cache)),
            metrics: Arc::new(Metrics::default()),
            wait_timeout: config.wait_timeout,
            max_connections: config.max_connections,
            cache_peering: config.cache_peering,
            shutdown: OnceLock::new(),
            server_stats: OnceLock::new(),
            started: Instant::now(),
            parser: ExtractParser::new(&config.backend)?,
            tracer,
            trace_all: config.trace_out.is_some(),
            slow: config.slow_threshold.map(|t| Arc::new(SlowLog::new(t))),
        })
    }

    /// The service telemetry (shared with the extraction workers).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The daemon's tracer (span source for `/trace/recent` and the
    /// `--trace-out` export).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    fn error_response(&self, rejection: &RequestError) -> Response {
        if rejection.status >= 500 {
            self.metrics.http_5xx.inc();
        } else {
            self.metrics.http_4xx.inc();
        }
        Response::json(rejection.status, request_failure_body(&rejection.message))
    }
}

impl ExtractParser {
    /// Parses and validates a `POST /extract` body into a [`JobRequest`]
    /// plus its `wait` flag — the daemon's admission path, also run by
    /// `fastvg-router` to place requests on its consistent-hash ring.
    ///
    /// # Errors
    ///
    /// Returns the protocol [`RequestError`] for malformed or disallowed
    /// requests.
    pub fn parse(&self, request: &Request) -> Result<(JobRequest, bool), RequestError> {
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| reject(400, "body must be UTF-8 JSON"))?;
        let doc = Json::parse(text.trim_end_matches(['\r', '\n']))
            .map_err(|e| reject(400, format!("body is not valid JSON: {e}")))?;
        if doc.as_obj().is_none() {
            return Err(reject(400, "body must be a JSON object"));
        }

        let method = match doc.get("method") {
            None => Method::FastExtraction,
            Some(v) => v
                .as_str()
                .and_then(Method::from_wire_name)
                .ok_or_else(|| reject(400, "\"method\" must be fast|hough|tuned"))?,
        };
        let wait =
            request.query_flag("wait") || doc.get("wait").and_then(Json::as_bool).unwrap_or(false);
        let backend = match doc.get("backend") {
            None => Arc::clone(&self.default_backend),
            Some(v) => {
                let spec = v
                    .as_str()
                    .ok_or_else(|| reject(400, "\"backend\" must be a string"))?;
                self.request_backend(spec)?
            }
        };
        let seed = match doc.get("seed") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| reject(400, "\"seed\" must be a u64"))?,
            ),
        };

        let selectors = ["benchmark", "spec", "grid"]
            .iter()
            .filter(|k| doc.get(k).is_some())
            .count();
        if selectors != 1 {
            return Err(reject(
                400,
                "exactly one of \"benchmark\", \"spec\", \"grid\" is required",
            ));
        }

        let (scenario, scenario_json) = if let Some(v) = doc.get("benchmark") {
            let index = v
                .as_usize()
                .filter(|i| (1..=12).contains(i))
                .ok_or_else(|| reject(400, "\"benchmark\" must be 1..=12"))?;
            let mut spec = qd_dataset::paper_specs()
                .into_iter()
                .find(|s| s.index == index)
                .expect("paper suite has indices 1..=12");
            if let Some(seed) = seed {
                spec.seed = seed;
            }
            let json = spec.to_json();
            (Scenario::Spec(spec), json)
        } else if let Some(v) = doc.get("spec") {
            let mut spec = BenchmarkSpec::from_json(v).map_err(|e| reject(400, e.to_string()))?;
            if let Some(seed) = seed {
                spec.seed = seed;
            }
            let json = spec.to_json();
            (Scenario::Spec(spec), json)
        } else {
            let v = doc.get("grid").expect("selector counted");
            if seed.is_some() {
                return Err(reject(400, "\"seed\" does not apply to inline grids"));
            }
            let csd = parse_grid(v)?;
            let json = grid_canonical_json(&csd);
            (Scenario::Grid(Box::new(csd)), json)
        };

        // Fingerprint the *resolved* scenario: `{"benchmark": 3}` and the
        // equivalent full spec share a cache entry, and the backend
        // travels in canonical form so `throttled:1ms` and
        // `throttled:1000us` do too. The envelope itself lives in
        // `fastvg-wire` so the router's ring hashes the same bytes.
        let canonical = request_canonical(method.wire_name(), &backend.describe(), scenario_json);
        Ok((
            JobRequest {
                fingerprint: request_fingerprint(&canonical),
                canonical,
                scenario,
                method,
                backend,
                trace: None,
            },
            wait,
        ))
    }
}

/// Emits a child span of `span` that *ends now* and lasted `dur` — the
/// shape of every phase the handler measures after the fact (socket
/// read, body parse, response serialization).
fn emit_child(tracer: &Tracer, span: &ActiveSpan, name: &'static str, dur: Duration) {
    let ctx = span.context();
    let dur_us = dur.as_micros() as u64;
    tracer.emit(
        ctx.trace,
        Some(ctx.span),
        name,
        fastvg_obs::unix_us().saturating_sub(dur_us),
        dur_us,
        Vec::new(),
    );
}

impl ExtractService {
    /// Opens the daemon's request span for one `/extract` request —
    /// parented to the incoming `x-fastvg-trace` context when present,
    /// a fresh root otherwise — or `None` when the request is untraced
    /// (no header and no `--trace-out`). The span is backdated to the
    /// first byte and gets a `read` child covering the socket read.
    fn request_span(&self, request: &Request) -> Option<ActiveSpan> {
        let incoming = request.header(TRACE_HEADER).and_then(TraceContext::parse);
        if incoming.is_none() && !self.trace_all {
            return None;
        }
        let mut span = match incoming {
            Some(ctx) => self
                .tracer
                .start(TraceId(ctx.trace), Some(SpanId(ctx.span)), "request"),
            None => self.tracer.root("request"),
        };
        let read = Duration::from_micros(request.read_us);
        if !read.is_zero() {
            span.backdate(Instant::now() - read);
        }
        emit_child(&self.tracer, &span, "read", read);
        Some(span)
    }

    /// Closes a request span (attaching the outcome) and runs the
    /// slow-request check — the one exit point every `/extract` answer
    /// funnels through, inline or deferred.
    fn finish_request(&self, span: Option<ActiveSpan>, started: Instant, outcome: &'static str) {
        let elapsed = started.elapsed();
        let trace_hex = span.as_ref().map(|s| s.context().trace.to_hex());
        if let Some(mut span) = span {
            span.attr("outcome", outcome);
            span.finish();
        }
        if let Some(slow) = &self.slow {
            slow.observe(elapsed, outcome, trace_hex.as_deref());
        }
    }

    fn handle_extract(&self, request: &Request) -> Outcome {
        self.metrics.requests_extract.inc();
        let started = Instant::now();
        let span = self.request_span(request);
        let parse_started = Instant::now();
        let parsed = self.parser.parse(request);
        if let Some(span) = &span {
            emit_child(&self.tracer, span, "parse", parse_started.elapsed());
        }
        let outcome = match parsed {
            Err(rejection) => {
                self.finish_request(span, started, "rejected");
                Outcome::Ready(self.error_response(&rejection))
            }
            Ok((mut job, wait)) => {
                if let Some(span) = &span {
                    let ctx = span.context();
                    job.trace = Some(TraceContext {
                        trace: ctx.trace.0,
                        span: ctx.span.0,
                    });
                }
                self.dispatch(job, wait, started, span)
            }
        };
        // Pending outcomes observe their latency when the completion
        // fires; everything answered inline observes here.
        if matches!(outcome, Outcome::Ready(_)) {
            self.metrics.request_latency.observe(started.elapsed());
        }
        outcome
    }

    fn dispatch(
        &self,
        job: JobRequest,
        wait: bool,
        started: Instant,
        span: Option<ActiveSpan>,
    ) -> Outcome {
        // Cache front: a hit never touches the queue or the pool, and it
        // replays the stored bytes verbatim (outcome flag travels with
        // the entry — it is never re-derived from the bytes).
        if let Some(cached) = self.cache.get(job.fingerprint, &job.canonical) {
            self.metrics.cache_hits.inc();
            let finished = FinishedJob {
                ok: cached.ok,
                cache_hit: true,
                body: cached.body,
            };
            let status = finished.status_name();
            let id = self.queue.insert_finished(finished.clone());
            let respond_started = Instant::now();
            let response = if wait {
                finished_response(id, &finished, "hit")
            } else {
                job_status_response(202, id, status, true)
            };
            if let Some(span) = &span {
                emit_child(&self.tracer, span, "respond", respond_started.elapsed());
            }
            self.finish_request(span, started, "cache_hit");
            return Outcome::Ready(response);
        }
        self.metrics.cache_misses.inc();

        let id = match self.queue.submit(job) {
            Ok(id) => id,
            Err(_) => {
                self.metrics.queue_rejected.inc();
                self.finish_request(span, started, "queue_full");
                return Outcome::Ready(self.error_response(&reject(503, "job queue at capacity")));
            }
        };
        self.metrics.jobs_submitted.inc();

        if !wait {
            // The job's queue-wait/prepare/extract spans still parent to
            // this request span by id after it closes — links are by id,
            // not by lifetime.
            self.finish_request(span, started, "queued");
            return Outcome::Ready(job_status_response(202, id, "queued", false));
        }

        // `?wait`: park the connection, not a thread. The queue's finish
        // notification completes it through the reactor; if the job is
        // slower than `wait_timeout`, the reactor's timer wheel answers
        // `202 queued` instead and the (eventual) completion is dropped.
        let (deferred, completer) = deferred();
        let metrics = Arc::clone(&self.metrics);
        let tracer = Arc::clone(&self.tracer);
        let slow = self.slow.clone();
        self.queue.on_finished(
            id,
            Box::new(move |finished| {
                metrics.request_latency.observe(started.elapsed());
                let respond_started = Instant::now();
                let (response, outcome) = match finished {
                    Some(finished) => (finished_response(id, &finished, "miss"), "done"),
                    // Queue stopped before the job ran: hand back the id
                    // so the client can still poll a draining daemon.
                    None => (job_status_response(202, id, "queued", false), "stopped"),
                };
                let trace_hex = span.as_ref().map(|s| s.context().trace.to_hex());
                if let Some(mut span) = span {
                    emit_child(&tracer, &span, "respond", respond_started.elapsed());
                    span.attr("outcome", outcome);
                    span.finish();
                }
                if let Some(slow) = &slow {
                    slow.observe(started.elapsed(), outcome, trace_hex.as_deref());
                }
                completer.complete(response);
            }),
        );
        Outcome::Pending(deferred.with_fallback(
            Instant::now() + self.wait_timeout,
            job_status_response(202, id, "queued", false),
        ))
    }

    fn handle_job(&self, id_text: &str) -> Response {
        self.metrics.requests_jobs.inc();
        let Ok(id) = id_text.parse::<u64>() else {
            return self.error_response(&reject(400, "job id must be an integer"));
        };
        match self.queue.status(id) {
            None => self.error_response(&reject(404, "unknown job id")),
            Some(JobState::Queued) => job_status_response(200, id, "queued", false),
            Some(JobState::Running) => job_status_response(200, id, "running", false),
            Some(JobState::Finished(finished)) => finished_response(
                id,
                &finished,
                if finished.cache_hit { "hit" } else { "miss" },
            ),
        }
    }

    fn handle_healthz(&self) -> Response {
        self.metrics.requests_healthz.inc();
        let connections = self
            .server_stats
            .get()
            .map(|stats| stats.open())
            .unwrap_or(0);
        let mut body = Json::object()
            .field("ok", true)
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("git", env!("FASTVG_GIT"))
            .field("backend", self.parser.default_backend().describe())
            .field(
                "backends",
                self.parser
                    .registry()
                    .schemes()
                    .iter()
                    .map(|s| Json::from(*s))
                    .collect::<Vec<_>>(),
            )
            .field(
                "request_backends",
                REQUEST_BACKEND_SCHEMES
                    .iter()
                    .map(|s| Json::from(*s))
                    .collect::<Vec<_>>(),
            )
            .field("uptime_s", Json::num(self.started.elapsed().as_secs_f64()))
            .field("queue_depth", self.queue.depth())
            .field("cache_entries", self.cache.len())
            .field("cache_peering", self.cache_peering)
            .field("connections_open", connections)
            .field("max_connections", self.max_connections)
            .build()
            .dump();
        body.push('\n');
        Response::json(200, body)
    }

    fn handle_metrics(&self) -> Response {
        self.metrics.requests_metrics.inc();
        self.metrics.queue_depth.set(self.queue.depth() as u64);
        let mut text = self.metrics.render();
        crate::metrics::render_build_info(&mut text, env!("CARGO_PKG_VERSION"), env!("FASTVG_GIT"));
        crate::metrics::family(
            &mut text,
            "fastvg_trace_spans_dropped_total",
            "counter",
            "Spans dropped on span-collector overflow.",
        );
        text.push_str(&format!(
            "fastvg_trace_spans_dropped_total {}\n",
            self.tracer.dropped()
        ));
        if let Some(stats) = self.server_stats.get() {
            crate::metrics::family(
                &mut text,
                "fastvg_connections_open",
                "gauge",
                "Connections currently open on the reactor.",
            );
            text.push_str(&format!("fastvg_connections_open {}\n", stats.open()));
            crate::metrics::family(
                &mut text,
                "fastvg_connections_total",
                "counter",
                "Connection lifecycle events, by kind.",
            );
            for (event, value) in [
                ("accepted", stats.accepted()),
                ("rejected", stats.rejected()),
                ("idle_closed", stats.idle_closed()),
                ("read_timeout", stats.request_timeouts()),
            ] {
                text.push_str(&format!(
                    "fastvg_connections_total{{event=\"{event}\"}} {value}\n"
                ));
            }
        }
        Response::text(200, text)
    }

    /// `GET /trace/recent` — the last few hundred finished spans as
    /// newline-JSON, for debugging without a `--trace-out` file.
    fn handle_trace_recent(&self) -> Response {
        let mut body = self.tracer.recent().join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        Response::text(200, body)
    }

    fn handle_shutdown(&self) -> Response {
        self.queue.stop();
        if let Some(handle) = self.shutdown.get() {
            handle.shutdown();
        }
        Response::json(202, "{\"ok\":true,\"status\":\"stopping\"}\n")
    }

    /// `GET /cache/<fingerprint>` — the cache-peering probe: answers the
    /// stored result document (as a regular finished-job response, so a
    /// router can relay it verbatim) or `404` without touching the
    /// queue or the extraction pool. The optional request body carries
    /// the canonical key; when present the entry must match it exactly
    /// (fingerprints may collide), when absent the fingerprint is
    /// trusted as-is (debugging convenience).
    fn handle_cache_get(&self, fp_text: &str, request: &Request) -> Response {
        let Ok(fingerprint) = fp_text.parse::<u64>() else {
            return self.error_response(&reject(400, "cache fingerprint must be a u64"));
        };
        let cached = if request.body.is_empty() {
            self.cache.peek(fingerprint).map(|(_, result)| result)
        } else {
            match std::str::from_utf8(&request.body) {
                Err(_) => {
                    return self.error_response(&reject(400, "canonical key must be UTF-8"));
                }
                Ok(key) => self
                    .cache
                    .get(fingerprint, key.trim_end_matches(['\r', '\n'])),
            }
        };
        match cached {
            None => {
                self.metrics.cache_peer_misses.inc();
                self.error_response(&reject(404, "no cache entry for this fingerprint"))
            }
            Some(cached) => {
                self.metrics.cache_peer_hits.inc();
                let finished = FinishedJob {
                    ok: cached.ok,
                    cache_hit: true,
                    body: cached.body,
                };
                let id = self.queue.insert_finished(finished.clone());
                finished_response(id, &finished, "hit")
            }
        }
    }

    /// `PUT /cache/<fingerprint>` — cache seeding, the warm half of
    /// peering: a router that found the entry on a sibling shard plants
    /// it here so the owner answers directly from then on. The body is
    /// `{"key": <canonical>, "ok": <bool>, "body": <result document>}`;
    /// the fingerprint must be [`request_fingerprint`] of `key`, and the
    /// stored bytes are exactly the `body` string (byte-identity is the
    /// whole point of peering).
    fn handle_cache_put(&self, fp_text: &str, request: &Request) -> Response {
        let Ok(fingerprint) = fp_text.parse::<u64>() else {
            return self.error_response(&reject(400, "cache fingerprint must be a u64"));
        };
        let doc = match std::str::from_utf8(&request.body)
            .map_err(|_| ())
            .and_then(|text| Json::parse(text.trim_end_matches(['\r', '\n'])).map_err(|_| ()))
        {
            Err(()) => {
                return self.error_response(&reject(400, "seed body must be UTF-8 JSON"));
            }
            Ok(doc) => doc,
        };
        let Some(key) = doc.get("key").and_then(Json::as_str) else {
            return self.error_response(&reject(400, "seed \"key\" must be a string"));
        };
        let Some(ok) = doc.get("ok").and_then(Json::as_bool) else {
            return self.error_response(&reject(400, "seed \"ok\" must be a bool"));
        };
        let Some(body) = doc.get("body").and_then(Json::as_str) else {
            return self.error_response(&reject(400, "seed \"body\" must be a string"));
        };
        if request_fingerprint(key) != fingerprint {
            return self
                .error_response(&reject(400, "fingerprint does not match the canonical key"));
        }
        if !body.ends_with('\n') {
            return self.error_response(&reject(
                400,
                "seed \"body\" must be a newline-framed document",
            ));
        }
        self.cache.insert(
            fingerprint,
            key,
            CachedResult {
                body: body.as_bytes().to_vec(),
                ok,
            },
        );
        self.metrics.cache_seeds.inc();
        self.metrics.cache_entries.set(self.cache.len() as u64);
        Response::json(200, "{\"ok\":true,\"seeded\":true}\n")
    }
}

/// The `200` body + headers of a finished job.
fn finished_response(id: u64, finished: &FinishedJob, cache: &str) -> Response {
    Response::json(200, finished.body.clone())
        .with_header("x-fastvg-job", id.to_string())
        .with_header("x-fastvg-cache", cache)
        .with_header("x-fastvg-status", finished.status_name())
}

/// The `{"job":…,"status":…,"cache":…}` body for queued/running answers.
fn job_status_response(status: u16, id: u64, state: &str, cache: bool) -> Response {
    let mut body = Json::object()
        .field("job", id)
        .field("status", state)
        .field("cache", cache)
        .build()
        .dump();
    body.push('\n');
    Response::json(status, body).with_header("x-fastvg-job", id.to_string())
}

impl Handler for ExtractService {
    fn handle(&self, request: &Request) -> Outcome {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/extract") => self.handle_extract(request),
            ("GET", "/healthz") => Outcome::Ready(self.handle_healthz()),
            ("GET", "/metrics") => Outcome::Ready(self.handle_metrics()),
            ("GET", "/trace/recent") => Outcome::Ready(self.handle_trace_recent()),
            ("POST", "/shutdown") => Outcome::Ready(self.handle_shutdown()),
            (method, path) => {
                if let Some(id) = path.strip_prefix("/jobs/") {
                    if method == "GET" {
                        return Outcome::Ready(self.handle_job(id));
                    }
                }
                if let Some(fp) = path.strip_prefix("/cache/") {
                    // The peering surface is opt-out: with peering
                    // disabled the routes simply do not exist.
                    if self.cache_peering {
                        match method {
                            "GET" => return Outcome::Ready(self.handle_cache_get(fp, request)),
                            "PUT" => return Outcome::Ready(self.handle_cache_put(fp, request)),
                            _ => {}
                        }
                    }
                }
                let known = matches!(
                    request.path.as_str(),
                    "/extract" | "/healthz" | "/metrics" | "/trace/recent" | "/shutdown"
                ) || request.path.starts_with("/jobs/")
                    || (self.cache_peering && request.path.starts_with("/cache/"));
                Outcome::Ready(if known {
                    self.error_response(&reject(405, format!("{method} not allowed here")))
                } else {
                    self.error_response(&reject(404, "no such route"))
                })
            }
        }
    }
}

/// Parses an inline grid scenario:
/// `{"x0":…,"y0":…,"delta":…,"width":…,"height":…,"data":[…]}` with
/// row-major `data` of `width × height` currents.
fn parse_grid(json: &Json) -> Result<Csd, Rejection> {
    if json.as_obj().is_none() {
        return Err(reject(400, "\"grid\" must be an object"));
    }
    let dim = |key: &str| -> Result<usize, Rejection> {
        json.get(key)
            .and_then(Json::as_usize)
            .filter(|&v| (1..=MAX_SPEC_SIZE).contains(&v))
            .ok_or_else(|| {
                reject(
                    400,
                    format!("grid \"{key}\" must be an integer in 1..={MAX_SPEC_SIZE}"),
                )
            })
    };
    let num = |key: &str| -> Result<f64, Rejection> {
        json.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| reject(400, format!("grid \"{key}\" must be a finite number")))
    };
    let width = dim("width")?;
    let height = dim("height")?;
    let grid = VoltageGrid::new(num("x0")?, num("y0")?, num("delta")?, width, height)
        .map_err(|e| reject(400, format!("bad grid geometry: {e}")))?;
    let data = json
        .get("data")
        .and_then(Json::as_arr)
        .ok_or_else(|| reject(400, "grid \"data\" must be an array"))?;
    if data.len() != width * height {
        return Err(reject(
            400,
            format!(
                "grid \"data\" must hold width*height = {} values, got {}",
                width * height,
                data.len()
            ),
        ));
    }
    let values: Vec<f64> = data
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| reject(400, "grid \"data\" entries must be finite numbers"))
        })
        .collect::<Result<_, _>>()?;
    Csd::from_data(grid, values).map_err(|e| reject(400, format!("bad grid data: {e}")))
}

/// The canonical JSON of an inline grid, rebuilt from the parsed diagram
/// so formatting differences in the request never split cache entries.
fn grid_canonical_json(csd: &Csd) -> Json {
    let grid = csd.grid();
    let (x0, y0) = grid.origin();
    Json::object()
        .field(
            "grid",
            Json::object()
                .field("x0", Json::num(x0))
                .field("y0", Json::num(y0))
                .field("delta", Json::num(grid.delta()))
                .field("width", grid.width())
                .field("height", grid.height())
                .field(
                    "data",
                    csd.data().iter().map(|&v| Json::num(v)).collect::<Vec<_>>(),
                )
                .build(),
        )
        .build()
}

/// A running daemon: HTTP server + extraction workers + shared state.
#[derive(Debug)]
pub struct ServiceHandle {
    service: Arc<ExtractService>,
    server: HttpServer,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Keeps the trace flusher thread alive for the daemon's lifetime;
    /// dropping the handle (when the daemon is torn down) performs the
    /// final flush to `--trace-out`.
    flusher: Option<FlusherHandle>,
}

impl ServiceHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared service (metrics access for tests and embedding).
    pub fn service(&self) -> &ExtractService {
        &self.service
    }

    /// The reactor's connection counters.
    pub fn server_stats(&self) -> Arc<ServerStats> {
        self.server.stats()
    }

    /// A clonable handle that stops the daemon from anywhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.server.shutdown_handle()
    }

    /// Requests a graceful stop: the queue admits no further jobs, the
    /// workers drain what is queued, in-flight requests finish, the
    /// acceptor closes.
    pub fn shutdown(&self) {
        self.service.queue.stop();
        self.server.shutdown_handle().shutdown();
    }

    /// Waits for the workers and the reactor to exit. Call
    /// [`ServiceHandle::shutdown`] first (or let `POST /shutdown` do it).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.server.join();
        // Stop the flusher last so spans minted during drain still land
        // in the trace file.
        drop(self.flusher.take());
    }
}

/// Boots the full daemon described by `config`.
///
/// # Errors
///
/// Returns [`ServeError::Config`] when a field is out of range,
/// [`ServeError::Io`] when the listen socket cannot be bound, or
/// [`ServeError::Backend`] when the configured default backend spec
/// does not resolve.
pub fn start(config: ServeConfig) -> Result<ServiceHandle, ServeError> {
    config.validate()?;
    let service = Arc::new(ExtractService::new(&config)?);

    // Bind before spawning the workers so a bind failure leaks nothing.
    let http = HttpConfig {
        max_connections: config.max_connections,
        max_body_bytes: config.max_body_bytes,
        request_read_deadline: config.request_read_deadline,
        idle_timeout: config.idle_timeout,
        drain_deadline: config.drain_deadline,
        ..HttpConfig::default()
    };
    let server = HttpServer::bind(&config.addr, Arc::clone(&service) as Arc<dyn Handler>, http)?;
    let _ = service.shutdown.set(server.shutdown_handle());
    let _ = service.server_stats.set(server.stats());

    let workers = spawn_workers(
        config.extract_jobs,
        Arc::clone(&service.queue),
        Arc::clone(&service.cache),
        Arc::clone(&service.metrics),
        Some(Arc::clone(&service.tracer)),
    );

    // A background flusher is only worth a thread when spans leave the
    // process; `/trace/recent` drains the collector on demand otherwise.
    let flusher = config
        .trace_out
        .is_some()
        .then(|| service.tracer.spawn_flusher(Duration::from_millis(50)));

    Ok(ServiceHandle {
        service,
        server,
        workers,
        flusher,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_sane_and_rejects_hostile() {
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .extract_jobs(2)
            .queue_capacity(64)
            .max_connections(512)
            .wait_timeout(Duration::from_secs(5))
            .request_read_deadline(Duration::from_secs(10))
            .idle_timeout(Duration::from_secs(3))
            .drain_deadline(Duration::from_secs(10))
            .backend("throttled:1ms")
            .build()
            .expect("sane config builds");
        assert_eq!(config.max_connections, 512);
        assert_eq!(config.backend, "throttled:1ms");

        let hostile: [(&str, ServeConfigBuilder); 5] = [
            ("addr", ServeConfig::builder().addr("")),
            ("queue_capacity", ServeConfig::builder().queue_capacity(0)),
            ("max_connections", ServeConfig::builder().max_connections(0)),
            (
                "wait_timeout",
                ServeConfig::builder().wait_timeout(Duration::ZERO),
            ),
            ("backend", ServeConfig::builder().backend("nope:xyz")),
        ];
        for (field, builder) in hostile {
            let err = builder.build().expect_err("hostile value must be rejected");
            assert_eq!(err.field(), field, "{err}");
        }
    }

    #[test]
    fn start_validates_config() {
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        config.idle_timeout = Duration::ZERO;
        match start(config) {
            Err(ServeError::Config(e)) => assert_eq!(e.field(), "idle_timeout"),
            other => panic!("expected config error, got {other:?}"),
        }
    }
}
