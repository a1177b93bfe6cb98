//! The traced run's per-layer ledger (layer = crate).
//!
//! After the traced measured phase, the workload's quality set is
//! replayed through the public entry point of each crate a request
//! passes through, one span around each call, so the replay never
//! inflates the timed requests. Hot requests are then re-sent straight
//! to their owning shard and through a router to split the hot path
//! into the daemon and the proxy.

use crate::check::pipeline;
use crate::drive::{connect, stop_router, timed_post, Fleet};
use crate::inputs::{Job, Workload};
use crate::stats::median;
use fastvg_core::api::{ExtractionReport, Stage};
use fastvg_core::baseline::BaselineConfig;
use fastvg_core::report::Method;
use fastvg_core::ExtractError;
use fastvg_obs::{SpanContext, Tracer};
use fastvg_router::{HashRing, RingMember, DEFAULT_REPLICAS};
use fastvg_wire::Json;
use mini_rayon::ThreadPool;
use qd_csd::Csd;
use qd_instrument::{MeasurementSession, SimBackend, SourceBackend, SourceScenario};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device-model evaluations timed per replayed device.
const CURRENT_CALLS: usize = 512;

/// Passes of the hot direct-versus-router replay.
const HOT_ROUNDS: usize = 5;

/// Recently completed jobs re-sent hot on a cold workload: the newest
/// are still in the daemon's result cache.
pub const HOT_JOBS: usize = 60;

/// The nine extraction stages whose timings reports carry.
const STAGES: [Stage; 9] = [
    Stage::Anchors,
    Stage::RowSweep,
    Stage::ColumnSweep,
    Stage::Postprocess,
    Stage::Fit,
    Stage::Verify,
    Stage::Acquire,
    Stage::Vision,
    Stage::Refine,
];

/// Timed samples per span name, recorded as spans on a tracer too.
pub struct Ledger {
    tracer: Arc<Tracer>,
    samples: BTreeMap<String, Vec<Duration>>,
}

impl Ledger {
    /// A ledger whose spans go to `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> Ledger {
        Ledger {
            tracer,
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, and records
    /// its duration.
    pub fn time<T>(
        &mut self,
        parent: SpanContext,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.tracer.child(parent, name);
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let elapsed = started.elapsed();
        span.finish_with(elapsed);
        self.record(name, elapsed);
        (out, elapsed)
    }

    /// Records a duration measured elsewhere.
    pub fn record(&mut self, name: impl Into<String>, elapsed: Duration) {
        self.samples.entry(name.into()).or_default().push(elapsed);
    }

    /// Median of a span's durations in `unit_ns` units; `None` if the
    /// span never ran.
    pub fn median(&self, name: &str, unit_ns: f64) -> Option<f64> {
        let values: Vec<f64> = self
            .samples
            .get(name)?
            .iter()
            .map(|d| d.as_nanos() as f64 / unit_ns)
            .collect();
        median(&values)
    }

    fn total(&self, name: &str) -> Duration {
        self.samples
            .get(name)
            .map_or(Duration::ZERO, |v| v.iter().sum())
    }
}

/// What the traced run hands the replay.
pub struct ReplayInput<'a> {
    /// The workload replayed.
    pub workload: Workload,
    /// Every job of the workload's inputs.
    pub jobs: &'a [Job],
    /// The quality set replayed in process.
    pub replay: &'a [usize],
    /// Client latency of each replayed job's cold request.
    pub cold_latency: &'a HashMap<usize, Duration>,
    /// A response body per replayed job, for the parse timing.
    pub bodies: &'a HashMap<usize, Vec<u8>>,
    /// Jobs the fleet still holds in cache, for the hot replay.
    pub hot: &'a [usize],
    /// The fleet the traced phase ran against.
    pub fleet: &'a Fleet,
    /// Traced and untraced p50 latency of the measured phases, ms.
    pub p50_ms: (f64, f64),
}

/// A per-layer metric: name, value, unit.
pub type LayerMetric = (String, f64, &'static str);

/// Replays the quality set through each layer and returns every
/// per-layer metric.
///
/// # Errors
///
/// Returns generation, transport and routing failures.
pub fn replay(input: &ReplayInput<'_>, tracer: &Arc<Tracer>) -> Result<Vec<LayerMetric>, String> {
    let mut ledger = Ledger::new(Arc::clone(tracer));
    let baseline = BaselineConfig::default();
    let mut used_pixels = 0usize;
    let mut synthesized = 0usize;
    let mut probes = 0u64;
    let mut cache_hits = 0u64;
    let mut overhead = Vec::new();
    let mut client_total = Duration::ZERO;
    let mut work_total = Duration::ZERO;
    let mut visioned = HashSet::new();
    for &j in input.replay {
        let job = &input.jobs[j];
        let root = tracer.root("replay");
        let ctx = root.context();
        ledger.time(ctx, "wire.request_fingerprint", || job.fingerprint());
        let (bench, generate) =
            ledger.time(ctx, "dataset.generate", || qd_dataset::generate(&job.spec));
        let bench = bench.map_err(|e| e.to_string())?;
        let pixels = job.spec.pixel_count();
        ledger.record(
            "dataset.ns_per_pixel",
            Duration::from_nanos((generate.as_nanos() / pixels as u128) as u64),
        );

        let device = qd_dataset::generator::build_device(&job.spec).map_err(|e| e.to_string())?;
        let grid = bench.csd.grid();
        let (w, h) = (grid.width(), grid.height());
        let (_, current) = ledger.time(ctx, "physics.current", || {
            (0..CURRENT_CALLS)
                .map(|k| {
                    let (v1, v2) = grid.voltage_of(k % w, (k * 7) % h);
                    device.current(&[v1, v2]).unwrap_or(0.0)
                })
                .sum::<f64>()
        });
        ledger.record("physics.current_ns", current / CURRENT_CALLS as u32);

        let run = run_pipeline(&mut ledger, ctx, job.method, &bench.csd, job.spec.seed)?;
        probes += run.probes;
        cache_hits += run.cache_hits;
        used_pixels += run.unique_pixels;
        synthesized += pixels;
        let mut in_process = generate + run.open + run.extract;
        if let Ok(report) = &run.outcome {
            let (_, encode) = ledger.time(ctx, "wire.report_encode", || report.to_json().dump());
            in_process += encode;
        }
        work_total += in_process;
        if input.workload == Workload::ColdFast {
            // cold-fast serves no Hough request; its devices still time
            // the Hough pipeline, so every layer reads on every workload.
            run_pipeline(
                &mut ledger,
                ctx,
                Method::HoughBaseline,
                &bench.csd,
                job.spec.seed,
            )?;
        }
        if let Some(body) = input.bodies.get(&j) {
            let text = String::from_utf8_lossy(body);
            let (parsed, _) = ledger.time(ctx, "wire.response_parse", || {
                Json::parse(text.trim_end_matches('\n'))
            });
            parsed.map_err(|e| format!("replayed body: {e}"))?;
        }
        if visioned.insert(job.device) {
            let (edges, _) = ledger.time(ctx, "vision.canny", || {
                qd_vision::canny::canny(&bench.csd, baseline.canny)
            });
            // A device without clear edges is an outcome, not an error:
            // only the time of the call matters here.
            if let Ok(edges) = edges {
                let (_lines, _) = ledger.time(ctx, "vision.hough", || {
                    qd_vision::hough::hough_lines(&edges, baseline.hough)
                });
            }
        }
        ledger.time(ctx, "rayon.par_map", || {
            ThreadPool::new(crate::drive::CONNECTIONS)
                .par_map(&[(); crate::drive::CONNECTIONS], |i, _| i)
        });
        if let Some(&latency) = input.cold_latency.get(&j) {
            client_total += latency;
            overhead.push(latency.as_secs_f64() * 1e3 - in_process.as_secs_f64() * 1e3);
        }
        root.finish();
    }
    let hot = hot_replay(input, &mut ledger)?;

    let ms = 1e6;
    let us = 1e3;
    let get = |ledger: &Ledger, name: &str, unit: f64| ledger.median(name, unit).unwrap_or(0.0);
    let mut out: Vec<LayerMetric> = vec![
        (
            "dataset.generate_ms".into(),
            get(&ledger, "dataset.generate", ms),
            "ms",
        ),
        (
            "dataset.ns_per_pixel".into(),
            get(&ledger, "dataset.ns_per_pixel", 1.0),
            "ns",
        ),
        (
            "dataset.pixels_used_frac".into(),
            used_pixels as f64 / synthesized.max(1) as f64,
            "ratio",
        ),
        (
            "dataset.request_share_pct".into(),
            100.0 * ledger.total("dataset.generate").as_secs_f64()
                / client_total.as_secs_f64().max(f64::MIN_POSITIVE),
            "%",
        ),
        (
            "dataset.work_share_pct".into(),
            100.0 * ledger.total("dataset.generate").as_secs_f64()
                / work_total.as_secs_f64().max(f64::MIN_POSITIVE),
            "%",
        ),
        (
            "physics.current_ns".into(),
            get(&ledger, "physics.current_ns", 1.0),
            "ns",
        ),
        (
            "instrument.open_us".into(),
            get(&ledger, "instrument.open", us),
            "us",
        ),
        (
            "instrument.session_cache_hit_frac".into(),
            cache_hits as f64 / (cache_hits + probes).max(1) as f64,
            "ratio",
        ),
        (
            "core.extract_ms.fast".into(),
            get(&ledger, "core.extract.fast", ms),
            "ms",
        ),
        (
            "core.extract_ms.hough".into(),
            get(&ledger, "core.extract.hough", ms),
            "ms",
        ),
    ];
    for stage in STAGES {
        let name = stage.name();
        out.push((
            format!("core.stage.{name}_us"),
            get(&ledger, &format!("core.stage.{name}"), us),
            "us",
        ));
    }
    out.extend([
        (
            "vision.canny_ms".into(),
            get(&ledger, "vision.canny", ms),
            "ms",
        ),
        (
            "vision.hough_ms".into(),
            get(&ledger, "vision.hough", ms),
            "ms",
        ),
        (
            "wire.report_encode_us".into(),
            get(&ledger, "wire.report_encode", us),
            "us",
        ),
        (
            "wire.request_fingerprint_us".into(),
            get(&ledger, "wire.request_fingerprint", us),
            "us",
        ),
        (
            "wire.response_parse_us".into(),
            get(&ledger, "wire.response_parse", us),
            "us",
        ),
        (
            "serve.overhead_ms".into(),
            median(&overhead).unwrap_or(0.0),
            "ms",
        ),
        ("serve.hot_us".into(), hot.direct_us, "us"),
        ("serve.cache_hit_frac".into(), hot.hit_frac, "ratio"),
        (
            "router.proxy_us".into(),
            hot.routed_us - hot.direct_us,
            "us",
        ),
        ("router.peer_hit_frac".into(), hot.peer_frac, "ratio"),
        (
            "rayon.par_map_us".into(),
            get(&ledger, "rayon.par_map", us),
            "us",
        ),
        (
            "obs.trace_overhead_pct".into(),
            100.0 * (input.p50_ms.0 / input.p50_ms.1 - 1.0),
            "%",
        ),
    ]);
    Ok(out)
}

/// One pipeline run in the replay and what its session counted.
struct Run {
    outcome: Result<ExtractionReport, ExtractError>,
    open: Duration,
    extract: Duration,
    probes: u64,
    cache_hits: u64,
    unique_pixels: usize,
}

/// Whether `stage` is reported from `method`'s pipeline. Both pipelines
/// end in a `fit`; the stage metric is the fast pipeline's.
fn owns(method: Method, stage: Stage) -> bool {
    let hough_stage = matches!(stage, Stage::Acquire | Stage::Vision | Stage::Refine);
    hough_stage == (method == Method::HoughBaseline)
}

/// Opens `csd` through `sim` and runs `method`'s pipeline on it, timing
/// the open, the run and (from the report) each stage.
fn run_pipeline(
    ledger: &mut Ledger,
    ctx: SpanContext,
    method: Method,
    csd: &Csd,
    seed: u64,
) -> Result<Run, String> {
    let scenario = SourceScenario::new(csd.clone()).with_seed(seed);
    let (source, open) = ledger.time(ctx, "instrument.open", || SimBackend.open(scenario));
    let mut session = MeasurementSession::new(source.map_err(|e| e.to_string())?);
    let span = match method {
        Method::HoughBaseline => "core.extract.hough",
        _ => "core.extract.fast",
    };
    let pipeline = pipeline(method);
    let (outcome, extract) = ledger.time(ctx, span, || pipeline.run(&mut session));
    if let Ok(report) = &outcome {
        for timing in report.stages.iter().filter(|t| owns(method, t.stage)) {
            ledger.record(
                format!("core.stage.{}", timing.stage.name()),
                timing.elapsed,
            );
        }
    }
    Ok(Run {
        outcome,
        open,
        extract,
        probes: session.probe_count() as u64,
        cache_hits: session.cache_hits(),
        unique_pixels: session.unique_pixels(),
    })
}

struct Hot {
    direct_us: f64,
    routed_us: f64,
    hit_frac: f64,
    peer_frac: f64,
}

/// Sends each hot job straight to its owning shard and then through a
/// router, alternating, and compares the medians.
fn hot_replay(input: &ReplayInput<'_>, ledger: &mut Ledger) -> Result<Hot, String> {
    let shards = input.fleet.shard_addrs();
    let ring = HashRing::with_replicas(
        shards.iter().map(|a| RingMember::new(a.clone())).collect(),
        DEFAULT_REPLICAS,
    );
    // Cold workloads run without a router; front their daemon with one.
    let router = match input.workload {
        Workload::HotFleet => None,
        _ => Some(input.fleet.start_router()?),
    };
    let entry = match &router {
        Some(r) => r.addr().to_string(),
        None => input.fleet.entry(),
    };
    let transport = |e: std::io::Error| format!("hot replay: {e}");
    let mut direct: HashMap<String, fastvg_serve::Client> = HashMap::new();
    for addr in &shards {
        direct.insert(addr.clone(), connect(addr).map_err(transport)?);
    }
    let mut routed = connect(&entry).map_err(transport)?;
    let (mut hits, mut peers, mut sent) = (0usize, 0usize, 0usize);
    for _ in 0..HOT_ROUNDS {
        for &j in input.hot {
            let job = &input.jobs[j];
            let owner = ring
                .owner(job.fingerprint())
                .map(|m| m.label.clone())
                .ok_or("empty ring")?;
            let client = direct.get_mut(&owner).ok_or("owner is not a shard")?;
            let (latency, response) = timed_post(client, job).map_err(transport)?;
            ledger.record("serve.hot", latency);
            hits += usize::from(response.header("x-fastvg-cache") == Some("hit"));
            let (latency, response) = timed_post(&mut routed, job).map_err(transport)?;
            ledger.record("router.hot", latency);
            peers += usize::from(response.header("x-fastvg-cache") == Some("peer"));
            sent += 1;
        }
    }
    drop(routed);
    if let Some(router) = router {
        stop_router(router);
    }
    let sent = sent.max(1) as f64;
    Ok(Hot {
        direct_us: ledger.median("serve.hot", 1e3).unwrap_or(0.0),
        routed_us: ledger.median("router.hot", 1e3).unwrap_or(0.0),
        hit_frac: hits as f64 / sent,
        peer_frac: peers as f64 / sent,
    })
}
