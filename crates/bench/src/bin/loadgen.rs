//! `fastvg-loadgen` — a pass/fail smoke for a running `fastvg-serve`
//! daemon (or a `fastvg-router` fleet). It drives the 12-benchmark suite
//! over concurrent keep-alive connections and exits non-zero unless every
//! answer checks out: no failed request, every cache hit replays the cold
//! bytes, and (with `--expect-cache-hits`) no post-cold request misses
//! the cache. It measures nothing; performance is `benchmark/`'s job (see
//! `benchmark/README.md`).
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin fastvg-loadgen -- \
//!     --addr 127.0.0.1:8737 --connections 4 --passes 2 --expect-cache-hits
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — daemon or router to drive (required).
//! * `--connections N` — concurrent keep-alive connections (default 4).
//!   Every pass opens them all before the first request and closes them
//!   after the last, so N sockets really are open at once; sender
//!   threads are small-stack, so thousands are fine.
//! * `--passes N` — passes over the suite (default 2: a cold pass that
//!   sends each benchmark once and populates the result cache, then
//!   post-cold passes that must hit it).
//! * `--requests N` — requests per post-cold pass, cycling through the
//!   suite (default `max(2 × connections, suite size)`).
//! * `--wait-healthz SECS` — poll `GET /healthz` up to a deadline before
//!   driving load (lets scripts race the daemon boot).
//! * `--expect-cache-hits` — exit non-zero unless every post-cold
//!   request was a cache hit (local, or peered through a router).
//! * `--remote-check` — after the passes, run paper benchmark 6 through
//!   a [`fastvg_serve::RemoteExtractor`] and a local `Pipeline`, both
//!   via the same `&dyn Extractor` batch path, and exit non-zero unless
//!   the two `ExtractionReport`s agree bit-for-bit (slopes, matrix,
//!   probes, coverage) — the end-to-end proof that the daemon is a
//!   drop-in extractor.
//! * `--record-tape PATH` — tape the local comparison run's probes to
//!   `PATH`; with `--remote-check` the tape is also replayed strictly and
//!   must reproduce the local report.
//! * `--trace-sample F` — mint a client root span and an
//!   `x-fastvg-trace` header on fraction `F` of requests (stride
//!   sampling; `1.0` traces everything, default `0` traces nothing).
//!   See `docs/OBSERVABILITY.md` for the header contract.
//! * `--trace-out PATH` — write the client spans as newline-JSON to
//!   `PATH` (merge with the daemons'/router's files via `fastvg-trace`).
//!
//! On startup the generator asserts the daemon's `/healthz` build info:
//! the reported crate version must match its own — and `/metrics` must
//! advertise the same version and git revision via `fastvg_build_info` —
//! so a smoke never drives a stale binary.
//!
//! Every request is `POST /extract?wait` for the fast method, so each
//! answer is the finished job.

use fastvg_obs::{IdGen, Tracer};
use fastvg_serve::{Client, ClientConfig};
use fastvg_wire::{Json, TraceContext, TRACE_HEADER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Args {
    addr: String,
    connections: usize,
    passes: usize,
    requests: Option<usize>,
    wait_healthz: Option<u64>,
    expect_cache_hits: bool,
    remote_check: bool,
    record_tape: Option<PathBuf>,
    trace_sample: f64,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut parsed = Args {
        addr: String::new(),
        connections: 4,
        passes: 2,
        requests: None,
        wait_healthz: None,
        expect_cache_hits: false,
        remote_check: false,
        record_tape: None,
        trace_sample: 0.0,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} expects a value"))
    };
    let number = |flag: &str, args: &mut dyn Iterator<Item = String>| -> usize {
        value(flag, args)
            .parse()
            .unwrap_or_else(|_| panic!("{flag} expects a number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr", &mut args)),
            "--connections" => parsed.connections = number("--connections", &mut args),
            "--passes" => parsed.passes = number("--passes", &mut args),
            "--requests" => parsed.requests = Some(number("--requests", &mut args)),
            "--wait-healthz" => {
                parsed.wait_healthz = Some(number("--wait-healthz", &mut args) as u64)
            }
            "--expect-cache-hits" => parsed.expect_cache_hits = true,
            "--remote-check" => parsed.remote_check = true,
            "--record-tape" => parsed.record_tape = Some(value("--record-tape", &mut args).into()),
            "--trace-sample" => {
                parsed.trace_sample = value("--trace-sample", &mut args)
                    .parse()
                    .expect("--trace-sample expects a fraction")
            }
            "--trace-out" => parsed.trace_out = Some(value("--trace-out", &mut args).into()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    parsed.addr = addr.expect("--addr HOST:PORT is required");
    parsed.connections = parsed.connections.max(1);
    parsed.passes = parsed.passes.max(1);
    assert!(
        (0.0..=1.0).contains(&parsed.trace_sample),
        "--trace-sample expects a fraction in [0, 1]"
    );
    parsed
}

/// Client-side tracing: a `client`-layer tracer plus the stride sampler
/// deciding which requests carry an `x-fastvg-trace` header. Shared by
/// every sender thread (the counter is the cross-thread stride).
struct ClientTrace {
    tracer: Arc<Tracer>,
    sample: f64,
    counter: AtomicU64,
}

impl ClientTrace {
    fn new(args: &Args) -> Option<Self> {
        if args.trace_sample <= 0.0 {
            return None;
        }
        let tracer = Tracer::new("client", IdGen::from_entropy().next_id());
        if let Some(path) = &args.trace_out {
            tracer.set_file(path).expect("open --trace-out file");
        }
        Some(Self {
            tracer,
            sample: args.trace_sample,
            counter: AtomicU64::new(0),
        })
    }

    /// Stride sampling: request `n` is traced iff the running total
    /// `n × sample` crosses an integer — exact long-run rate, no RNG.
    fn should_sample(&self) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        ((n + 1) as f64 * self.sample).floor() > (n as f64 * self.sample).floor()
    }
}

/// One request's outcome.
#[derive(Debug)]
struct Sample {
    benchmark: usize,
    status: u16,
    /// The `x-fastvg-cache` header: `hit` (local cache), `peer` (served
    /// from a sibling shard's cache through the router), or `miss`.
    cache: String,
    body: Vec<u8>,
}

impl Sample {
    /// Whether the request avoided extraction — a local *or* peered
    /// cache hit. `--expect-cache-hits` accepts both: through a router,
    /// a warm fleet legitimately answers `peer` while seeds propagate.
    fn is_hit(&self) -> bool {
        matches!(self.cache.as_str(), "hit" | "peer")
    }
}

/// The shared connect policy: generous retries so bursts of connects
/// survive accept-backlog overflow.
fn connect_client(addr: &str) -> Client {
    ClientConfig::new()
        .connect_timeout(Duration::from_secs(10))
        .retries(10, Duration::from_millis(20))
        .connect(addr)
        .expect("connect to daemon")
}

fn post_extract(client: &mut Client, benchmark: usize, trace: Option<&ClientTrace>) -> Sample {
    let body = format!("{{\"benchmark\": {benchmark}, \"method\": \"fast\"}}");
    let span = trace.filter(|t| t.should_sample()).map(|t| {
        let mut span = t.tracer.root("request");
        span.attr("benchmark", benchmark.to_string());
        span
    });
    let response = match &span {
        Some(span) => {
            let ctx = span.context();
            let header = TraceContext {
                trace: ctx.trace.0,
                span: ctx.span.0,
            }
            .encode();
            client.send_with_headers(
                "POST",
                "/extract?wait",
                body.as_bytes(),
                &[(TRACE_HEADER, &header)],
            )
        }
        None => client.post("/extract?wait", body.as_bytes()),
    }
    .expect("request completes");
    // The span drops on return, recording the request's full wall time.
    Sample {
        benchmark,
        status: response.status,
        cache: response
            .header("x-fastvg-cache")
            .unwrap_or("miss")
            .to_string(),
        body: response.body,
    }
}

/// One closed-loop pass: sends `requests` (benchmark indices) over up to
/// `connections` keep-alive connections. Every connection is opened on
/// the calling thread first, so a failed connect fails the pass before
/// any request goes out; then one scoped sender per connection fires its
/// round-robin share back-to-back, and the connections close only after
/// the scope joins — all of them stay open for the whole pass.
fn drive_pass(
    addr: &str,
    requests: &[usize],
    connections: usize,
    trace: Option<&ClientTrace>,
) -> Vec<Sample> {
    let mut clients: Vec<Client> = (0..connections.min(requests.len()).max(1))
        .map(|_| connect_client(addr))
        .collect();
    let stride = clients.len();
    let samples = std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                std::thread::Builder::new()
                    .stack_size(192 * 1024)
                    .spawn_scoped(scope, move || {
                        requests
                            .iter()
                            .skip(c)
                            .step_by(stride)
                            .map(|&benchmark| post_extract(client, benchmark, trace))
                            .collect::<Vec<_>>()
                    })
                    .expect("spawn sender thread")
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|sender| sender.join().expect("sender thread"))
            .collect()
    });
    drop(clients);
    samples
}

/// Asserts the daemon's `/healthz` build info matches this binary: same
/// workspace version, and the backend registry it claims to serve.
fn assert_build_info(addr: &str) {
    let mut client = Client::connect(addr).expect("connect for healthz");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "daemon must be healthy");
    let doc = health.json().expect("healthz is JSON");
    let version = doc
        .get("version")
        .and_then(Json::as_str)
        .expect("healthz reports a version");
    // Every workspace crate inherits `version.workspace = true`, so
    // fastvg-serve and fastvg-bench versions move in lockstep — a
    // mismatch means the daemon binary came from a different tree.
    assert_eq!(
        version,
        env!("CARGO_PKG_VERSION"),
        "daemon version must match this load generator's build"
    );
    // `/metrics` must advertise the same build via `fastvg_build_info`
    // (the Prometheus join key for deploy metadata).
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200, "metrics must answer");
    let metrics_text = String::from_utf8_lossy(&metrics.body).into_owned();
    let build_line = metrics_text
        .lines()
        .find(|line| line.starts_with("fastvg_build_info{"))
        .unwrap_or_else(|| panic!("{addr} /metrics lacks fastvg_build_info"))
        .to_string();
    assert!(
        build_line.contains(&format!("version=\"{version}\"")),
        "fastvg_build_info version must match healthz: {build_line}"
    );
    if let Some(git) = doc.get("git").and_then(Json::as_str) {
        assert!(
            build_line.contains(&format!("git=\"{git}\"")),
            "fastvg_build_info git must match healthz ({git}): {build_line}"
        );
    }
    let backends: Vec<&str> = doc
        .get("backends")
        .and_then(Json::as_arr)
        .expect("healthz reports enabled backends")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for required in ["sim", "throttled", "replay", "record"] {
        assert!(
            backends.contains(&required),
            "daemon must serve the {required} backend, got {backends:?}"
        );
    }
    println!(
        "daemon build: version {version}, default backend {}, schemes {}",
        doc.get("backend").and_then(Json::as_str).unwrap_or("?"),
        backends.join(",")
    );
}

/// The end-to-end interchangeability proof: a
/// [`fastvg_serve::RemoteExtractor`] and a local `Pipeline` run through
/// the *same* `&dyn Extractor` batch path on paper benchmark 6 and must
/// report identical extractions. With `--record-tape` the local run is
/// taped and strictly replayed, so the round also pins the
/// record/replay fixtures.
fn remote_check(addr: &str, record_tape: Option<&Path>) {
    use fastvg_core::api::{ExtractionReport, Extractor, Pipeline};
    use fastvg_core::batch::BatchExtractor;
    use fastvg_serve::RemoteExtractor;
    use qd_instrument::{SimBackend, SourceBackend, SourceScenario};

    let bench = qd_dataset::paper_benchmark(6).expect("paper benchmark 6");
    let runner = BatchExtractor::new().with_jobs(1);
    let scenario = || {
        SourceScenario::new(bench.csd.clone())
            .with_label("remote-check")
            .with_seed(bench.spec.seed)
    };

    // One closure drives both extractors through the erased batch path.
    let run_one = |extractor: &dyn Extractor, backend: &dyn SourceBackend| -> ExtractionReport {
        let mut outcomes = runner.run(extractor, 1, |_| {
            backend.session(scenario()).expect("backend opens")
        });
        outcomes
            .remove(0)
            .outcome
            .expect("benchmark 6 extracts cleanly")
    };

    let local_backend: Arc<dyn SourceBackend> = match record_tape {
        Some(path) => Arc::new(qd_instrument::RecordBackend::new(
            path,
            Arc::new(SimBackend),
        )),
        None => Arc::new(SimBackend),
    };
    let local = run_one(&Pipeline::fast().build(), local_backend.as_ref());
    // The remote extractor acquires the window itself; it must not run
    // over the recording backend or the tape would hold its full-frame
    // acquisition instead of the local pipeline's probes.
    let remote = run_one(&RemoteExtractor::new(addr.to_string()), &SimBackend);

    assert_eq!(
        remote.method, local.method,
        "remote must run the same method"
    );
    assert_eq!(
        remote.slope_h.to_bits(),
        local.slope_h.to_bits(),
        "remote slope_h must match local"
    );
    assert_eq!(
        remote.slope_v.to_bits(),
        local.slope_v.to_bits(),
        "remote slope_v must match local"
    );
    assert_eq!(remote.matrix, local.matrix, "virtualization matrices match");
    assert_eq!(remote.probes, local.probes, "probe counts match");
    assert_eq!(
        remote.coverage.to_bits(),
        local.coverage.to_bits(),
        "coverage matches"
    );
    println!(
        "remote-check: remote report matches local pipeline (slopes {:.4}/{:.4}, {} probes)",
        local.slope_h, local.slope_v, local.probes
    );

    if let Some(path) = record_tape {
        let replay = qd_instrument::ReplayBackend::new(path);
        let replayed = run_one(&Pipeline::fast().build(), &replay);
        assert_eq!(replayed.slope_h.to_bits(), local.slope_h.to_bits());
        assert_eq!(replayed.slope_v.to_bits(), local.slope_v.to_bits());
        assert_eq!(replayed.probes, local.probes);
        assert_eq!(replayed.matrix, local.matrix);
        println!(
            "remote-check: strict replay of {} reproduces the local report",
            path.display()
        );
    }
}

fn main() {
    let args = parse_args();
    let addr = args.addr.as_str();

    if let Some(secs) = args.wait_healthz {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            let healthy = Client::connect_with_timeout(addr, Duration::from_secs(2))
                .and_then(|mut c| c.get("/healthz"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "daemon at {addr} not healthy within {secs}s"
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    assert_build_info(addr);

    let trace = ClientTrace::new(&args);
    let suite: Vec<usize> = (1..=12).collect();
    let hot: Vec<usize> = suite
        .iter()
        .copied()
        .cycle()
        .take(
            args.requests
                .unwrap_or((2 * args.connections).max(suite.len())),
        )
        .collect();
    println!(
        "fastvg-loadgen: cold pass of {} requests, then {} pass(es) of {} requests, over up to {} connections -> {addr}",
        suite.len(),
        args.passes - 1,
        hot.len(),
        args.connections,
    );

    let mut cold_bodies: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut failed_requests = 0usize;
    let mut identity_violations = 0usize;
    let mut post_cold_misses = 0usize;
    for pass in 1..=args.passes {
        let requests = if pass == 1 { &suite } else { &hot };
        let samples = drive_pass(addr, requests, args.connections, trace.as_ref());
        if let Some(trace) = &trace {
            // Drain per pass so the span queue never overflows.
            trace.tracer.flush();
        }

        let total = samples.len();
        let hits = samples.iter().filter(|s| s.is_hit()).count();
        let peer_hits = samples.iter().filter(|s| s.cache == "peer").count();
        let failures = samples.iter().filter(|s| s.status != 200).count();
        failed_requests += failures;
        if pass > 1 {
            post_cold_misses += total - hits;
        }
        // Only hits are compared: a miss re-extracts, and its stage
        // timings (`elapsed_ns`) differ from the cold run's.
        for sample in samples {
            if pass == 1 {
                cold_bodies.insert(sample.benchmark, sample.body);
            } else if sample.is_hit() && cold_bodies.get(&sample.benchmark) != Some(&sample.body) {
                identity_violations += 1;
                eprintln!(
                    "byte-identity violation: cache hit for benchmark {} differs from pass 1",
                    sample.benchmark
                );
            }
        }
        println!(
            "pass {pass}: {total} requests, {hits} cache hits ({peer_hits} peered), {failures} failed"
        );
    }

    assert_eq!(failed_requests, 0, "failed requests");
    assert_eq!(
        identity_violations, 0,
        "cache-hit responses must replay cold bytes"
    );
    if args.expect_cache_hits {
        assert_eq!(
            post_cold_misses, 0,
            "every post-cold request must hit the cache"
        );
    }

    if args.remote_check {
        remote_check(addr, args.record_tape.as_deref());
    }
}
