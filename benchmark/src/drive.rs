//! The system under test and the closed-loop load that drives it.
//!
//! [`Fleet`] boots in-process `fastvg-serve` daemons on ephemeral
//! ports, optionally behind a `fastvg-router`. [`closed_loop`] drives it
//! from a fixed number of keep-alive connections, each sending its next
//! `POST /extract?wait` only after the previous response arrived.

use crate::inputs::Job;
use fastvg_obs::Tracer;
use fastvg_router::{RouterConfig, RouterHandle, ShardSpec};
use fastvg_serve::{Client, ClientConfig, ClientResponse, ServeConfig, ServiceHandle};
use fastvg_wire::{TraceContext, TRACE_HEADER};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections: one per core of the reference machine. The
/// daemon parks one `?wait` request per connection, so more would
/// measure the scheduler's queue rather than the service.
pub const CONNECTIONS: usize = 2;

/// Longest a single request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a booted process may take to answer `/healthz`.
const READY_DEADLINE: Duration = Duration::from_secs(20);

/// In-process daemons, optionally fronted by a router.
pub struct Fleet {
    daemons: Vec<ServiceHandle>,
    router: Option<RouterHandle>,
}

impl Fleet {
    /// Boots `shards` daemons (and a router over them when `router`)
    /// and waits until every process answers `/healthz` with 200.
    ///
    /// # Errors
    ///
    /// Returns boot failures and readiness timeouts.
    pub fn boot(shards: usize, router: bool) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            daemons: Vec::with_capacity(shards),
            router: None,
        };
        for _ in 0..shards {
            let daemon = fastvg_serve::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            })
            .map_err(|e| e.to_string())?;
            fleet.daemons.push(daemon);
        }
        if router {
            fleet.router = Some(fleet.start_router()?);
        }
        for addr in fleet.addrs() {
            wait_ready(&addr)?;
        }
        Ok(fleet)
    }

    /// Starts a router over this fleet's daemons (the traced replay
    /// fronts a single cold-workload daemon this way).
    ///
    /// # Errors
    ///
    /// Returns the router's boot failure.
    pub fn start_router(&self) -> Result<RouterHandle, String> {
        let router = fastvg_router::start(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: self.shard_addrs().into_iter().map(ShardSpec::new).collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| e.to_string())?;
        wait_ready(&router.addr().to_string())?;
        Ok(router)
    }

    /// Daemon addresses, in shard order.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.addr().to_string()).collect()
    }

    fn addrs(&self) -> Vec<String> {
        let mut addrs = self.shard_addrs();
        addrs.extend(self.router.as_ref().map(|r| r.addr().to_string()));
        addrs
    }

    /// Where clients connect: the router if there is one, else the
    /// first daemon.
    pub fn entry(&self) -> String {
        match &self.router {
            Some(router) => router.addr().to_string(),
            None => self.daemons[0].addr().to_string(),
        }
    }

    /// Stops every process (router first) and waits for all of them.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            stop_router(router);
        }
        for daemon in &self.daemons {
            daemon.shutdown();
        }
        for daemon in self.daemons {
            daemon.join();
        }
    }
}

/// Stops a router and waits for its threads.
pub fn stop_router(router: RouterHandle) {
    router.shutdown();
    router.join();
}

fn wait_ready(addr: &str) -> Result<(), String> {
    let until = Instant::now() + READY_DEADLINE;
    loop {
        let ready = Client::connect_with_timeout(addr, Duration::from_secs(2))
            .and_then(|mut c| c.get("/healthz"))
            .is_ok_and(|r| r.status == 200);
        if ready {
            return Ok(());
        }
        if Instant::now() >= until {
            return Err(format!("{addr} not ready after {READY_DEADLINE:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Opens a keep-alive client connection.
///
/// # Errors
///
/// Propagates connection errors.
pub fn connect(addr: &str) -> std::io::Result<Client> {
    ClientConfig::new()
        .read_timeout(REQUEST_TIMEOUT)
        .connect(addr)
}

/// One completed request. Kept to 16 bytes: a hot run records hundreds
/// of thousands, and their memory counts in the peak RSS measured.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the workload's send sequence.
    pub seq: u32,
    /// Index of the job sent.
    pub job: u32,
    /// Client-observed latency in nanoseconds, send to last byte.
    pub latency_ns: u64,
}

impl Sample {
    /// The job index.
    pub fn job(&self) -> usize {
        self.job as usize
    }

    /// The client-observed latency.
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns)
    }
}

/// Checks a response inline, in the client thread.
pub type InlineCheck<'a> = dyn Fn(usize, &ClientResponse) -> Result<(), String> + Sync + 'a;

/// How one closed-loop phase runs.
pub struct LoopConfig<'a> {
    /// Address to connect to.
    pub addr: &'a str,
    /// Sending stops at the first sequence position taken after this.
    pub duration: Duration,
    /// Positions below this are sent even after `duration`.
    pub min_sent: usize,
    /// Mints a client span per request and sends its context upstream.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Keep response bodies, in [`Phase::bodies`], for later checks.
    pub keep_bodies: bool,
}

/// A finished phase: its samples in send order and what it cost.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every request sent, ordered by sequence position.
    pub samples: Vec<Sample>,
    /// Why each failed request failed, by sequence position.
    pub failures: BTreeMap<u32, String>,
    /// Response bodies by sequence position, when the phase keeps them.
    pub bodies: BTreeMap<u32, Vec<u8>>,
    /// Wall time from the first send until the last response.
    pub elapsed: Duration,
    /// Process CPU time (user + system) over the phase.
    pub cpu: Duration,
    /// Peak resident set over the phase, in KiB.
    pub peak_rss_kib: u64,
}

/// Drives `jobs` from [`CONNECTIONS`] connections. Sequence position
/// `i` sends job `seq(i)`; a `None` ends the sequence. Positions are
/// claimed from one counter, so the positions sent always form a prefix
/// of the sequence.
pub fn closed_loop(
    config: &LoopConfig<'_>,
    jobs: &[Job],
    seq: &(dyn Fn(usize) -> Option<usize> + Sync),
    check: &InlineCheck<'_>,
) -> Phase {
    let next = AtomicUsize::new(0);
    crate::proc::reset_peak_rss();
    let cpu_before = crate::proc::cpu_time();
    let started = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| connection(config, jobs, seq, check, &next, started)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed: started.elapsed(),
        cpu: crate::proc::cpu_time().saturating_sub(cpu_before),
        peak_rss_kib: crate::proc::peak_rss_kib(),
        ..Phase::default()
    };
    for part in parts {
        phase.samples.extend(part.samples);
        phase.failures.extend(part.failures);
        phase.bodies.extend(part.bodies);
    }
    phase.samples.sort_by_key(|s| s.seq);
    phase
}

fn connection(
    config: &LoopConfig<'_>,
    jobs: &[Job],
    seq: &(dyn Fn(usize) -> Option<usize> + Sync),
    check: &InlineCheck<'_>,
    next: &AtomicUsize,
    started: Instant,
) -> Phase {
    let mut out = Phase::default();
    let mut client = connect(config.addr).ok();
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= config.min_sent && started.elapsed() >= config.duration {
            return out;
        }
        let Some(job) = seq(i) else { return out };
        let sent = Instant::now();
        let span = config.tracer.map(|t| t.root("request"));
        let result = match client.as_mut() {
            None => Err(std::io::Error::other("not connected")),
            Some(c) => match &span {
                None => c.post("/extract?wait", &jobs[job].body),
                Some(span) => {
                    let ctx = span.context();
                    let header = TraceContext {
                        trace: ctx.trace.0,
                        span: ctx.span.0,
                    }
                    .encode();
                    c.send_with_headers(
                        "POST",
                        "/extract?wait",
                        &jobs[job].body,
                        &[(TRACE_HEADER, &header)],
                    )
                }
            },
        };
        let latency = sent.elapsed();
        drop(span);
        let position = u32::try_from(i).expect("fewer than 2^32 requests per phase");
        let failure = match result {
            Ok(response) => {
                let failure = if response.status == 200 {
                    check(job, &response).err()
                } else {
                    Some(format!("HTTP {}", response.status))
                };
                if config.keep_bodies {
                    out.bodies.insert(position, response.body);
                }
                failure
            }
            Err(e) => {
                // A broken connection is replaced; the request counts
                // as failed either way.
                client = connect(config.addr).ok();
                Some(format!("transport: {e}"))
            }
        };
        if let Some(failure) = failure {
            out.failures.insert(position, failure);
        }
        out.samples.push(Sample {
            seq: position,
            job: u32::try_from(job).expect("fewer than 2^32 jobs"),
            latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// Sends one job's body on `client` and times it.
///
/// # Errors
///
/// Propagates transport errors.
pub fn timed_post(client: &mut Client, job: &Job) -> std::io::Result<(Duration, ClientResponse)> {
    let sent = Instant::now();
    let response = client.post("/extract?wait", &job.body)?;
    Ok((sent.elapsed(), response))
}
