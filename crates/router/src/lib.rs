//! `fastvg-router` — the fleet front-end for `fastvg-serve`.
//!
//! One router process fronts N independent `fastvg-serve` daemons
//! behind the **unchanged wire protocol**: anything that speaks to a
//! daemon — [`fastvg_serve::Client`], `RemoteExtractor`,
//! `fastvg-loadgen` — can point at a router instead and never know the
//! difference. Behind the listener the router:
//!
//! * places every request on a **weighted consistent-hash ring**
//!   ([`ring`]) keyed by the same canonical-request fingerprint the
//!   daemons cache by, so each key has one *owner* shard and the fleet's
//!   caches partition instead of duplicating;
//! * tracks **per-shard health** ([`health`]): `/healthz` polling plus
//!   in-band failure reporting, ejection after consecutive failures,
//!   exponential-backoff reinstatement, and bounded retries on the next
//!   shard in ring order — with `503` + `retry-after` only when the
//!   whole fleet is out;
//! * **peers caches** ([`proxy`]): on an owner miss it reads sibling
//!   shards' `GET /cache/<fingerprint>` before anyone extracts, seeds
//!   the owner via `PUT /cache/<fingerprint>`, and relays the bytes
//!   with `x-fastvg-cache: peer` — byte-identical to the run that
//!   populated them;
//! * aggregates fleet state at its own `GET /healthz` / `GET /metrics`.
//!
//! The listener reuses the daemon's epoll reactor
//! ([`fastvg_serve::http`]); upstream I/O happens on a worker pool so
//! the reactor thread never blocks. See `docs/FLEET.md` for topology
//! and failure semantics.
//!
//! # In-process quickstart
//!
//! ```
//! use fastvg_router::{start, RouterConfig, ShardSpec};
//! use fastvg_serve::{Client, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two stock daemons…
//! let a = fastvg_serve::start(ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })?;
//! let b = fastvg_serve::start(ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })?;
//!
//! // …and a router fronting them.
//! let router = start(RouterConfig {
//!     addr: "127.0.0.1:0".into(),
//!     shards: vec![
//!         ShardSpec::new(a.addr().to_string()),
//!         ShardSpec::new(b.addr().to_string()),
//!     ],
//!     ..Default::default()
//! })?;
//!
//! // Clients cannot tell the router from a daemon.
//! let mut client = Client::connect(&router.addr().to_string())?;
//! let response = client.post("/extract?wait", br#"{"benchmark": 6}"#)?;
//! assert_eq!(response.status, 200);
//!
//! router.shutdown();
//! router.join();
//! a.shutdown();
//! b.shutdown();
//! a.join();
//! b.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod proxy;
pub mod ring;

pub use health::{FleetHealth, ShardReport, EJECT_AFTER};
pub use proxy::{RouterMetrics, RouterService, MAX_SHARDS};
pub use ring::{HashRing, RingMember, DEFAULT_REPLICAS};

use fastvg_obs::FlusherHandle;
use fastvg_serve::http::{Handler, HttpConfig, HttpServer, ShutdownHandle};
use fastvg_serve::ServeError;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One daemon behind the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Ring weight (relative capacity; default 1).
    pub weight: u32,
}

impl ShardSpec {
    /// A shard with the default weight of 1.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            weight: 1,
        }
    }

    /// Parses `addr` or `addr@weight` (the `--shard` flag syntax).
    ///
    /// # Errors
    ///
    /// Returns a message when the weight is not a positive integer or
    /// the address has no `:` port separator.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (addr, weight) = match spec.rsplit_once('@') {
            None => (spec, 1),
            Some((addr, weight)) => (
                addr,
                weight
                    .parse::<u32>()
                    .map_err(|_| format!("shard weight {weight:?} is not a u32"))?,
            ),
        };
        if !addr.contains(':') {
            return Err(format!("shard {addr:?} is not a host:port address"));
        }
        Ok(Self {
            addr: addr.to_string(),
            weight,
        })
    }
}

/// Router configuration. `Default` is usable for tests except that
/// [`RouterConfig::shards`] must be non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port `0` for ephemeral).
    pub addr: String,
    /// The fleet, in a stable order (the order defines shard indices in
    /// global job ids — keep it consistent across router restarts).
    pub shards: Vec<ShardSpec>,
    /// Backend spec for request validation (must accept the same
    /// requests the daemons do; default `sim`).
    pub backend: String,
    /// Ring vnodes per unit of shard weight.
    pub replicas: usize,
    /// Proxy worker threads (upstream I/O concurrency).
    pub workers: usize,
    /// Parked requests before the router answers `503`.
    pub queue_capacity: usize,
    /// Extra shards tried (in ring order) after a transport failure on
    /// the owner. `0` disables failover.
    pub retries: usize,
    /// Health-probe interval; also the ejection backoff unit.
    pub health_interval: Duration,
    /// Whether to peer sibling caches on owner misses.
    pub peering: bool,
    /// Upstream read deadline per proxied request (sized for `?wait`
    /// extractions, like the client default).
    pub proxy_deadline: Duration,
    /// Upstream TCP connect timeout.
    pub connect_timeout: Duration,
    /// Maximum concurrently open client connections.
    pub max_connections: usize,
    /// Maximum request body bytes (mirrors the daemon bound).
    pub max_body_bytes: usize,
    /// Span export path (newline-JSON). `Some` also traces every
    /// proxied request, not just those carrying `x-fastvg-trace`.
    pub trace_out: Option<PathBuf>,
    /// Fixed trace/span id seed for replay tests (default: entropy).
    pub trace_seed: Option<u64>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8740".into(),
            shards: Vec::new(),
            backend: "sim".into(),
            replicas: DEFAULT_REPLICAS,
            workers: 8,
            queue_capacity: 256,
            retries: 1,
            health_interval: Duration::from_secs(1),
            peering: true,
            proxy_deadline: Duration::from_secs(120),
            connect_timeout: Duration::from_secs(5),
            max_connections: 4096,
            max_body_bytes: 1 << 20,
            trace_out: None,
            trace_seed: None,
        }
    }
}

impl RouterConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.addr.is_empty() || !self.addr.contains(':') {
            return Err(format!("addr {:?} is not a host:port address", self.addr));
        }
        if self.shards.is_empty() {
            return Err("at least one --shard is required".into());
        }
        if self.shards.len() > MAX_SHARDS {
            return Err(format!(
                "{} shards exceed the {MAX_SHARDS}-shard job-id budget",
                self.shards.len()
            ));
        }
        if self.shards.iter().all(|s| s.weight == 0) {
            return Err("every shard has weight 0; the ring would be empty".into());
        }
        let mut addrs: Vec<&str> = self.shards.iter().map(|s| s.addr.as_str()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.len() != self.shards.len() {
            return Err("duplicate shard addresses".into());
        }
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if self.replicas == 0 {
            return Err("replicas must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".into());
        }
        if self.health_interval.is_zero() {
            return Err("health_interval must be positive".into());
        }
        Ok(())
    }
}

/// Errors starting a router.
#[derive(Debug)]
#[non_exhaustive]
pub enum RouterError {
    /// A configuration field was out of range.
    Config(String),
    /// The underlying service failed to start (socket, backend).
    Serve(ServeError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(message) => write!(f, "invalid RouterConfig: {message}"),
            RouterError::Serve(e) => write!(f, "router startup failed: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Config(_) => None,
            RouterError::Serve(e) => Some(e),
        }
    }
}

/// A running router: the reactor, the worker pool, and the health
/// prober.
#[derive(Debug)]
pub struct RouterHandle {
    service: Arc<RouterService>,
    health: Arc<FleetHealth>,
    server: HttpServer,
    workers: Vec<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
    flusher: Option<FlusherHandle>,
}

impl RouterHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared service (metrics and health access for tests).
    pub fn service(&self) -> &RouterService {
        &self.service
    }

    /// A clonable handle that stops the router from anywhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.server.shutdown_handle()
    }

    /// Requests a graceful stop: workers drain, the prober exits, the
    /// acceptor closes.
    pub fn shutdown(&self) {
        self.service.stop_workers();
        self.health.stop();
        self.server.shutdown_handle().shutdown();
    }

    /// Waits for every thread to exit. Call [`RouterHandle::shutdown`]
    /// first (or let `POST /shutdown` do it).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        self.server.join();
        // Dropped last so spans minted during the drain still land in
        // the export file.
        drop(self.flusher.take());
    }
}

/// Boots a router over `config`'s fleet.
///
/// # Errors
///
/// Returns [`RouterError::Config`] for invalid configuration and
/// [`RouterError::Serve`] when the socket cannot be bound or the
/// backend spec does not resolve.
pub fn start(config: RouterConfig) -> Result<RouterHandle, RouterError> {
    config.validate().map_err(RouterError::Config)?;

    let ring = HashRing::with_replicas(
        config
            .shards
            .iter()
            .map(|s| RingMember::weighted(s.addr.clone(), s.weight))
            .collect(),
        config.replicas,
    );
    let health = Arc::new(FleetHealth::new(
        &config
            .shards
            .iter()
            .map(|s| s.addr.clone())
            .collect::<Vec<_>>(),
        config.health_interval,
        fastvg_serve::ClientConfig::new().connect_timeout(config.connect_timeout),
    ));
    let service = Arc::new(
        RouterService::new(&config, ring, Arc::clone(&health)).map_err(RouterError::Serve)?,
    );

    let http = HttpConfig {
        max_connections: config.max_connections,
        max_body_bytes: config.max_body_bytes,
        ..HttpConfig::default()
    };
    let server = HttpServer::bind(&config.addr, Arc::clone(&service) as Arc<dyn Handler>, http)
        .map_err(|e| RouterError::Serve(ServeError::from(e)))?;
    let _ = service.shutdown.set(server.shutdown_handle());
    let _ = service.server_stats.set(server.stats());

    let workers = (0..config.workers)
        .map(|index| {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name(format!("fastvg-router-worker-{index}"))
                .spawn(move || service.work())
                .expect("spawn proxy worker")
        })
        .collect();
    let prober = health::spawn_prober(Arc::clone(&health));
    let flusher = config
        .trace_out
        .is_some()
        .then(|| service.tracer().spawn_flusher(Duration::from_millis(50)));

    Ok(RouterHandle {
        service,
        health,
        server,
        workers,
        prober: Some(prober),
        flusher,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_specs_parse_addr_and_weight() {
        assert_eq!(
            ShardSpec::parse("127.0.0.1:8001").unwrap(),
            ShardSpec::new("127.0.0.1:8001")
        );
        assert_eq!(
            ShardSpec::parse("10.0.0.2:8001@3").unwrap(),
            ShardSpec {
                addr: "10.0.0.2:8001".into(),
                weight: 3
            }
        );
        assert!(ShardSpec::parse("noport").is_err());
        assert!(ShardSpec::parse("h:1@x").is_err());
    }

    #[test]
    fn config_validation_catches_hostile_fleets() {
        let ok = RouterConfig {
            shards: vec![ShardSpec::new("127.0.0.1:1")],
            ..Default::default()
        };
        assert!(ok.validate().is_ok());

        assert!(RouterConfig::default().validate().is_err(), "no shards");
        let dup = RouterConfig {
            shards: vec![ShardSpec::new("a:1"), ShardSpec::new("a:1")],
            ..Default::default()
        };
        assert!(dup.validate().is_err());
        let zero = RouterConfig {
            shards: vec![ShardSpec {
                addr: "a:1".into(),
                weight: 0,
            }],
            ..Default::default()
        };
        assert!(zero.validate().is_err());
        let many = RouterConfig {
            shards: (0..=MAX_SHARDS)
                .map(|i| ShardSpec::new(format!("h:{i}")))
                .collect(),
            ..Default::default()
        };
        assert!(many.validate().is_err());
    }
}
