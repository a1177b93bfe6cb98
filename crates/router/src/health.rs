//! Per-shard health tracking: `/healthz` polling, ejection after
//! consecutive failures, and exponential-backoff reinstatement probes.
//!
//! The router never *blocks* a request on a health check. A background
//! thread polls each shard's `GET /healthz` on a fixed interval; proxy
//! traffic feeds the same state through
//! [`FleetHealth::report_failure`] / [`FleetHealth::report_success`], so
//! a dying shard is ejected by the very requests it is failing, not only
//! at the next poll tick. An ejected shard is re-probed on an
//! exponential schedule (`interval × 2^(strikes−1)`, capped) and a
//! single successful probe reinstates it — the cheap half of the
//! circuit-breaker pattern, which is all a fleet of identical
//! stateless-protocol daemons needs.

use fastvg_serve::ClientConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive failures before a shard is ejected from routing.
pub const EJECT_AFTER: u32 = 3;

/// Cap on the reinstatement-probe backoff multiplier (2^5 = 32×).
const MAX_BACKOFF_SHIFT: u32 = 5;

/// Mutable per-shard state, guarded by one mutex per shard.
#[derive(Debug)]
struct ShardState {
    /// Consecutive failures; `>= EJECT_AFTER` means ejected.
    strikes: u32,
    /// When an ejected shard may next be probed.
    retry_at: Instant,
    /// Total transitions into the ejected state (monotonic).
    ejections: u64,
    /// Last `/healthz` round-trip, for the aggregate report.
    last_probe: Option<Duration>,
}

/// One shard as the health layer sees it.
#[derive(Debug)]
pub struct Shard {
    /// Daemon address, e.g. `127.0.0.1:8001`.
    pub addr: String,
    state: Mutex<ShardState>,
}

/// A point-in-time view of one shard, for `/healthz` aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Daemon address.
    pub addr: String,
    /// Whether the shard currently receives traffic.
    pub healthy: bool,
    /// Consecutive failures so far.
    pub strikes: u32,
    /// Times the shard has been ejected since the router started.
    pub ejections: u64,
    /// Last health-probe round-trip in microseconds, if probed.
    pub probe_us: Option<u64>,
}

/// Health state for the whole fleet plus the probe thread's config.
#[derive(Debug)]
pub struct FleetHealth {
    shards: Vec<Shard>,
    /// Base probe interval; also the unit of the ejection backoff.
    interval: Duration,
    client: ClientConfig,
    stop: AtomicBool,
}

impl FleetHealth {
    /// Tracks `addrs`, all initially healthy.
    pub fn new(addrs: &[String], interval: Duration, client: ClientConfig) -> Self {
        let now = Instant::now();
        Self {
            shards: addrs
                .iter()
                .map(|addr| Shard {
                    addr: addr.clone(),
                    state: Mutex::new(ShardState {
                        strikes: 0,
                        retry_at: now,
                        ejections: 0,
                        last_probe: None,
                    }),
                })
                .collect(),
            interval,
            client,
            stop: AtomicBool::new(false),
        }
    }

    fn state(&self, index: usize) -> std::sync::MutexGuard<'_, ShardState> {
        self.shards[index].state.lock().expect("health poisoned")
    }

    fn index_of(&self, addr: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.addr == addr)
    }

    /// Whether `addr` currently receives traffic.
    pub fn is_healthy(&self, addr: &str) -> bool {
        self.index_of(addr)
            .is_some_and(|i| self.state(i).strikes < EJECT_AFTER)
    }

    /// Records a failed request or probe against `addr`. On the strike
    /// that ejects the shard, schedules the first reinstatement probe
    /// one interval out; each further failure doubles the wait (capped).
    pub fn report_failure(&self, addr: &str) {
        let Some(index) = self.index_of(addr) else {
            return;
        };
        let mut state = self.state(index);
        let was_healthy = state.strikes < EJECT_AFTER;
        state.strikes = state.strikes.saturating_add(1);
        if was_healthy && state.strikes >= EJECT_AFTER {
            state.ejections += 1;
        }
        if state.strikes >= EJECT_AFTER {
            let shift = (state.strikes - EJECT_AFTER).min(MAX_BACKOFF_SHIFT);
            state.retry_at = Instant::now() + self.interval * (1 << shift);
        }
    }

    /// Records a successful request or probe: one success fully
    /// reinstates the shard.
    pub fn report_success(&self, addr: &str) {
        if let Some(index) = self.index_of(addr) {
            self.state(index).strikes = 0;
        }
    }

    /// How long until the soonest ejected shard is probed again —
    /// the router's `retry-after` hint when the whole fleet is out.
    pub fn retry_after_hint(&self) -> Duration {
        let now = Instant::now();
        (0..self.shards.len())
            .map(|i| self.state(i).retry_at.saturating_duration_since(now))
            .min()
            .unwrap_or(self.interval)
            .max(Duration::from_secs(1))
    }

    /// Point-in-time reports for every shard, in configuration order.
    pub fn reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let state = self.state(i);
                ShardReport {
                    addr: shard.addr.clone(),
                    healthy: state.strikes < EJECT_AFTER,
                    strikes: state.strikes,
                    ejections: state.ejections,
                    probe_us: state.last_probe.map(|d| d.as_micros() as u64),
                }
            })
            .collect()
    }

    /// One poll sweep: probes every healthy shard, and ejected shards
    /// whose backoff has elapsed. Called by [`spawn_prober`], and by
    /// tests that drive the clock themselves.
    fn probe_once(&self) {
        for shard in &self.shards {
            {
                let state = self.shards[self.index_of(&shard.addr).unwrap()]
                    .state
                    .lock()
                    .expect("health poisoned");
                if state.strikes >= EJECT_AFTER && Instant::now() < state.retry_at {
                    continue; // still backing off
                }
            }
            let started = Instant::now();
            let healthy = self.probe(&shard.addr);
            let elapsed = started.elapsed();
            if let Some(index) = self.index_of(&shard.addr) {
                self.state(index).last_probe = Some(elapsed);
            }
            if healthy {
                self.report_success(&shard.addr);
            } else {
                self.report_failure(&shard.addr);
            }
        }
    }

    /// One `GET /healthz` round trip; any transport error or non-200 is
    /// unhealthy.
    fn probe(&self, addr: &str) -> bool {
        let Ok(mut client) = self.client.connect(addr) else {
            return false;
        };
        matches!(client.get("/healthz"), Ok(response) if response.status == 200)
    }

    /// Asks the probe thread to exit at its next tick.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Starts the background probe loop; returns its join handle. The loop
/// sleeps in short slices so [`FleetHealth::stop`] is honored promptly.
pub fn spawn_prober(health: Arc<FleetHealth>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("fastvg-router-health".into())
        .spawn(move || {
            while !health.stop.load(Ordering::Acquire) {
                health.probe_once();
                let mut slept = Duration::ZERO;
                while slept < health.interval && !health.stop.load(Ordering::Acquire) {
                    let slice = Duration::from_millis(25).min(health.interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })
        .expect("spawn health prober")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(addrs: &[&str]) -> FleetHealth {
        FleetHealth::new(
            &addrs.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            Duration::from_millis(50),
            ClientConfig::new(),
        )
    }

    #[test]
    fn strikes_eject_and_success_reinstates() {
        let h = fleet(&["a:1", "b:2"]);
        assert!(h.is_healthy("a:1"));
        for _ in 0..EJECT_AFTER - 1 {
            h.report_failure("a:1");
            assert!(h.is_healthy("a:1"), "below the ejection threshold");
        }
        h.report_failure("a:1");
        assert!(!h.is_healthy("a:1"));
        assert!(h.is_healthy("b:2"), "ejection is per shard");
        assert_eq!(h.reports().iter().filter(|r| r.healthy).count(), 1);
        h.report_success("a:1");
        assert!(h.is_healthy("a:1"), "one success reinstates");
        assert_eq!(h.reports()[0].ejections, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let h = fleet(&["a:1"]);
        for _ in 0..EJECT_AFTER {
            h.report_failure("a:1");
        }
        let first = h.state(0).retry_at;
        for _ in 0..20 {
            h.report_failure("a:1"); // far past the cap
        }
        let capped = h.state(0).retry_at;
        let max = Duration::from_millis(50) * (1 << MAX_BACKOFF_SHIFT);
        assert!(capped > first);
        assert!(
            capped.saturating_duration_since(Instant::now()) <= max + Duration::from_millis(5),
            "backoff must cap at {max:?}"
        );
        assert!(h.retry_after_hint() >= Duration::from_secs(1));
    }

    #[test]
    fn unknown_addresses_are_ignored() {
        let h = fleet(&["a:1"]);
        h.report_failure("nope:9");
        h.report_success("nope:9");
        assert!(!h.is_healthy("nope:9"));
        assert!(h.is_healthy("a:1"));
    }

    #[test]
    fn probe_marks_unreachable_shards_down() {
        // Nothing listens on this address; three sweeps must eject it.
        let h = fleet(&["127.0.0.1:1"]);
        for _ in 0..EJECT_AFTER {
            h.probe_once();
        }
        assert!(!h.is_healthy("127.0.0.1:1"));
        let report = &h.reports()[0];
        assert!(!report.healthy);
        assert!(report.probe_us.is_some());
    }
}
