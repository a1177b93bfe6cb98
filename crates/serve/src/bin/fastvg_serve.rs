//! The `fastvg-serve` daemon binary.
//!
//! ```sh
//! cargo run --release -p fastvg-serve -- --addr 127.0.0.1:8737
//! curl -s localhost:8737/healthz
//! curl -s -X POST localhost:8737/extract?wait -d '{"benchmark": 6}'
//! curl -s -X POST localhost:8737/shutdown
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:8737`; port
//!   `0` picks an ephemeral port, printed on stdout).
//! * `--jobs N` — long-lived extraction workers, each running one job
//!   start to finish (default: one per core).
//! * `--max-connections N` — concurrently open connections before the
//!   reactor answers `503` at accept (default 4096).
//! * `--read-deadline-s SECS` — per-request read deadline, the
//!   anti-slowloris bound (default 30).
//! * `--idle-timeout-s SECS` — keep-alive idle timeout between requests
//!   (default 10).
//! * `--drain-deadline-s SECS` — graceful-shutdown drain bound
//!   (default 30).
//! * `--queue-capacity N` — pending jobs before 503 (default 256).
//! * `--cache-capacity N` — cached results, `0` disables (default 1024).
//! * `--cache-shards N` — cache lock shards (default 8).
//! * `--backend SPEC` — default probe backend for scenarios
//!   (`sim`, `throttled:<dwell>`, `record:<tape>[+inner]`,
//!   `replay:<tape>`; default `sim`). Requests may override with their
//!   own (restricted) `"backend"` member.
//! * `--no-cache-peering` — disable the `GET`/`PUT /cache/<fingerprint>`
//!   peering surface (`fastvg-router` uses it to share warm results
//!   across a fleet; see `docs/FLEET.md`).
//! * `--trace-out PATH` — export finished spans as newline-JSON to
//!   `PATH` and trace every request (see `docs/OBSERVABILITY.md`).
//! * `--trace-seed N` — fixed trace/span id seed for replay tests
//!   (default: entropy).
//! * `--slow-ms MS` — log a rate-limited structured line (JSON on
//!   stderr, with the trace id) for requests slower than `MS`
//!   milliseconds (default: off).
//! * `--shutdown-after SECS` — stop gracefully after a deadline (CI
//!   smoke harnesses; `std` cannot catch SIGTERM, so the deadline and
//!   `POST /shutdown` are the daemon's stop channels).

use fastvg_serve::{start, CacheConfig, ServeConfig};
use std::time::Duration;

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let value = args
        .next()
        .unwrap_or_else(|| panic!("{flag} expects a value"));
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag} got malformed value {value:?}"))
}

fn main() {
    let mut config = ServeConfig::default();
    let mut cache = CacheConfig::default();
    let mut shutdown_after: Option<u64> = None;

    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse_flag(&mut args, "--addr"),
            "--jobs" => config.extract_jobs = parse_flag(&mut args, "--jobs"),
            "--max-connections" => {
                config.max_connections = parse_flag(&mut args, "--max-connections")
            }
            "--read-deadline-s" => {
                config.request_read_deadline =
                    Duration::from_secs(parse_flag(&mut args, "--read-deadline-s"))
            }
            "--idle-timeout-s" => {
                config.idle_timeout = Duration::from_secs(parse_flag(&mut args, "--idle-timeout-s"))
            }
            "--drain-deadline-s" => {
                config.drain_deadline =
                    Duration::from_secs(parse_flag(&mut args, "--drain-deadline-s"))
            }
            "--queue-capacity" => config.queue_capacity = parse_flag(&mut args, "--queue-capacity"),
            "--cache-capacity" => cache.capacity = parse_flag(&mut args, "--cache-capacity"),
            "--cache-shards" => cache.shards = parse_flag(&mut args, "--cache-shards"),
            "--max-body-bytes" => config.max_body_bytes = parse_flag(&mut args, "--max-body-bytes"),
            "--wait-timeout-s" => {
                config.wait_timeout = Duration::from_secs(parse_flag(&mut args, "--wait-timeout-s"))
            }
            "--backend" => config.backend = parse_flag(&mut args, "--backend"),
            "--no-cache-peering" => config.cache_peering = false,
            "--trace-out" => {
                config.trace_out = Some(parse_flag::<String>(&mut args, "--trace-out").into())
            }
            "--trace-seed" => config.trace_seed = Some(parse_flag(&mut args, "--trace-seed")),
            "--slow-ms" => {
                config.slow_threshold =
                    Some(Duration::from_millis(parse_flag(&mut args, "--slow-ms")))
            }
            "--shutdown-after" => shutdown_after = Some(parse_flag(&mut args, "--shutdown-after")),
            other => {
                eprintln!("unknown flag {other:?} (see the crate docs for the flag list)");
                std::process::exit(2);
            }
        }
    }
    config.cache = cache;

    let daemon = match start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("fastvg-serve failed to start: {e}");
            std::process::exit(1);
        }
    };
    // The line scripts grep for; flush so pipes see it immediately.
    println!("fastvg-serve listening on http://{}", daemon.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if let Some(secs) = shutdown_after {
        let handle = daemon.shutdown_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(secs));
            handle.shutdown();
        });
    }

    // Runs until POST /shutdown, a ShutdownHandle, or --shutdown-after.
    let handle = daemon.shutdown_handle();
    while !handle.is_shutdown() {
        std::thread::sleep(Duration::from_millis(100));
    }
    daemon.shutdown(); // stop the queue too, then drain
    daemon.join();
    println!("fastvg-serve stopped");
}
