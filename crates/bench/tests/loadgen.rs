//! `fastvg-loadgen --expect-cache-hits` is a gate, so it must be able to
//! fail: against an in-process daemon it passes with the result cache on
//! and exits non-zero with the cache turned off.

use fastvg_serve::{start, CacheConfig, ServeConfig};
use std::process::{Command, Output};

/// Runs the smoke against a fresh daemon with the given cache sizing.
fn run_loadgen(cache: CacheConfig) -> Output {
    let daemon = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache,
        ..ServeConfig::default()
    })
    .expect("start in-process daemon");
    let output = Command::new(env!("CARGO_BIN_EXE_fastvg-loadgen"))
        .args(["--addr", &daemon.addr().to_string()])
        .args(["--connections", "4", "--passes", "2", "--expect-cache-hits"])
        .output()
        .expect("run fastvg-loadgen");
    daemon.shutdown();
    daemon.join();
    output
}

#[test]
fn expect_cache_hits_passes_with_the_cache_on() {
    let output = run_loadgen(CacheConfig::default());
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn expect_cache_hits_fails_with_the_cache_off() {
    let output = run_loadgen(CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    });
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(
        stderr.contains("every post-cold request must hit the cache"),
        "{stderr}"
    );
}
