//! Stamps the compiler version, git revision and build profile into the
//! benchmark binary, so every result names the build it came from.
//! Missing metadata becomes "unknown"; the build never fails over it.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("-V"));

    // Look for the repository only at the benchmark's parent directory:
    // the ceiling keeps git from picking up an enclosing repository.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let root = Path::new(&manifest).parent().unwrap_or(Path::new("."));
    let ceiling = root.parent().unwrap_or(root);
    let git = output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );

    let profile = std::env::var("PROFILE").ok();
    for (key, value) in [
        ("FASTVG_BENCH_RUSTC", version),
        ("FASTVG_BENCH_GIT", git),
        ("FASTVG_BENCH_PROFILE", profile),
    ] {
        let value = value.unwrap_or_else(|| "unknown".into());
        println!("cargo:rustc-env={key}={value}");
    }
    // Only existing paths: cargo reruns a script on every build while a
    // watched path is missing, as it is in a checkout without `.git`.
    println!("cargo:rerun-if-changed=build.rs");
    for watched in [".git/HEAD", ".git/refs", ".git/packed-refs"] {
        if root.join(watched).exists() {
            println!("cargo:rerun-if-changed=../{watched}");
        }
    }
}
