#!/usr/bin/env bash
# Builds the benchmark when its binary is missing or older than any
# source it is built from, then runs it with the given arguments:
#
#   bash benchmark/run.sh --workload cold-fast --seed 1 --seconds 25 --trace 0
#
# `cargo run` would do the same, but in a checkout without `.git` the
# daemon crates' build scripts watch a missing `.git/HEAD`, so cargo
# recompiles them on every invocation. This check costs a file scan.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/fastvg-benchmark"
if [[ ! -x "$bin" ]] || [[ -n "$(find Cargo.lock crates vendor benchmark \
    -path benchmark/target -prune -o -type f -newer "$bin" -print -quit)" ]]; then
    cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml \
        --bin fastvg-benchmark
    touch "$bin"
fi
exec "$bin" "$@"
