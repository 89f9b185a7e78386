#!/usr/bin/env bash
# Builds the benchmark (both binaries, release, offline) and runs it.
# This is BENCHMARK.json's `command`; arguments go to `ctr-bench`
# unchanged, e.g.
#   bash benchmark/run.sh --workload fleet_mem --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh run --seed 1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/ctr-bench" "$@"
