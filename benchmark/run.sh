#!/usr/bin/env bash
# Build `repro` and `layerbench` offline, then run the benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--workload W]... [--seed N] [--check-repeat]    a set
#
# See benchmark/README.md. Both binaries go to $CARGO_TARGET_DIR (default:
# the repository's target/), side by side, which is where layerbench looks
# for repro.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's results.
build_started="$(date +%s.%N)"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p mp-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
LAYERBENCH_BUILD_S="$(echo "$(date +%s.%N) $build_started" | awk '{ printf "%.3f", $1 - $2 }')"
export LAYERBENCH_BUILD_S

exec "$target/release/layerbench" "$@"
