#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh [--seed N] [--quick] [--sets K]
#       build release, run every workload untraced then traced, print every
#       metric, check outputs, write bench/out/result.json; non-zero exit on
#       any wrong result.
#   bench/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one workload, one process; the last stdout line is the result object
#       BENCHMARK.json describes.
#   bench/run.sh compare <a.json> <b.json>
#
# Builds offline into $CARGO_TARGET_DIR (default: <repo>/target/bench).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/bench}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/ninf-perf"

mode=run
for arg in "$@"; do
  case "$arg" in
    --workload) mode=workload ;;
    compare) mode=compare ;;
  esac
done
case "$mode" in
  workload) exec "$bin" workload --out "$here/out" "$@" ;;
  compare) exec "$bin" "$@" ;;
  run) exec "$bin" run --out "$here/out" "$@" ;;
esac
