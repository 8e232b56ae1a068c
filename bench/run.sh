#!/usr/bin/env bash
# The benchmark's one command. Builds bench/ (offline, release, the root
# profile) and runs workloads, each in its own process.
#
#   bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#       Run W (default: all four, one after the other). End-to-end
#       metrics without --trace, per-layer metrics with it. Prints every
#       metric by name with its unit, then one JSON result line per
#       workload; exits non-zero on an incorrect output.
#   bench/run.sh --selftest   cargo test in the bench workspace
#   bench/run.sh --repeat     run the end-to-end set twice, write
#                             bench/out/repeat.json, exit non-zero if a
#                             metric does not repeat within its bound
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
out="$here/out"
# The driver points CARGO_TARGET_DIR into its checkout; a bare run keeps
# build output next to the sources.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

workloads=(serve-tcp-write serve-tcp-read serve-chan-matrix sim-paper-n40)
mode=run
workload=""
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --selftest) mode=selftest; shift ;;
    --repeat) mode=repeat; shift ;;
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --trace)
      case "${2:-}" in
        0|1) pass+=(--trace "$2"); shift 2 ;;
        *) pass+=(--trace 1); shift ;;
      esac ;;
    --seed|--seconds) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"

if [ "$mode" = selftest ]; then
  # Release: the selftests run real (short) workloads.
  exec cargo test --release --offline --manifest-path "$manifest"
fi

cargo build --release --offline --manifest-path "$manifest" >&2
bin="$target/release/layerbench"

if [ "$mode" = repeat ]; then
  rm -rf "$out/repeat"
  mkdir -p "$out/repeat"
  for set in A B; do
    for w in "${workloads[@]}"; do
      echo "== set $set: $w" >&2
      "$bin" --workload "$w" --out "$out" ${pass[@]+"${pass[@]}"} --trace 0 | tee /dev/stderr | tail -n 1 \
        > "$out/repeat/$set-$w.json"
    done
  done
  exec "$bin" --compare "$out/repeat" --out "$out"
fi

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --out "$out" ${pass[@]+"${pass[@]}"}
fi
status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --out "$out" ${pass[@]+"${pass[@]}"} || status=$?
done
exit "$status"
