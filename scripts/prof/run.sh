#!/usr/bin/env bash
# Profile one run of a binary with the SIGPROF sampler, every thread
# included (gprofng in this sandbox samples the main thread only):
#
#   scripts/prof/run.sh [--callers NAME] [--lines NAME] <binary> <args...>
#
# --callers NAME lists who calls the functions whose name contains NAME;
# --lines NAME breaks their exclusive samples down by source line, through
# the inlining (addr2line -i, innermost three levels) — a function's self
# time is often one line of something inlined into it.
#
# Builds no Rust. The one requirement is that the binary keeps frame
# pointers, so build it into a target directory of its own first:
#
#   RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=/root/scratch/fp \
#       cargo build --release --offline        # or --manifest-path bench/Cargo.toml
#   scripts/prof/run.sh /root/scratch/fp/release/simulate --protocol optp --n 40 --events 40000
#   scripts/prof/run.sh --callers drain /root/scratch/fp/release/layerbench \
#       --cell saturated --workload serve-tcp-write --seed 7 --seconds 20
#   scripts/prof/run.sh --lines on_message /root/scratch/fp/release/layerbench \
#       --cell saturated --workload serve-chan-matrix --seed 7 --seconds 15
#
# Needs gcc, addr2line and python3, all in the container. The dump stays in
# $SAMP_OUT (default: a temp file, named on stderr) for another report.py
# pass. Only the named binary is sampled, not the processes it spawns.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
report=()
while [ "${1:-}" = --callers ] || [ "${1:-}" = --lines ]; do
  report+=("$1" "${2:?$1 needs a name}")
  shift 2
done
[ $# -ge 1 ] || { sed -n '2,25p' "$0" >&2; exit 2; }

lib="${TMPDIR:-/tmp}/samp-$(id -u).so"
if [ ! "$lib" -nt "$here/samp.c" ]; then
  gcc -O2 -shared -fPIC -o "$lib" "$here/samp.c"
fi
export SAMP_OUT="${SAMP_OUT:-$(mktemp "${TMPDIR:-/tmp}/samp.XXXXXX")}"
echo "samp: dump in $SAMP_OUT" >&2
LD_PRELOAD="$lib" "$@" >&2
exec python3 "$here/report.py" "$SAMP_OUT" ${report[@]+"${report[@]}"}
