#!/usr/bin/env bash
# Everything a behaviour-preserving refactor must leave byte-identical,
# produced by the binaries in <bin-dir> and written under <out-dir>: CLI
# output and JSONL traces of `simulate` across the fault / crash / WAL /
# churn / stability matrix for all five protocols, and the quick sweep
# tables with their traces. Wall-clock lines are filtered, so two builds
# of the same behaviour compare equal:
#
#   scripts/goldens.sh parent/ a && scripts/goldens.sh target/release/ b && diff -r a b
set -euo pipefail

[ "$#" -eq 2 ] || { echo "usage: $0 <bin-dir> <out-dir>" >&2; exit 2; }
bin=$(cd "$1" && pwd)
mkdir -p "$2/simulate"
# Paths are given relative to <out-dir>, so the ones the binaries echo
# compare equal too.
cd "$2"

# Lines that report the real clock, and `soak`'s peak RSS.
wallclock='wall time|checked .* in .* s|done in|drained in|peak RSS'

# name | flags, run once per protocol.
scenarios=(
    "plain|--n 10 --events 200 --seed 3"
    "partition|--n 10 --events 200 --seed 3 --partition 200:600"
    "chaos|--n 5 --events 100 --faults 0.1,0.02 --crash 2:400:800"
    "lossy|--n 8 --events 150 --seed 6 --q 10 --faults 0.3,0.05"
    "churn|--n 8 --events 80 --seed 2 --churn join:7@5s;migrate:3:0->7@20s;leave:2@40s;crash-leave:4@60s"
    "crash-leave|--n 6 --seed 1 --churn crash-leave:2@11138ms"
    "stability|--n 10 --events 200 --seed 5 --stability"
    "stability-chaos|--n 6 --events 120 --stability --faults 0.1,0.02 --crash 1:300:900"
    "wal|--n 10 --events 60 --seed 1 --wal --checkpoint-interval 400 --fetch-deadline 150 --crash 0:500:1400 --crash 1:700:1600 --crash 2:900:1800"
    "media|--n 5 --events 60 --seed 2 --wal --fetch-deadline 150 --crash 2:600:1300:media"
    "stability-wal|--n 6 --events 40 --stability --wal --checkpoint-interval 400"
)

for protocol in full-track opt-track opt-track-crp optp hb-track; do
    for scenario in "${scenarios[@]}"; do
        name=${scenario%%|*}
        read -r -a flags <<<"${scenario#*|}"
        stem="simulate/$protocol.$name"
        # A binary whose run never quiesces (before PR 23, `stability-wal`:
        # the two ticks re-armed each other) leaves a one-line file, not a
        # hung job and a trace of unbounded length.
        status=0
        timeout 20 "$bin/simulate" --protocol "$protocol" "${flags[@]}" \
            --trace "$stem.jsonl" --verify-trace --check >"$stem.out" 2>&1 || status=$?
        if [ "$status" -eq 124 ]; then
            echo "timed out" >"$stem.txt"
            rm -f "$stem.jsonl"
        elif [ "$status" -eq 0 ]; then
            grep -Ev "$wallclock" "$stem.out" >"$stem.txt"
        else
            cat "$stem.out" >&2
            exit "$status"
        fi
        rm -f "$stem.out"
    done
done

for job in chaos durability churn batching storage soak table4; do
    mkdir -p "repro/$job"
    "$bin/repro" "$job" --quick \
        --out "repro/$job" --trace-dir "repro/$job/traces" 2>&1 |
        grep -Ev "$wallclock" >"repro/$job/stdout.txt"
    # Binaries from before the cell cache was removed keep one under --out.
    rm -rf "repro/$job/cache"
done
