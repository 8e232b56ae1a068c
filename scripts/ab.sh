#!/usr/bin/env bash
# Compare two revisions on one benchmark workload, the way a performance
# claim is judged: both are built from `git archive` snapshots, each into
# its own CARGO_TARGET_DIR under $TMPDIR, and their `bench/run.sh
# --workload W` runs alternate (the side that goes first alternates too),
# because this kind of host changes speed for minutes at a time and
# back-to-back blocks of one side would compare speeds, not commits.
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload> [--pairs N] [--seconds S] [--seed S]
#
# Prints the host's steal ticks and any stray simulate/repro/layerbench
# process first (either skews every number), then each pair's end-to-end
# values with the change/parent ratio, then per metric each side's median,
# quartiles and range, how many pairs separated (the change better than
# the parent in that pair, by the metric's direction in BENCHMARK.json),
# and whether that makes a gain: at least nine tenths of the pairs, and
# medians further apart than the parent's quartiles. Defaults: 10 pairs,
# the workload's own seconds, seed 7.
set -euo pipefail

usage="usage: $0 <parent-rev> <change-rev> <workload> [--pairs N] [--seconds S] [--seed S]"
[ "$#" -ge 3 ] || { echo "$usage" >&2; exit 2; }
parent=$1 change=$2 workload=$3
shift 3
pairs=10 seed=7 seconds=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --seed) seed=${2:?--seed needs a value}; shift 2 ;;
        --seconds) seconds=(--seconds "${2:?--seconds needs a value}"); shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab: working in $work" >&2

steal() { awk '/^cpu /{print $9}' /proc/stat; }
echo "steal ticks: $(steal)"
strays=$(ps -eo pid,args | grep -E 'simulate|repro|layerbench' | grep -v -E 'grep|ab\.sh' || true)
echo "stray processes: ${strays:-none}"

for side in parent change; do
    rev=${!side}
    mkdir -p "$work/$side/src"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side/src"
    echo "ab: building $side ($rev)" >&2
    CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline -q \
        --manifest-path "$work/$side/src/bench/Cargo.toml" >&2
done

# One run of `side`: its result line (the last line run.sh prints).
run() {
    CARGO_TARGET_DIR="$work/$1/target" "$work/$1/src/bench/run.sh" \
        --workload "$workload" --seed "$seed" ${seconds[@]+"${seconds[@]}"} 2>/dev/null | tail -n 1
}

results="$work/results.jsonl"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(run parent)
        c=$(run change)
    else
        c=$(run change)
        p=$(run parent)
    fi
    printf '{"pair": %d, "parent": %s, "change": %s}\n' "$i" "$p" "$c" >>"$results"
    echo "ab: pair $i/$pairs done, steal ticks $(steal)" >&2
done

python3 - "$results" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
names = [n for n in rows[0]["parent"]["metrics"] if n in better]

def value(row, side, name):
    return row[side]["metrics"][name]["value"]

for row in rows:
    for side in ("parent", "change"):
        if not row[side]["correct"]:
            print(f"pair {row['pair']}: {side} run reported an incorrect output")
print("pair  " + "  ".join(f"{n:>28}" for n in names))
for row in rows:
    cells = []
    for n in names:
        p, c = value(row, "parent", n), value(row, "change", n)
        ratio = f"{c / p:.3f}" if p else "-"
        cells.append(f"{p:>9.4g} {c:>9.4g} {ratio:>8}")
    print(f"{row['pair']:>4}  " + "  ".join(cells))
print()

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3

for n in names:
    ps = [value(r, "parent", n) for r in rows]
    cs = [value(r, "change", n) for r in rows]
    lower = better[n] == "lower"
    sep = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    pm, cm = statistics.median(ps), statistics.median(cs)
    (p1, p3), (c1, c3) = quartiles(ps), quartiles(cs)
    change = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "-"
    gain = sep >= 0.9 * len(rows) and abs(cm - pm) > p3 - p1
    print(
        f"{n}: parent median {pm:.4g} (quartiles {p1:.4g}, {p3:.4g}; range {min(ps):.4g}..{max(ps):.4g}), "
        f"change median {cm:.4g} (quartiles {c1:.4g}, {c3:.4g}; range {min(cs):.4g}..{max(cs):.4g}), {change}; "
        f"change better in {sep} of {len(rows)} pairs ({better[n]} is better); "
        f"{'a gain' if gain else 'no gain shown'}"
    )
EOF
