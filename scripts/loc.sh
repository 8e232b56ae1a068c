#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under a crate's src/, minus
# top-level `#[cfg(test)]` items (the test modules), blank lines and
# comment-only lines. One way to state the number a simplicity PR moves:
#
#   scripts/loc.sh                 # table for the working tree
#   scripts/loc.sh path/to/file.rs # the same count for the named files
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { pending = 0; skip = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending { pending = 0; if ($0 !~ /;[[:space:]]*$/) skip = 1; next }
        skip { if ($0 ~ /^\}/) skip = 0; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

if [ "$#" -gt 0 ]; then
    count "$@"
    exit
fi

total=0
printf '%-22s %8s\n' crate lines
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
    lines=$(count "${files[@]}")
    name=$(basename "$dir")
    [ "$dir" = . ] && name="(root)"
    printf '%-22s %8d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-22s %8d\n' workspace "$total"
