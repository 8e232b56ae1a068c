#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under a crate's src/, minus
# top-level `#[cfg(test)]` items (the test modules), files whose parent
# declares them `#[cfg(test)] mod name;`, blank lines and comment-only
# lines. One way to state the number a simplicity PR moves:
#
#   scripts/loc.sh                 # table for the working tree
#   scripts/loc.sh path/to/file.rs # the same count for the named files
#
# Sourced (as scripts/unused.sh does), it only defines its functions.
set -euo pipefail
cd "$(dirname "$0")/.."

# The counted lines of "$@", each as `file:line:text`.
code() {
    awk '
        FNR == 1 { pending = 0; skip = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending { pending = 0; if ($0 !~ /;[[:space:]]*$/) skip = 1; next }
        skip { if ($0 ~ /^\}/) skip = 0; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ":" $0 }
    ' "$@"
}

count() {
    code "$@" | awk 'END { print NR }'
}

# The files of the modules declared under `#[cfg(test)]` by one of "$@":
# `name.rs` or `name/mod.rs` beside `lib.rs`, `main.rs` or `mod.rs`, or
# under `parent/` for `parent.rs`.
test_modules() {
    awk '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && match($0, /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
            name = $0
            sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME
            if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "", dir)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { pending = 0 }
    ' "$@"
}

# The `.rs` files under "$1"/src that are not test modules, one a line.
sources() {
    local files tests
    mapfile -t files < <(find "$1/src" -name '*.rs' | sort)
    mapfile -t tests < <(test_modules "${files[@]}")
    printf '%s\n' "${files[@]}" | grep -vxF -f <(printf '%s\n' "${tests[@]}" "")
}

[ "${BASH_SOURCE[0]}" = "$0" ] || return 0

if [ "$#" -gt 0 ]; then
    count "$@"
    exit
fi

total=0
printf '%-22s %8s\n' crate lines
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    mapfile -t files < <(sources "$dir")
    lines=$(count "${files[@]}")
    name=$(basename "$dir")
    [ "$dir" = . ] && name="(root)"
    printf '%-22s %8d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-22s %8d\n' workspace "$total"
