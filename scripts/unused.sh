#!/usr/bin/env bash
# A census of unused public surface, report-only: each `pub fn`, `struct`,
# `enum` or `const` under crates/*/src whose name appears on no non-test
# line but its own definition. Test code is what scripts/loc.sh leaves out
# (top-level `#[cfg(test)]` items and the modules declared under them, and
# comment lines), plus every tests/ directory; the non-test lines of src/,
# bench/src and examples/ count as callers too. A name is matched as a
# whole word, so two items sharing a name hide each other.
#
#   scripts/unused.sh   # one `file:line: kind name` line per unused item
source "$(dirname "$0")/loc.sh"

mapfile -t files < <(for dir in . crates/* bench; do
    [ -d "$dir/src" ] && sources "$dir"
done; ls examples/*.rs)
code "${files[@]}" | awk '
    {
        file = $0; sub(/:.*/, "", file)
        text = $0; sub(/^[^:]*:[^:]*:/, "", text)
        split("", seen)
        n = split(text, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (words[i] != "" && !(words[i] in seen)) {
            seen[words[i]] = 1
            lines[words[i]]++
        }
        if (file ~ /^crates\/[^\/]+\/src\// &&
            match(text, /(^|[^A-Za-z0-9_])pub (const fn|fn|struct|enum|const) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(text, RSTART, RLENGTH)
            sub(/^[^p]*pub /, "", def)
            name = def; sub(/.* /, "", name)
            kind = def; sub(/ [^ ]*$/, "", kind); sub(/^const fn$/, "fn", kind)
            split($0, at, ":")
            defs[++ndefs] = at[1] ":" at[2] ": " kind " " name
            names[ndefs] = name
        }
    }
    END {
        for (i = 1; i <= ndefs; i++) if (lines[names[i]] == 1) print defs[i]
    }
' | sort -t: -k1,1 -k2,2n
