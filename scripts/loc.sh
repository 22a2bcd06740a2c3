#!/bin/bash
# Counts non-test Rust lines per crate and in total.
#
# A line counts when it sits in a `.rs` file under `crates/*/src`,
# `shims/*/src` or `src/` and comes before the file's `#[cfg(test)]`
# module. Every source file keeps at most one such module, at its end,
# so everything from that attribute on is test code. Blank lines and
# comments count: the number tracks the size of the code paths, not
# their formatting.
#
# Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src shims/*/src src; do
    [ -d "$dir" ] || continue
    count=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
    name=${dir%/src}
    [ "$name" = src ] && name=geo
    printf '%-24s %7d\n' "$name" "$count"
    total=$((total + count))
done
printf '%-24s %7d\n' total "$total"
