#!/bin/sh
# Counts the non-test lines of the workspace's Rust sources: every `.rs`
# file under `crates/*/src` (the vendored shims in `crates/vendor` are
# left out) and under `src/`, each read up to its first `#[cfg(test)]`
# line. Blank and comment lines count. Prints one line per crate, then
# the total.
#
# Usage: scripts/loc.sh [checkout]   (default: the checkout holding this script)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

count() {
    find "$@" -name '*.rs' -type f | sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    case $dir in crates/vendor/*) continue ;; esac
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
