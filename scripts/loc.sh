#!/usr/bin/env bash
# The size scoreboard: non-test lines per crate, their total, and the
# `unsafe` and `SAFETY` counts, all over `crates/*/src`.
#
#   scripts/loc.sh [REPO_DIR]
#
# A file's non-test lines are its lines before its first column-0
# `#[cfg(test)]` (the whole file when there is none); binaries under
# `src/bin` count like any other source. `unsafe` counts the lines that
# contain the string `unsafe` (blocks, impls, lint names), `SAFETY` the
# lines that contain `SAFETY`, test modules included. Prints only; the
# exit status is 0 unless a file cannot be read. REPO_DIR defaults to the
# checkout this script lives in.
set -euo pipefail

repo="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$repo"

total=0
for src in crates/*/src; do
    krate="${src#crates/}"
    krate="${krate%/src}"
    lines=$(find "$src" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$krate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
printf '%-10s %6d\n' unsafe "$(grep -r --include='*.rs' unsafe crates/*/src | wc -l)"
printf '%-10s %6d\n' SAFETY "$(grep -r --include='*.rs' SAFETY crates/*/src | wc -l)"
