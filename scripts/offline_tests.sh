#!/usr/bin/env bash
# Run the root workspace's tests without a crates registry.
#
# `cargo test` at the root needs proptest and criterion, which cannot be
# fetched offline. This script copies the committed tree to a scratch
# directory, drops those two dev-dependencies (parking `tests/proptest_*.rs`,
# stripping `crates/bench`'s Criterion `[[bench]]` targets and excluding
# `benchmark`), points `[patch.crates-io]` at the stand-ins under
# `benchmark/standins/` (rayon is sequential there), and runs everything
# else. Nothing in the checkout is modified.
#
# usage: scripts/offline_tests.sh [--dir DIR] [`cargo test` arguments]
#   With no arguments the whole workspace is tested (`--workspace
#   --no-fail-fast`); e.g. `-p packfree --lib experiment` narrows it.
#   --dir DIR   work in DIR (kept afterwards, so a second run is incremental)
#               instead of a fresh temporary directory
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
work=""
if [[ "${1:-}" == "--dir" ]]; then
    work="$2"
    shift 2
fi
if [[ -z "$work" ]]; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
# Keep only the build cache of an earlier run; sources are copied anew.
find "$work" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +

# The working tree as it is (tracked and untracked, minus ignored files),
# so the script tests uncommitted edits too.
(cd "$repo" && git ls-files -z --cached --others --exclude-standard) |
    (cd "$repo" && tar --null --ignore-failed-read -T - -cf -) |
    tar -C "$work" -xf -
cd "$work"

mkdir -p parked
for f in tests/proptest_*.rs; do
    [[ -e "$f" ]] && mv "$f" parked/
done

sed -i -E '/^(proptest|criterion)(\.workspace)? *=/d' Cargo.toml crates/*/Cargo.toml
# The Criterion benches cannot build without criterion: drop their
# three-line `[[bench]]` tables and sources so the crate's lib and bins
# stay in (and `--all-targets` does not rediscover them).
sed -i '/^\[\[bench\]\]$/,+2d' crates/bench/Cargo.toml
rm -r crates/bench/benches
sed -i 's|^members = \["crates/\*"\]|members = ["crates/*"]\nexclude = ["benchmark"]|' Cargo.toml
cat >>Cargo.toml <<'EOF'

[patch.crates-io]
libc = { path = "benchmark/standins/libc" }
rayon = { path = "benchmark/standins/rayon" }
parking_lot = { path = "benchmark/standins/parking_lot" }
rand = { path = "benchmark/standins/rand" }
EOF

if [[ $# -eq 0 ]]; then
    set -- --workspace --no-fail-fast
fi
cargo test --release --offline "$@"
