#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, then `brickbench compare`.
#
#   scripts/pairs.sh [-n PAIRS] [-s SECONDS] [-w "WORKLOAD ..."] [-o DIR] PARENT_REV
#
# Builds the benchmark twice — side A from a `git archive` of PARENT_REV,
# side B from the working tree, each into its own target directory — and
# runs every workload PAIRS times per side (seed = pair number, same seed on
# both sides), alternating which side goes first so that drift of a shared
# host hits both alike. One traced run per side and workload feeds the
# per-layer comparison. Results land in DIR/A and DIR/B; the last step is
# `brickbench compare DIR/A DIR/B`, whose exit status is this script's.
#
# Defaults: 10 pairs, the 12 s of BENCHMARK.json, all five workloads,
# DIR = ${TMPDIR:-/tmp}/pairs. Nothing is written inside the repository.
set -euo pipefail

pairs=10
seconds=12
workloads="k1-small k1-large halo2-part halo8-ckpt sim-scale"
out="${TMPDIR:-/tmp}/pairs"
while getopts "n:s:w:o:" opt; do
    case "$opt" in
        n) pairs="$OPTARG" ;;
        s) seconds="$OPTARG" ;;
        w) workloads="$OPTARG" ;;
        o) out="$OPTARG" ;;
        *) sed -n '2,16p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || { sed -n '2,16p' "$0"; exit 2; }
parent="$1"

root="$(git rev-parse --show-toplevel)"
mkdir -p "$out/A" "$out/B" "$out/src-A"
git -C "$root" archive "$parent" | tar -x -C "$out/src-A"

build() { # <source dir> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$out/src-A" "$out/build-A"
build "$root" "$out/build-B"
bin_A="$out/build-A/release/brickbench"
bin_B="$out/build-B/release/brickbench"

run() { # <side> <workload> <seed> <trace>
    local bin="bin_$1"
    (cd "$root" && "${!bin}" --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace "$4" --out "$out/$1") >/dev/null 2>"$out/$1/last.err" ||
        { cat "$out/$1/last.err" >&2; exit 1; }
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
        for side in $order; do
            run "$side" "$w" "$i" 0
        done
        echo "pair $i/$pairs of $w done" >&2
    done
    run A "$w" 1 1
    run B "$w" 1 1
done

"$bin_B" compare "$out/A" "$out/B"
