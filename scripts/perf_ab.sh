#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload: a base revision against the
# working tree.
#
#   ./scripts/perf_ab.sh <base-rev> <workload> [pairs]
#
# Exports <base-rev> (any commit-ish) into a temporary directory, removed
# on exit, so `git status` stays clean. Then runs the unmodified
# BENCHMARK.json command for <workload> `pairs` times per side (default
# 10), on seeds 1..pairs, alternating base and head and flipping which
# side runs first every pair. Each side appends its runs to its own
# --out directory (base/ and head/ under the kept output directory the
# script prints), so the benchmark's `compare` pairs them by position.
# Prints `compare base/results.json head/results.json` and how many pairs
# each side won on pass_s.
#
# Each side builds the benchmark from its own sources before the first
# timed run. The script needs git, tar, cargo and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> <workload> [pairs]" >&2
    exit 2
}
[[ $# -ge 2 && $# -le 3 ]] || usage
base_rev="$1"
workload="$2"
pairs="${3:-10}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
git rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null || {
    echo "error: $base_rev is not a commit" >&2
    exit 2
}
command -v jq >/dev/null || {
    echo "error: jq is required to read BENCHMARK.json and the results" >&2
    exit 2
}
jq -e --arg w "$workload" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null || {
    echo "error: $workload is not a BENCHMARK.json workload" >&2
    exit 2
}

# The benchmark command and run length, exactly as BENCHMARK.json states.
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"

base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
out="$(mktemp -d)"
head_dir="$PWD"
git archive "$base_rev" | tar -x -C "$base_dir"

echo "==> building base ($(git rev-parse --short "$base_rev")) and head"
for dir in "$base_dir" "$head_dir"; do
    (cd "$dir" && cargo build --release --quiet --offline --manifest-path wsp-benchmark/Cargo.toml)
done

run() {
    local side="$1" dir="$2" seed="$3"
    (cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out/$side") >"$out/$side-$seed.log"
    echo "    $side seed $seed: pass_s $(jq -r '.runs[-1].metrics.pass_s.value' "$out/$side/results.json")"
}

for seed in $(seq 1 "$pairs"); do
    if ((seed % 2)); then
        run base "$base_dir" "$seed"
        run head "$head_dir" "$seed"
    else
        run head "$head_dir" "$seed"
        run base "$base_dir" "$seed"
    fi
done

echo "==> compare base/results.json head/results.json"
# `compare` exits 1 when a row reads worse or unresolved; the table is
# the report either way.
"${command[@]}" compare "$out/base/results.json" "$out/head/results.json" || true
wins() {
    jq -n --slurpfile a "$out/$1/results.json" --slurpfile b "$out/$2/results.json" \
        '[$a[0].runs, $b[0].runs] | transpose
         | map(select(.[0].metrics.pass_s.value < .[1].metrics.pass_s.value)) | length'
}
echo "pass_s pairs won: head $(wins head base), base $(wins base head) of $pairs"
echo "results kept in $out"
