#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload or one regenerator binary: a
# base revision against the working tree.
#
#   ./scripts/perf_ab.sh <base-rev> <workload> [pairs]
#   ./scripts/perf_ab.sh <base-rev> <bench-bin> [pairs]
#
# Exports <base-rev> (any commit-ish) into a temporary directory, removed
# on exit, so `git status` stays clean. Both modes run `pairs` times per
# side (default 10), alternating base and head and flipping which side
# runs first every pair, and keep their outputs in a directory the
# script prints.
#
# Benchmark mode (<workload> is a BENCHMARK.json workload): runs the
# unmodified BENCHMARK.json command on seeds 1..pairs. Each side appends
# its runs to its own --out directory (base/ and head/), so the
# benchmark's `compare` pairs them by position. Prints each run's
# pass_s and setup_s, then `compare base/results.json head/results.json`
# and, for every `end_to_end` metric in BENCHMARK.json, how many pairs
# each side won (in the direction its `better` field gives).
#
# Bench-bin mode (<bench-bin> names a crates/bench/src/bin binary, e.g.
# fig7_network): builds wsp-bench on both sides and runs
# `target/release/<bench-bin> --json <out>` with its default options.
# Prints one row per `wall.*` gauge present in every run of both sides:
# the base median, the head median, head/base, and the pairs head won
# (lower value wins; higher wins for `*.speedup` gauges). When no gauge
# qualifies (the bin records no `wall.*` gauge, or the two sides share
# none), it prints one line with each side's count of distinct `wall.*`
# gauges instead and exits 1: such a run measured nothing.
#
# Each side builds from its own sources before the first timed run. The
# script needs git, tar, cargo and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> <workload|bench-bin> [pairs]" >&2
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
if [[ "$workload" =~ ^[a-z0-9_]+$ && -f "crates/bench/src/bin/$workload.rs" ]]; then
    mode=bin
elif jq -e --arg w "$workload" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null; then
    mode=benchmark
else
    echo "error: $workload is neither a BENCHMARK.json workload nor a crates/bench/src/bin binary" >&2
    exit 2
fi

base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
out="$(mktemp -d)"
head_dir="$PWD"
git archive "$base_rev" | tar -x -C "$base_dir"

# Runs `run <side> <dir> <i>` for i in 1..pairs, base first on odd i.
alternate() {
    local run="$1" i
    for i in $(seq 1 "$pairs"); do
        if ((i % 2)); then
            "$run" base "$base_dir" "$i"
            "$run" head "$head_dir" "$i"
        else
            "$run" head "$head_dir" "$i"
            "$run" base "$base_dir" "$i"
        fi
    done
}

if [[ "$mode" == bin ]]; then
    [[ -f "$base_dir/crates/bench/src/bin/$workload.rs" ]] || {
        echo "error: $workload is not a bench binary at $base_rev" >&2
        exit 2
    }
    echo "==> building wsp-bench at base ($(git rev-parse --short "$base_rev")) and head"
    for dir in "$base_dir" "$head_dir"; do
        (cd "$dir" && cargo build --release --quiet --offline -p wsp-bench)
    done
    run_bin() {
        local side="$1" dir="$2" i="$3"
        (cd "$dir" && "target/release/$workload" --json "$out/$side-$i.json") >"$out/$side-$i.log"
        echo "    $side run $i"
    }
    alternate run_bin
    gauges() {
        local files=() i
        for i in $(seq 1 "$pairs"); do
            files+=("$out/$1-$i.json")
        done
        jq -s '[.[].metrics.gauges]' "${files[@]}"
    }
    base_gauges="$(gauges base)"
    head_gauges="$(gauges head)"
    rows="$(jq -rn --argjson base "$base_gauges" --argjson head "$head_gauges" '
        def median: sort | if length % 2 == 1 then .[length / 2 | floor]
            else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        def r3: . * 1000 | round / 1000;
        ($base[0] | keys[] | select(startswith("wall."))) as $k
        | select(all($base[], $head[]; has($k)))
        | [$base[][$k]] as $b | [$head[][$k]] as $h
        | ($b | median) as $bm | ($h | median) as $hm
        | ([$b, $h] | transpose
           | map(select(if ($k | endswith("speedup")) then .[1] > .[0] else .[1] < .[0] end))
           | length) as $won
        | [$k, ($bm | r3), ($hm | r3),
           (if $bm == 0 then "-" else ($hm / $bm | r3) end), "\($won)/\($h | length)"]
        | @tsv')"
    if [[ -z "$rows" ]]; then
        wall_count() { jq '[.[] | keys[] | select(startswith("wall."))] | unique | length' <<<"$1"; }
        echo "error: no wall.* gauge is present in every run of both sides" \
            "(distinct wall.* gauges: base $(wall_count "$base_gauges"), head $(wall_count "$head_gauges")); nothing was measured" >&2
        echo "results kept in $out"
        exit 1
    fi
    echo "==> wall.* gauges: median of $pairs runs per side"
    printf 'gauge\tbase\thead\thead/base\thead won\n%s\n' "$rows"
    echo "results kept in $out"
    exit 0
fi

# The benchmark command and run length, exactly as BENCHMARK.json states.
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"

echo "==> building base ($(git rev-parse --short "$base_rev")) and head"
for dir in "$base_dir" "$head_dir"; do
    (cd "$dir" && cargo build --release --quiet --offline --manifest-path wsp-benchmark/Cargo.toml)
done

run() {
    local side="$1" dir="$2" seed="$3"
    (cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out/$side") >"$out/$side-$seed.log"
    echo "    $side seed $seed: $(jq -r '.runs[-1].metrics
        | "pass_s \(.pass_s.value) setup_s \(.setup_s.value)"' "$out/$side/results.json")"
}
alternate run

echo "==> compare base/results.json head/results.json"
# `compare` exits 1 when a row reads worse or unresolved; the table is
# the report either way.
"${command[@]}" compare "$out/base/results.json" "$out/head/results.json" || true
# A pair is won by the side whose value is strictly better.
jq -rn --slurpfile spec BENCHMARK.json \
    --slurpfile base "$out/base/results.json" --slurpfile head "$out/head/results.json" '
    $spec[0].end_to_end[] as $m
    | [$base[0].runs, $head[0].runs] | transpose
    | map(map(.metrics[$m.name].value) | if $m.better == "higher" then map(-.) else . end) as $p
    | "\($m.name) pairs won: head \($p | map(select(.[1] < .[0])) | length),"
      + " base \($p | map(select(.[0] < .[1])) | length) of \($p | length)"'
echo "results kept in $out"
