#!/usr/bin/env bash
# CI-style gate: formatting, lints, and the tier-1 build + test pass.
# Run from anywhere: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> perf-shape gate (committed phase profile takes the fused fast path)"
# The committed full-run BENCH_noc.json pins the *shape* of the fabric
# hot loop, not its wall-clock (ms gauges stay outside tolerances, as
# wsp-diff does): the full-wafer section must have executed on the fused
# single-pass plan+apply path. A `fused.calls` counter must be present,
# and the split-path `plan.calls` / `apply.calls` counters must not be —
# their reappearance means single-shard ticks silently fell back to the
# two-pass split, the exact constant-factor regression the data-oriented
# rewrite removed.
if ! grep -q '"wall.profile.fabric.full_wafer.fused.calls"' BENCH_noc.json; then
    echo "FAIL: BENCH_noc.json lacks wall.profile.fabric.full_wafer.fused.calls" >&2
    echo "      (full-wafer fabric ticks no longer take the fused fast path)" >&2
    exit 1
fi
for phase in plan apply; do
    if grep -q "\"wall.profile.fabric.full_wafer.$phase.calls\"" BENCH_noc.json; then
        echo "FAIL: BENCH_noc.json records wall.profile.fabric.full_wafer.$phase.calls" >&2
        echo "      (single-shard full-wafer ticks regressed to the two-pass split)" >&2
        exit 1
    fi
done
echo "    committed full-wafer profile is fused-only"

echo "==> bench smoke (BENCH_*.json present and well-formed)"
./scripts/bench.sh --smoke

echo "==> determinism gate (smoke JSON vs tests/golden, {dense,wheel} x {1,8} threads)"
# Two claims at once: (1) the parallel backend and the default wheel
# stepping (active-set walk plus event-wheel skips) are bit-identical to
# the sequential dense sweep, and (2) the
# default fixed-latency memory backend is byte-identical to the
# pre-MemoryModel-refactor seed output committed under tests/golden/.
# The smoke JSON carries only deterministic metrics (no wall-clock
# gauges), so every run must match the golden file byte for byte.
# Refresh the goldens with WSP_UPDATE_GOLDEN=1 after an intentional
# metrics change.
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig7_network --smoke --stepping dense --threads 1 \
        --json tests/golden/fig7_network_smoke.json >/dev/null
    target/release/workloads --smoke --stepping dense --threads 1 \
        --json tests/golden/workloads_smoke.json >/dev/null
    target/release/serve --smoke --stepping dense --threads 1 \
        --json tests/golden/serve_smoke.json >/dev/null
    echo "    refreshed tests/golden/*.json (+ .digest sidecars)"
fi
for bin in fig7_network workloads serve; do
    golden="tests/golden/${bin}_smoke.json"
    for stepping in dense wheel; do
        for threads in 1 8; do
            out="$DET_DIR/$bin-$stepping-t$threads.json"
            target/release/"$bin" --smoke --stepping "$stepping" --threads "$threads" \
                --json "$out" >/dev/null
            if ! cmp -s "$golden" "$out"; then
                echo "FAIL: $bin smoke JSON differs from $golden at $stepping/$threads" >&2
                diff "$golden" "$out" >&2 || true
                exit 1
            fi
            # The digest sidecar must match too; on divergence wsp-diff
            # pinpoints the first bad cycle window and lane.
            if ! cmp -s "$golden.digest" "$out.digest"; then
                echo "FAIL: $bin digest journal diverged from $golden.digest at $stepping/$threads" >&2
                target/release/wsp-diff digest "$golden.digest" "$out.digest" >&2 || true
                exit 1
            fi
        done
    done
done
echo "    byte-identical to the goldens across stepping modes and thread counts"

echo "==> serve snapshot gate (snapshot -> restore -> resume is bit-identical)"
# Checkpoint a serving campaign after 9 of its 24 smoke jobs, restore it
# in a fresh process, run the remainder, and demand the resumed run's
# report and digest journal are byte-equal to the golden uninterrupted
# run. This is the wafer-as-a-service durability contract: a campaign
# interrupted at any completion boundary resumes bit-identically.
target/release/serve --smoke --snapshot "$DET_DIR/serve.snap" --snapshot-after 9 >/dev/null
target/release/serve --smoke --restore "$DET_DIR/serve.snap" \
    --json "$DET_DIR/serve-resumed.json" >/dev/null
for suffix in "" ".digest"; do
    if ! cmp -s "tests/golden/serve_smoke.json$suffix" "$DET_DIR/serve-resumed.json$suffix"; then
        echo "FAIL: resumed serve campaign diverged from golden (serve_smoke.json$suffix)" >&2
        [ -n "$suffix" ] && target/release/wsp-diff digest \
            "tests/golden/serve_smoke.json.digest" "$DET_DIR/serve-resumed.json.digest" >&2 || true
        exit 1
    fi
done
echo "    snapshot/restore roundtrip matches the uninterrupted golden run"

echo "==> wsp-diff regression gate (bench JSON vs committed baselines)"
# The tolerance-gated diff must pass on the baselines themselves...
for bin in fig7_network workloads serve; do
    target/release/wsp-diff bench --tolerances tests/golden/tolerances.txt \
        "tests/golden/${bin}_smoke.json" "$DET_DIR/$bin-dense-t1.json" \
        | sed 's/^/    /'
done
# ...and must trip on a synthetic out-of-tolerance metric change.
sed 's/"fabric.cycles":[0-9.]*/"fabric.cycles":1/' \
    "$DET_DIR/fig7_network-dense-t1.json" > "$DET_DIR/mutated.json"
if target/release/wsp-diff bench --tolerances tests/golden/tolerances.txt \
    "tests/golden/fig7_network_smoke.json" "$DET_DIR/mutated.json" >/dev/null; then
    echo "FAIL: wsp-diff bench did not flag a mutated metric" >&2
    exit 1
fi
echo "    gate passes on baselines and catches a synthetic regression"


echo "==> flag-doc drift gate (every BenchOpts flag is documented in README.md)"
# The README's "Performance knobs" table must mention every flag string
# the bench option parser accepts — a new flag without documentation (or
# a renamed flag leaving its old name behind in the README) fails here.
# Only the code above the #[cfg(test)] module counts: tests exercise fake
# flags (e.g. --frobnicate) to probe the unknown-flag error path.
flags=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/bench/src/lib.rs \
    | grep -o '"--[a-z-]*"' | tr -d '"' | sort -u)
for flag in $flags; do
    if ! grep -q -- "$flag" README.md; then
        echo "FAIL: flag $flag (crates/bench/src/lib.rs) is not documented in README.md" >&2
        exit 1
    fi
done
echo "    all $(echo "$flags" | wc -w) bench flags documented"

echo "==> banked memory smoke (--memory banked answers stay correct)"
target/release/workloads --smoke --memory banked > "$DET_DIR/banked.txt"
if grep -q "| false" "$DET_DIR/banked.txt"; then
    echo "FAIL: banked-memory smoke run reported an incorrect kernel answer" >&2
    grep "| false" "$DET_DIR/banked.txt" >&2
    exit 1
fi
echo "    banked backend runs clean"

echo "==> wsp-benchmark unit tests"
cargo test --offline --manifest-path wsp-benchmark/Cargo.toml

echo "==> wsp-benchmark exact-output gate (seed 2021, all six workloads vs wsp-benchmark/expected.txt)"
# One short run of every benchmark workload: the run exits 1 on any
# failed check, including a digest or simulated value that differs from
# the seed-2021 line in wsp-benchmark/expected.txt.
BENCH_OUT="$(mktemp -d)"
trap 'rm -rf "$DET_DIR" "$BENCH_OUT"' EXIT
if ! cargo run --release --quiet --offline --manifest-path wsp-benchmark/Cargo.toml -- \
    --seed 2021 --seconds 0 --out "$BENCH_OUT" > "$BENCH_OUT/report.txt"; then
    echo "FAIL: wsp-benchmark reported a failed check; its report:" >&2
    cat "$BENCH_OUT/report.txt" >&2
    exit 1
fi
echo "    every workload passed its checks and matched expected.txt"

echo "All checks passed."
