#!/usr/bin/env bash
# CI-style gate: formatting, lints, and the tier-1 build + test pass.
# Run from anywhere: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> unused-public-API gate (every pub fn has a caller or a keep-list entry)"
# Each `pub fn` defined in crates/*/src above the file's #[cfg(test)]
# must be named, as a whole word, on a line of the corpus that does not
# define a fn of that name. The corpus is every line above the file's
# #[cfg(test)] in crates/*/src (bins included), examples/ and
# wsp-benchmark/src, so a call from a test module alone does not count.
# Comment lines are in the corpus: a name in a doc comment or doc
# example counts as a caller, and a new comment naming a kept function
# makes its keep-list entry stale.
# A function only tests use stays only with an entry in
# scripts/pub_api_keep.txt ("<file> <name> <reason>"), and an entry whose
# function is gone or now has a caller fails the gate too.
api_report=$(
    {
        awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
             !t { print (FILENAME ~ /^crates\// ? "L" : "C") "\t" FILENAME "\t" $0 }' \
            $(find crates/*/src examples wsp-benchmark/src -name '*.rs' | sort)
        awk '!/^[[:space:]]*(#|$)/ { print "K\t" $0 }' scripts/pub_api_keep.txt
    } | awk -F '\t' '
        $1 == "K" {
            n = split($2, f, /[ \t]+/)
            if (n < 3) { print "FAIL: keep-list entry without a reason: " $2; next }
            keep[f[1] " " f[2]] = 1
            next
        }
        {
            text = $0
            sub(/^[^\t]*\t[^\t]*\t/, "", text)
            if ($1 == "L" && match(text, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(text, RSTART, RLENGTH)
                sub(/.*fn /, "", name)
                defs[$2 " " name] = name
            }
            split("", defined)
            s = text
            while (match(s, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(s, RSTART, RLENGTH)
                sub(/.*fn[ \t]+/, "", w)
                defined[w] = 1
                s = substr(s, RSTART + RLENGTH)
            }
            s = text
            while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(s, RSTART, RLENGTH)
                if (!(w in defined)) used[w] = 1
                s = substr(s, RSTART + RLENGTH)
            }
        }
        END {
            for (d in defs) {
                if (!(defs[d] in used) && !(d in keep)) print "FAIL: pub fn without a caller outside tests: " d
                else if (!(defs[d] in used)) kept++
                else called++
            }
            for (k in keep) {
                if (!(k in defs)) print "FAIL: stale keep-list entry (no such pub fn): " k
                else if (defs[k] in used) print "FAIL: stale keep-list entry (now has a caller): " k
            }
            print "OK " called " " kept
        }'
)
if grep -q '^FAIL' <<< "$api_report"; then
    grep '^FAIL' <<< "$api_report" | sort >&2
    exit 1
fi
read -r _ api_called api_kept <<< "$(grep '^OK' <<< "$api_report")"
echo "    $api_called pub fns called outside tests, $api_kept kept by scripts/pub_api_keep.txt"

echo "==> cargo doc -D warnings (every intra-doc link resolves to a public item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> perf-shape gate (committed phase profile records the fused tick)"
# The committed full-run BENCH_noc.json pins the *shape* of the fabric
# hot loop, not its wall-clock (ms gauges stay outside tolerances, as
# wsp-diff does): the full-wafer section must have profiled the fabric's
# one fused plan+apply pass, so a `fused.calls` counter must be present.
if ! grep -q '"wall.profile.fabric.full_wafer.fused.calls"' BENCH_noc.json; then
    echo "FAIL: BENCH_noc.json lacks wall.profile.fabric.full_wafer.fused.calls" >&2
    echo "      (the full-wafer fabric profile no longer records the fused tick)" >&2
    exit 1
fi
echo "    committed full-wafer profile records the fused tick"

echo "==> bench smoke (BENCH_*.json present and well-formed)"
./scripts/bench.sh --smoke

echo "==> determinism gate (smoke JSON vs tests/golden, {dense,wheel} stepping)"
# Two claims at once: (1) the default wheel stepping (active-set walk
# plus event-wheel skips) is bit-identical to the dense sweep, and (2)
# the default fixed-latency memory backend is byte-identical to the
# pre-MemoryModel-refactor seed output committed under tests/golden/.
# The smoke JSON carries only deterministic metrics (no wall-clock
# gauges), so every run must match the golden file byte for byte.
# Refresh the goldens with WSP_UPDATE_GOLDEN=1 after an intentional
# metrics change.
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig7_network --smoke --stepping dense \
        --json tests/golden/fig7_network_smoke.json >/dev/null
    target/release/workloads --smoke --stepping dense \
        --json tests/golden/workloads_smoke.json >/dev/null
    target/release/serve --smoke --stepping dense \
        --json tests/golden/serve_smoke.json >/dev/null
    echo "    refreshed tests/golden/*.json (+ .digest sidecars)"
fi
for bin in fig7_network workloads serve; do
    golden="tests/golden/${bin}_smoke.json"
    for stepping in dense wheel; do
        out="$DET_DIR/$bin-$stepping.json"
        target/release/"$bin" --smoke --stepping "$stepping" --json "$out" >/dev/null
        if ! cmp -s "$golden" "$out"; then
            echo "FAIL: $bin smoke JSON differs from $golden at $stepping" >&2
            diff "$golden" "$out" >&2 || true
            exit 1
        fi
        # The digest sidecar must match too; on divergence wsp-diff
        # pinpoints the first bad cycle window and lane.
        if ! cmp -s "$golden.digest" "$out.digest"; then
            echo "FAIL: $bin digest journal diverged from $golden.digest at $stepping" >&2
            target/release/wsp-diff digest "$golden.digest" "$out.digest" >&2 || true
            exit 1
        fi
    done
done
echo "    byte-identical to the goldens across stepping modes"

echo "==> PDN golden (fig2_droop smoke JSON vs tests/golden)"
# The PDN report (the Fig. 2 droop map's summary gauges, the middle-row
# voltage profile and the solve's iteration count) must be byte-identical
# to the golden. This bin writes no digest sidecar; on a mismatch
# wsp-diff names each metric that moved.
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig2_droop --smoke --json tests/golden/fig2_droop_smoke.json >/dev/null
    echo "    refreshed tests/golden/fig2_droop_smoke.json"
fi
target/release/fig2_droop --smoke --json "$DET_DIR/fig2_droop.json" >/dev/null
if ! cmp -s tests/golden/fig2_droop_smoke.json "$DET_DIR/fig2_droop.json"; then
    echo "FAIL: fig2_droop smoke JSON differs from tests/golden/fig2_droop_smoke.json" >&2
    target/release/wsp-diff bench tests/golden/fig2_droop_smoke.json \
        "$DET_DIR/fig2_droop.json" >&2 || true
    exit 1
fi
echo "    byte-identical to the golden"

echo "==> Fig. 6 golden (fig6_disconnect smoke JSON vs tests/golden)"
# The connectivity counts behind Fig. 6 and its odd-even table are exact
# integers, so the smoke report must match the golden byte for byte.
# This bin writes no digest sidecar, so it sits outside the loop above;
# on a mismatch wsp-diff names each metric that moved.
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig6_disconnect --smoke --json tests/golden/fig6_disconnect_smoke.json >/dev/null
    echo "    refreshed tests/golden/fig6_disconnect_smoke.json"
fi
target/release/fig6_disconnect --smoke --json "$DET_DIR/fig6_disconnect.json" >/dev/null
if ! cmp -s tests/golden/fig6_disconnect_smoke.json "$DET_DIR/fig6_disconnect.json"; then
    echo "FAIL: fig6_disconnect smoke JSON differs from tests/golden/fig6_disconnect_smoke.json" >&2
    target/release/wsp-diff bench tests/golden/fig6_disconnect_smoke.json \
        "$DET_DIR/fig6_disconnect.json" >&2 || true
    exit 1
fi
echo "    Fig. 6 disconnect fractions byte-identical to the golden"

echo "==> Fig. 4 golden (fig4_clock smoke JSON vs tests/golden)"
# The clock flood's Monte Carlo counts, tiles locked from each side
# included, are exact integers: a flood that breaks a tie differently
# moves the locked-from counts even where coverage and setup latency
# hold. No digest sidecar; on a mismatch wsp-diff names each moved metric.
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig4_clock --smoke --json tests/golden/fig4_clock_smoke.json >/dev/null
    echo "    refreshed tests/golden/fig4_clock_smoke.json"
fi
target/release/fig4_clock --smoke --json "$DET_DIR/fig4_clock.json" >/dev/null
if ! cmp -s tests/golden/fig4_clock_smoke.json "$DET_DIR/fig4_clock.json"; then
    echo "FAIL: fig4_clock smoke JSON differs from tests/golden/fig4_clock_smoke.json" >&2
    target/release/wsp-diff bench tests/golden/fig4_clock_smoke.json \
        "$DET_DIR/fig4_clock.json" >&2 || true
    exit 1
fi
echo "    Fig. 4 lock counts byte-identical to the golden"

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
        "tests/golden/${bin}_smoke.json" "$DET_DIR/$bin-dense.json" \
        | sed 's/^/    /'
done
# ...and must trip on a synthetic out-of-tolerance metric change.
sed 's/"fabric.cycles":[0-9.]*/"fabric.cycles":1/' \
    "$DET_DIR/fig7_network-dense.json" > "$DET_DIR/mutated.json"
if target/release/wsp-diff bench --tolerances tests/golden/tolerances.txt \
    "tests/golden/fig7_network_smoke.json" "$DET_DIR/mutated.json" >/dev/null; then
    echo "FAIL: wsp-diff bench did not flag a mutated metric" >&2
    exit 1
fi
echo "    gate passes on baselines and catches a synthetic regression"


echo "==> flag-doc drift gate (README.md's knob tables match the bench flags)"
# Both directions: every flag string the bench option parsers accept
# must appear in README.md (a new flag without documentation fails), and
# every flag that starts a row of the "Performance knobs" tables must be
# one the parsers accept (a removed or renamed flag left in a table
# fails). Only the code above the #[cfg(test)] module counts: tests
# exercise fake and removed flags to probe the unknown-flag error path.
flags=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/bench/src/lib.rs \
    | grep -o '"--[a-z-]*"' | tr -d '"' | sort -u)
for flag in $flags; do
    if ! grep -q -- "$flag" README.md; then
        echo "FAIL: flag $flag (crates/bench/src/lib.rs) is not documented in README.md" >&2
        exit 1
    fi
done
# A row's flags are those in its first cell, the text between the
# leading "| " and the next " |".
documented=$(awk '/^## Performance knobs/ { on = 1; next } /^## / { on = 0 } on' README.md \
    | grep '^| `--' | sed 's/^| \(.*\) |.*/\1/; s/ | .*//' \
    | grep -o -- '--[a-z-]*' | sort -u)
for flag in $documented; do
    if ! grep -qx -- "$flag" <<< "$flags"; then
        echo "FAIL: README.md's knob tables list $flag, which crates/bench/src/lib.rs does not accept" >&2
        exit 1
    fi
done
echo "    all $(echo "$flags" | wc -w) bench flags documented, every documented flag accepted"

echo "==> banked memory smoke (--memory banked answers stay correct)"
target/release/workloads --smoke --memory banked > "$DET_DIR/banked.txt"
if grep -q "| false" "$DET_DIR/banked.txt"; then
    echo "FAIL: banked-memory smoke run reported an incorrect kernel answer" >&2
    grep "| false" "$DET_DIR/banked.txt" >&2
    exit 1
fi
echo "    banked backend runs clean"

echo "==> stateful-memory determinism gate (serve smoke, --memory banked|banked+tlb, dense vs wheel)"
# The goldens cover only the fixed backend. Under the stateful backends
# the wheel must still match the dense sweep byte for byte: the report
# and its digest journal, compared run against run.
for memory in banked banked+tlb; do
    for stepping in dense wheel; do
        target/release/serve --smoke --memory "$memory" --stepping "$stepping" \
            --json "$DET_DIR/serve-$memory-$stepping.json" >/dev/null
    done
    for suffix in "" ".digest"; do
        if ! cmp -s "$DET_DIR/serve-$memory-dense.json$suffix" \
            "$DET_DIR/serve-$memory-wheel.json$suffix"; then
            echo "FAIL: serve --memory $memory smoke$suffix differs between dense and wheel" >&2
            diff "$DET_DIR/serve-$memory-dense.json$suffix" \
                "$DET_DIR/serve-$memory-wheel.json$suffix" >&2 || true
            exit 1
        fi
    done
done
echo "    serve smoke byte-identical across stepping modes under banked and banked+tlb"

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
