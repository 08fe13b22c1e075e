#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and a benchmark smoke run.
#
# Everything here runs fully offline (dependencies are vendored); a clean
# exit means the tree is in a committable state.
#
# `ci.sh --smoke` runs only the fast subset — release build, the pin
# tests (the serial trace pins, the shard-sweep and thread-sweep pins, the
# fig6 CSV pin, the zero-allocation warmed sharded epoch, and the spec
# parser's allocation ceiling), the simulator's unit tests (among them the
# neighbor-table oracle and the shard invariance checks), the scale_bench
# smoke gates (steady-state allocations, arena reuse, 1-vs-N-shard
# determinism, a reduced 100k-node arena), and the benchmark package's
# tests and `bench --smoke` — and targets a total wall time of about two
# minutes on a warm build cache.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
fi

# First-party packages; vendor/ crates are workspace members but keep
# their upstream formatting, so fmt is scoped to -p rather than --all.
FIRST_PARTY=(-p imobif-geom -p imobif-energy -p imobif -p imobif-netsim
             -p imobif-obs -p imobif-experiments -p imobif-bench -p imobif-repro)

if [[ "$SMOKE" == "0" ]]; then
    echo "==> cargo fmt --check (first-party packages)"
    cargo fmt --check "${FIRST_PARTY[@]}"
fi

echo "==> cargo build --release"
cargo build --release --workspace

if [[ "$SMOKE" == "0" ]]; then
    echo "==> cargo test"
    cargo test --workspace -q

    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc (no-deps, warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

    echo "==> bench smoke (hotpath_bench, throwaway output)"
    smoke_out=$(mktemp)
    trap 'rm -f "$smoke_out"' EXIT
    cargo run --release -q -p imobif-bench --bin hotpath_bench -- "$smoke_out" >/dev/null
fi

if [[ "$SMOKE" == "1" ]]; then
    echo "==> pin tests (serial traces, shard and thread sweeps, fig6 CSV, allocation gates)"
    cargo test --release -q --test determinism --test trace_causality
    cargo test --release -q -p imobif-bench --test span_determinism --test span_allocs \
        --test spec_parse_allocs

    echo "==> simulator unit tests (neighbor-table oracle, shard invariance)"
    cargo test --release -q -p imobif-netsim --lib
fi

echo "==> scaling bench smoke (scale_bench --smoke: allocation + determinism gates)"
# Gates enforced inside the binary (nonzero exit on violation):
#   - steady-state heap allocations per delivered packet == 0
#   - hello steady-state allocation growth == 0 (calendar bucket recycling)
#   - arena-backed replicates after the first allocate < 813 (PR 1's
#     fresh-world per-instance figure)
#   - figure CSV byte-identical across worker counts
#   - sharded world: trace + summary fingerprints bit-identical at every
#     shard count (1/2/4/8/16) and every worker-thread count
#   - shard overhead: 16-shard serial ev/s within 1.10x of 1-shard on the
#     full sweep workload (the epoch-barrier tax stays dead)
#   - a warmed sharded hello_dense world allocates exactly 0 times per
#     epoch (outboxes, scheduler, merge cursor all on recycled storage)
#   - replica-delta equivalence: fast-forward trace FNV == dense
#     step-every-epoch FNV, and the delta-synced replica == ground truth
#   - a reduced 100k-node constant-density arena builds and delivers packets
#   - disabled-mode metrics overhead within 1% (paired in-process ratio)
#   - disabled-span overhead on the sharded engine within 1% (paired
#     in-process ratio; disabled spans read no clock and build no span)
#   - fig6 CSV bytes identical to the pre-observability tip with the
#     registry disabled AND enabled
#   - scenario-spec overhead: the spec-compiled fig6 path within 1% of the
#     hard-coded path (paired in-process ratio), byte-identical CSV, and an
#     allocation delta that does not grow with the flow count
cargo run --release -q -p imobif-bench --bin scale_bench -- --smoke >/dev/null

echo "==> spans flame smoke (collapsed stacks + SVG + sharded manifest)"
spans_dir=$(mktemp -d)
trap 'rm -f "${smoke_out:-}"; rm -rf "$spans_dir"' EXIT
cargo run --release -q -p imobif-experiments --bin imobif -- \
    spans flame --nodes 300 --flows 4 --shards 4 --secs 5 --out "$spans_dir" >/dev/null
# Every folded line must parse as `scope;phase value`.
grep -Eq '^(shard[0-9]+|coord);[a-z_]+ [0-9]+$' "$spans_dir/spans.folded"
if grep -Evq '^(shard[0-9]+|coord);[a-z_]+ [0-9]+$' "$spans_dir/spans.folded"; then
    echo "spans.folded contains malformed lines" >&2
    exit 1
fi
grep -q '<svg' "$spans_dir/spans_flame.svg"
grep -q '"shard.epochs"' "$spans_dir/run_manifest.json"
grep -q '"spans_recorded"' "$spans_dir/run_manifest.json"
grep -q '^shard_epochs ' "$spans_dir/metrics.prom"
cargo run --release -q -p imobif-experiments --bin imobif -- \
    manifest-check "$spans_dir/run_manifest.json"

echo "==> scenario smoke (spec validation + spec-driven figure identity)"
# Every shipped spec must validate (parse + compile + per-run config
# checks), and a spec-driven fig6 run must still produce the pinned
# pre-observability CSV bytes.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    scenario validate examples/scenarios/*.toml
scenario_fnv=$(cargo run --release -q -p imobif-experiments --bin imobif -- \
    scenario run fig6 --flows 8 --seed 2025 --fnv | grep '^fnv fig6_ratios.csv')
echo "    $scenario_fnv"
[[ "$scenario_fnv" == *"0x67fde5856d8296c6"* ]] || {
    echo "spec-driven fig6 CSV drifted from the pinned FNV" >&2
    exit 1
}

echo "==> benchmark package: tests + bench --smoke (pinned fingerprints)"
# The benchmark lives in its own workspace (perfbench/). `bench` exits
# nonzero when any round panics or breaks its pinned output fingerprint.
bench_dir=$(mktemp -d)
trap 'rm -f "${smoke_out:-}"; rm -rf "$spans_dir" "$bench_dir"' EXIT
cargo test --release -q --manifest-path perfbench/Cargo.toml
cargo run --release -q --manifest-path perfbench/Cargo.toml --bin bench -- \
    --smoke --out "$bench_dir" >/dev/null

if [[ "$SMOKE" == "1" ]]; then
    echo "==> ci OK (smoke subset)"
    exit 0
fi

echo "==> observability smoke (manifest + metrics artifacts, trace tooling)"
obs_dir=$(mktemp -d)
trap 'rm -f "${smoke_out:-}"; rm -rf "$obs_dir" "$spans_dir" "$bench_dir"' EXIT
# A small figure run with metrics on must emit a manifest that validates
# and carries nonzero kernel readings.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    fig7 --flows 2 --metrics --prom --out "$obs_dir" >/dev/null
cargo run --release -q -p imobif-experiments --bin imobif -- \
    manifest-check "$obs_dir/run_manifest.json"
grep -q '"queue.pushes"' "$obs_dir/run_manifest.json"
grep -q '"imobif.decision_cache' "$obs_dir/run_manifest.json"
grep -q '"energy.data_joules"' "$obs_dir/run_manifest.json"
grep -q '^queue_pushes ' "$obs_dir/metrics.prom"
# Trace tooling end to end: record a case to JSONL, then summarize it.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    trace record --out "$obs_dir/trace.jsonl" --seed 7 --index 0 2>/dev/null
cargo run --release -q -p imobif-experiments --bin imobif -- \
    trace summary "$obs_dir/trace.jsonl" | grep -q '| sent |'

echo "==> ci OK"
