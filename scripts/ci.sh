#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and a benchmark smoke run.
#
# Everything here runs fully offline (dependencies are vendored); a clean
# exit means the tree is in a committable state.
#
# `ci.sh --smoke` runs only the fast subset — release build, the release
# pin and allocation tests, the simulator's unit tests (among them the
# neighbor-table oracle and the shard invariance checks), the timing
# ratios, and the benchmark package's tests and `bench --smoke` — and
# targets a total wall time of under a minute on a warm build cache.
#
# Where each gate lives:
#   - serial trace pins: tests/trace_causality.rs and tests/determinism.rs
#   - shard sweep: trace + summary FNVs pinned at 1/2/4/8/16 shards, under
#     dense epochs (fast-forward == dense), with spans and pooled workers
#     on, and the delta-synced replica == ground truth:
#     crates/bench/tests/span_determinism.rs
#   - thread sweep: trace FNV pinned at 1/2/4 workers: span_determinism.rs
#   - fig6 CSV pinned with the metrics registry disabled and enabled:
#     span_determinism.rs, plus the spec-driven run in the scenario smoke
#   - fig6 CSV identical at 1/4/16 batch workers:
#     crates/experiments/tests/thread_determinism.rs
#   - allocation gates, each its own test binary (the counting allocator is
#     process-global), all in crates/bench/tests/:
#       fig6_allocs.rs       warmed Fig. 6 instance: 0 per delivered packet
#       hello_allocs.rs      warmed hello_dense: 0 over 60 sim-s
#       replicate_allocs.rs  arena replicates after the first: mean < 16
#       span_allocs.rs       warmed sharded epochs: 0, spans off and on
#       spec_parse_allocs.rs parsing the shipped specs: <= 300
#   - timing ratios (release only): disabled metrics >= 0.99, disabled
#     spans >= 0.99, 16 vs 1 shard <= 1.10:
#     crates/bench/tests/overhead_ratios.rs
#   - 100k-node arena builds and delivers: `bench --smoke`'s arena_100k
#     summary pin
#   - `imobif <fig>` and `scenario run <fig>` write the same artifacts:
#     figure_and_scenario_commands_write_the_same_artifacts (cli.rs)
#
# The sweeps, gates and benchmark build their worlds with
# crates/bench/src/instances.rs, thin wrappers over
# crates/experiments/src/arena.rs and runner::setup_instance. The
# benchmark builds `--locked`: a dependency edit fails here instead of
# rewriting perfbench/Cargo.lock.

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
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${FIRST_PARTY[@]}"
fi

if [[ "$SMOKE" == "1" ]]; then
    echo "==> pin tests (serial traces, shard and thread sweeps, fig6 CSV, allocation gates)"
    cargo test --release -q --test determinism --test trace_causality
    cargo test --release -q -p imobif-bench --test span_determinism --test span_allocs \
        --test spec_parse_allocs --test fig6_allocs --test hello_allocs \
        --test replicate_allocs

    echo "==> simulator unit tests (neighbor-table oracle, shard invariance)"
    cargo test --release -q -p imobif-netsim --lib
fi

echo "==> timing ratios (disabled metrics and spans >= 0.99, 16 vs 1 shard <= 1.10)"
# Release only: the test is ignored in debug builds, where timing means
# nothing. One #[test], so no two timed runs overlap.
cargo test --release -q -p imobif-bench --test overhead_ratios

echo "==> spans flame smoke (collapsed stacks + SVG + sharded manifest)"
spans_dir=$(mktemp -d)
trap 'rm -rf "$spans_dir"' EXIT
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
trap 'rm -rf "$spans_dir" "$bench_dir"' EXIT
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml
cargo run --release -q --locked --manifest-path perfbench/Cargo.toml --bin bench -- \
    --smoke --out "$bench_dir" >/dev/null

if [[ "$SMOKE" == "1" ]]; then
    echo "==> ci OK (smoke subset)"
    exit 0
fi

echo "==> observability smoke (manifest + metrics artifacts, trace tooling)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$spans_dir" "$bench_dir"' EXIT
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
