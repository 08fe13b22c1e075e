#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and a benchmark smoke run.
#
# Everything here runs fully offline (dependencies are vendored); a clean
# exit means the tree is in a committable state.
#
# `ci.sh --smoke` runs only the fast subset — release build, the release
# pin, allocation and heap tests, the spatial grid's unit tests (its query
# window and flip enumeration, which the HELLO hearer cache's exactness
# rests on), the simulator's unit tests in release and in debug (among
# them the neighbor-table oracle, the shard invariance checks and the
# event queue's lane oracle, whose debug assertions only a debug build
# keeps), the
# iMobif core crate's unit and framework tests (the agent's handlers, the
# strategy registry, the decision kernel), the
# observability crate's unit tests (span ring and aggregates, JSON depth
# cap, manifest validation, the Prometheus linter), the
# experiment crate's unit tests, memo-claim test and parser property
# tests, the
# timing ratios, the reproduction-record check, and the benchmark
# package's tests and `bench --smoke` — and targets a total wall time of
# under a minute on a warm build cache.
#
# Where each gate lives:
#   - serial trace pins: tests/trace_causality.rs and tests/determinism.rs
#   - shard sweep: trace + summary FNVs pinned at 1/2/4/8/16 shards, under
#     the dense reference schedule (every shard every epoch == the scan of
#     shard queue heads that runs only the shards with an event in the
#     window), with spans on at two threads, and the delta-synced
#     replica == ground truth; the scan's epoch schedule (epochs,
#     shard-epochs run and skipped, fast-forwards) pinned at every count:
#     crates/bench/tests/span_determinism.rs; every published shard.*
#     counter equal whether a run is driven in one run_until call or in
#     slices: sliced_drive_matches_single_run_until
#     (crates/experiments/src/spans_tools.rs)
#   - thread sweep: trace FNV pinned at 1/2/4 threads: span_determinism.rs;
#     the CLI's threaded epochs end to end in release: `spans summary` at
#     --threads 1 and 2 print the same epochs, fast-forward and
#     packets-delivered counts (checked below in both modes)
#   - fig6 CSV pinned with the metrics registry disabled and enabled:
#     span_determinism.rs, plus the spec-driven run in the scenario smoke
#   - fig6 CSV identical at 1/4/16 batch workers:
#     crates/experiments/tests/thread_determinism.rs
#   - allocation gates, each its own test binary with the counting
#     allocator installed, all in crates/bench/tests/; each counts only
#     the calling thread's allocations (alloc_track::thread_allocs), and
#     span_allocs.rs and move_allocs.rs assert their sharded worlds run
#     on that thread:
#       fig6_allocs.rs       warmed Fig. 6 instance: 0 per delivered packet
#       hello_allocs.rs      warmed hello_dense: 0 over 60 sim-s
#       move_allocs.rs       warmed lattice whose relay paces inside its
#                            cell (the hearer-list marking, the barrier's
#                            mover buffers): 0 over 60 sim-s, serial and
#                            on 4 shards
#       span_allocs.rs       warmed sharded epochs: 0, spans off and on
#       spec_parse_allocs.rs parsing the shipped specs: <= 300
#   - heap gate: live bytes per node of the 5,000-node arena after 1 sim-s,
#     serial and on 4 shards (barrier runs included), at most 5% above
#     their readings: crates/bench/tests/arena_heap.rs; the sizes it rests
#     on are pinned: an_app_is_at_most_144_bytes (crates/core/src/app.rs),
#     a_lane_entry_is_24_bytes (crates/netsim/src/event.rs),
#     a_link_change_is_12_bytes_and_a_patch_24 (world/shard/xfer.rs),
#     a_cache_entry_is_40_bytes (world/beacon.rs)
#   - timing ratios (release only): disabled metrics >= 0.99, disabled
#     spans >= 0.99, 16 vs 1 shard <= 1.10:
#     crates/bench/tests/overhead_ratios.rs; a same-instant burst of 2^15
#     events < 24x one of 2^12: crates/bench/tests/burst_scaling.rs
#   - event queue (a binary heap beside the beacon lane of node ids) ==
#     bare binary-heap oracle, both key modes, with stray pushes below the
#     lane's tail, and a lane entry pops as its id exactly when it joined
#     the lane: prop_backends_pop_identically and prop_lane_merges_exactly
#     (crates/netsim/src/event.rs); every beacon round on the lane, none on
#     the heap: beacon_rounds_ride_the_lane_not_the_heap (world/tests.rs)
#     and beacon_rounds_ride_each_shards_lane_not_its_heap
#     (world/shard/tests.rs); the beacon streams' rising-key debug
#     assertions hold in the debug run of the simulator's unit tests
#   - neighbor tables: board records and link sets == push tables after
#     every step (serial) and every epoch (sharded; each case draws
#     charged or free beacons, so the first barrier's bulk join and the
#     per-beacon joins both run, and both are counted):
#     prop_board_and_links_match_push_tables (world/tests.rs) and
#     prop_sharded_board_and_links_match_barrier_push_tables
#     (world/shard/tests.rs); the bulk join == the per-beacon joins in
#     tables, kernel counters, applied observations, replica and trace, on
#     worlds of 2-300 nodes over 1-16 shards with nodes dead at start:
#     prop_bulk_join_matches_per_beacon_joins (world/shard/tests.rs); all
#     three check every kept hearer list against brute force
#     (verify_hearer_lists) after every step or epoch
#   - barrier delivery order: the epoch's deliveries, sorted once, strictly
#     ascend by key, a debug assertion in apply_epoch
#     (world/shard/mod.rs) that the debug run of the simulator's unit
#     tests carries; two same-instant deliveries from two shards reach
#     their node in key order, as on one shard:
#     same_instant_deliveries_from_two_shards_arrive_in_key_order
#     (world/shard/tests.rs)
#   - HELLO hearer cache: the flip enumeration names exactly the items
#     within range of one of two points, not both:
#     prop_flips_match_brute_force (crates/geom/src/grid.rs); cached
#     hearers == brute force when the cache is told of moves and deaths as
#     the engines tell it (a sharded node's own move included), and every
#     kept list exact after every op, in worlds from 2 nodes up, so small
#     worlds' rule (a move or death forgets every list) is checked too:
#     prop_cached_hearers_match_brute_force (world/tests.rs); a node
#     pacing inside its cell costs only its own list a recompute, and a
#     range crossing recomputes exactly the crossed node and the mover:
#     pacing_inside_a_cell_recomputes_only_the_mover_and_a_crossing_also_the_corner
#     (world/tests.rs); the barrier marks a step against where a node
#     that moved and then beaconed ended, even when the step's patches
#     land first: a_step_is_marked_against_where_a_moved_beaconer_ended
#     (world/shard/tests.rs); hit, miss and link counts equal at 1/2/4/8
#     shards, on a lattice and on a scanned six-node path with a moving
#     relay, and every kernel family (beacons, timers, cache counters, the
#     fan-out histogram) published equal to kernel_stats() and lint clean:
#     hello_cache_is_shard_count_invariant_and_publishes
#     (world/shard/tests.rs); a scanned world counts each beacon as a hit
#     or a miss: the "scan path finds the hearers" rule of
#     handler_ordering_rules_hold_on_both_engines (world/shard/tests.rs); a
#     cache entry stays 40 bytes: a_cache_entry_is_40_bytes
#     (world/beacon.rs)
#   - range queries: the grid's one query window == brute force at sampled
#     radii, 0 and exactly the cell size, and a wider radius panics:
#     prop_query_matches_brute_force,
#     query_range_into_wider_than_a_cell_panics and
#     query_range_iter_wider_than_a_cell_panics (crates/geom/src/grid.rs);
#     TopologyView's neighbors == brute force with dead nodes, at ranges
#     from 0.1 m (cells clamped to 1 m) to 60 m:
#     prop_neighbors_match_brute_force (crates/netsim/src/medium.rs)
#   - first death: the ledger's kept first death == the brute-force
#     (time, id) minimum after every report:
#     prop_first_death_is_the_least_recorded (crates/netsim/src/stats.rs)
#   - energy books after every instance run, in debug builds (a live node's
#     initial energy == residual + ledger, a dead node empty and within
#     its initial energy, no negative battery), over every builtin at 3
#     flows: every_builtin_keeps_its_energy_books (runner.rs; the debug
#     `cargo test` below, ignored in release)
#   - strategy registry as a table per StrategyKind, and the agent's
#     handlers borrowing each packet's strategy from it: the core crate's
#     unit and framework tests (crates/core), run in release by --smoke
#   - sizing-flag ceilings exit 2 before anything is built, in
#     crates/experiments/src/cli.rs: `--threads` on figures and `scenario
#     run` (batch_thread_counts_above_the_ceiling_are_rejected), `spans
#     --shards/--threads/--span-cap`
#     (spans_sizing_flags_above_their_ceilings_are_rejected), `trace record
#     --cap` (trace_record_rejects_a_ring_above_its_ceiling)
#   - 100k-node arena builds and delivers: `bench --smoke`'s arena_100k
#     summary pin
#   - `imobif <fig>` and `scenario run <fig>` write the same artifacts:
#     figure_and_scenario_commands_write_the_same_artifacts (cli.rs)
#   - hostile parser input (mutated shipped specs, traces and manifests,
#     random bytes, token soup, nesting 200,000 deep, 400-digit numerals):
#     no panic, every spec error positioned by line and column (JSON specs
#     included), every JSON syntax error by byte offset, every trace error
#     by line; TOML tables nest at most 128 deep; a 4 MB JSON string
#     parses in linear time: crates/experiments/tests/parser_props.rs
#   - spec values beyond the sim-time ceiling (config::MAX_SIM_SECS) or
#     out of range in `[ext]`, and TOML arrays nested 200,000 deep, exit 2
#     from `scenario validate` and `scenario run`:
#     specs_beyond_the_sim_time_and_ext_limits_exit_2 (cli.rs), with
#     the field, the limit and the `[ext]` position checked in
#     crates/experiments/src/scenario/tests.rs; TOML arrays nest at most
#     imobif_obs::json::MAX_DEPTH (128) deep, the error at the first `[`
#     past it: deeply_nested_toml_arrays_are_a_positioned_parse_error
#     (scenario/tests.rs)
#   - a spec field its adapter would drop (a second [[variant]] under fig5,
#     fig7 or fig8; any [[variant]], or a [base] value other than the seed
#     that differs from the paper's, under ext) is a parse error at its
#     position: specs_reject_what_their_adapter_drops (scenario/tests.rs);
#     `scenario validate` and `scenario run` exit 2 on it:
#     specs_with_fields_their_adapter_drops_exit_2 (cli.rs)
#   - a packet interval that rounds to zero microseconds, and an arena
#     that routes no flow through a relay (topology::MAX_TOPOLOGY_DRAWS
#     bounds the redraws), exit 2 from `scenario validate` and `scenario
#     run` before anything runs:
#     specs_that_cannot_run_a_flow_exit_2_before_running (cli.rs)
#   - scenario specs: every builtin round-trips through `to_toml`, and its
#     canonical TOML is pinned by FNV
#     (canonical_toml_of_every_builtin_is_pinned, scenario/tests.rs)
#   - memo keys: a case keys on every config field, a no-mobility baseline
#     on all but the four mobility knobs, a topology draw on the six fields
#     it samples from (memo_keys_track_the_fields_each_result_reads,
#     runner.rs); each key misses once under concurrent workers
#     (crates/experiments/tests/memo_claims.rs)
#   - reproduction record: every file in results/ equals the output of a
#     fresh `imobif all --flows 100 --seed 2025` (stdout is full_run.md),
#     checked below in both modes
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
    echo "==> pin tests (serial traces, shard and thread sweeps, fig6 CSV, allocation and heap gates)"
    cargo test --release -q --test determinism --test trace_causality
    cargo test --release -q -p imobif-bench --test span_determinism --test span_allocs \
        --test spec_parse_allocs --test fig6_allocs --test hello_allocs --test move_allocs \
        --test arena_heap

    echo "==> spatial grid unit tests (query window, flip enumeration)"
    cargo test --release -q -p imobif-geom --lib

    echo "==> simulator unit tests (neighbor-table oracle, shard invariance, queue lane)"
    cargo test --release -q -p imobif-netsim --lib
    # Debug too: the queue's and the beacon streams' debug assertions are
    # compiled out of the release run.
    cargo test -q -p imobif-netsim --lib

    echo "==> iMobif core tests (agent handlers, strategy registry, decision kernel)"
    cargo test --release -q -p imobif --lib --test framework

    echo "==> observability unit tests (span ring, JSON depth cap, manifests, promlint)"
    cargo test --release -q -p imobif-obs --lib

    echo "==> experiment unit tests (spec round trips and pins, memo keys, memo claims, hostile parser input)"
    cargo test --release -q -p imobif-experiments --lib --test memo_claims --test parser_props
fi

echo "==> timing ratios (disabled metrics and spans >= 0.99, 16 vs 1 shard <= 1.10, linear bursts)"
# Release only: the tests are ignored in debug builds, where timing means
# nothing. One #[test] per binary, and cargo runs the binaries one at a
# time, so no two timed runs overlap.
cargo test --release -q -p imobif-bench --test overhead_ratios --test burst_scaling

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

echo "==> spans summary at 1 and 2 threads (same epochs, fast-forwards, deliveries)"
# The threaded epoch runs its active shards on scoped threads; its output
# must not depend on that.
spans_counts() {
    cargo run --release -q -p imobif-experiments --bin imobif -- \
        spans summary --nodes 300 --flows 4 --shards 4 --secs 5 --threads "$1" |
        grep -E '^(epochs|fast-forward):|packets delivered:' | sed 's/^spans recorded.*| //'
}
one_thread=$(spans_counts 1)
two_threads=$(spans_counts 2)
if [[ -z "$one_thread" || "$one_thread" != "$two_threads" ]]; then
    echo "spans summary differs between 1 and 2 threads:" >&2
    diff <(echo "$one_thread") <(echo "$two_threads") >&2 || true
    exit 1
fi

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

echo "==> reproduction record (results/ == imobif all --flows 100 --seed 2025)"
# EXPERIMENTS.md quotes results/; a code change that moves any figure
# fails here until results/ is regenerated with the command below.
record_dir=$(mktemp -d)
trap 'rm -rf "$spans_dir" "$record_dir"' EXIT
cargo run --release -q -p imobif-experiments --bin imobif -- \
    all --flows 100 --seed 2025 --out "$record_dir" >"$record_dir/full_run.md" 2>/dev/null
for fresh in "$record_dir"/*; do
    cmp "results/$(basename "$fresh")" "$fresh" || {
        echo "results/ drifted from the code: regenerate it with" >&2
        echo "  imobif all --flows 100 --seed 2025 --out results > results/full_run.md" >&2
        exit 1
    }
done
if [[ $(ls results | wc -l) -ne $(ls "$record_dir" | wc -l) ]]; then
    echo "results/ holds files the reproduction run does not write" >&2
    exit 1
fi

echo "==> benchmark package: tests + bench --smoke (pinned fingerprints)"
# The benchmark lives in its own workspace (perfbench/). `bench` exits
# nonzero when any round panics or breaks its pinned output fingerprint.
bench_dir=$(mktemp -d)
trap 'rm -rf "$spans_dir" "$record_dir" "$bench_dir"' EXIT
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml
cargo run --release -q --locked --manifest-path perfbench/Cargo.toml --bin bench -- \
    --smoke --out "$bench_dir" >/dev/null

if [[ "$SMOKE" == "1" ]]; then
    echo "==> ci OK (smoke subset)"
    exit 0
fi

echo "==> observability smoke (manifest + metrics artifacts, trace tooling)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$spans_dir" "$record_dir" "$bench_dir"' EXIT
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
