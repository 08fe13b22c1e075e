//! Allocation ceiling for arena-backed replicates.
//!
//! A single test in its own binary: the counting allocator's totals are
//! process-global, so any concurrently running test would pollute the
//! window. The first replicate sizes the arena's world, applications,
//! queue storage and neighbor tables; every later replicate reuses them.

use std::sync::Arc;

use imobif::{MobilityMode, StrategyRegistry};
use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::{
    build_strategy, clear_memos, run_instance_in, InstanceArena, StrategyChoice,
};
use imobif_experiments::topology::draw_scenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Replicates run through one arena.
const REPLICATES: u64 = 6;

/// Mean allocations a replicate after the first may make. The mean was
/// 11.2 (86 for the first replicate) in debug and release builds when the
/// ceiling was set; a fresh world per instance made 813.
const CEILING: f64 = 16.0;

#[test]
fn replicates_after_the_first_stay_under_the_allocation_ceiling() {
    clear_memos();
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
    let mut arena = InstanceArena::new();
    let mut later = 0;
    for index in 0..REPLICATES {
        let draw = draw_scenario(&cfg, index);
        let snap = alloc_track::snapshot();
        let result =
            run_instance_in(&mut arena, &cfg, &draw, MobilityMode::Informed, &strategy, &registry);
        let allocs = alloc_track::snapshot().allocs_since(&snap);
        assert!(result.delivered_bits > 0, "replicate {index} must make progress");
        if index > 0 {
            later += allocs;
        }
    }
    let mean = later as f64 / (REPLICATES - 1) as f64;
    assert!(mean < CEILING, "replicates after the first allocate {mean:.1} times each on average");
}
