//! Each memo key misses once, however many batch workers ask for it at the
//! same time: the first worker claims the key and the others wait for its
//! value. Its own test binary, because the memos, their hit/miss totals and
//! the thread count are process-global.

use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::StrategyChoice::MinEnergy;
use imobif_experiments::runner::{clear_memos, memo_stats, run_batches, set_thread_count};

#[test]
fn concurrent_workers_miss_a_shared_key_once() {
    // Two specs that differ only in `k` share the topology draw and the
    // no-mobility baseline of every index, but not their cases: at one
    // flow, two workers each take one case and both need the same draw and
    // baseline at once.
    let a = ScenarioConfig { mean_flow_bits: 2e5, ..ScenarioConfig::paper_default() };
    let b = ScenarioConfig { k: 1.0, ..a };
    set_thread_count(2);
    for round in 0..50 {
        clear_memos();
        let before = memo_stats();
        let cases = run_batches(&[(a, MinEnergy), (b, MinEnergy)], 1);
        let after = memo_stats();
        assert_eq!(cases[0][0].no_mobility, cases[1][0].no_mobility);
        assert_eq!(after.case_misses - before.case_misses, 2, "round {round}");
        assert_eq!(after.draw_misses - before.draw_misses, 1, "round {round}: draw");
        assert_eq!(after.baseline_misses - before.baseline_misses, 1, "round {round}: baseline");
    }
    set_thread_count(0);
}
