//! Allocation ceiling for the scenario-spec TOML parser.
//!
//! A single test in its own binary: the counting allocator's totals are
//! process-global, so any concurrently running test would pollute the
//! window. Parsing allocates for the keys, strings, arrays and tables the
//! documents hold, never per character.

use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_experiments::scenario::{builtin_source, toml, BUILTIN_NAMES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations a parse of the nine shipped specs may make: 286 when the
/// ceiling was set, while a cursor that builds keys and numbers character
/// by character makes 473.
const CEILING: u64 = 300;

#[test]
fn parsing_the_shipped_specs_stays_under_its_allocation_ceiling() {
    let sources: Vec<&str> =
        BUILTIN_NAMES.iter().map(|n| builtin_source(n).expect("shipped spec")).collect();
    let snap = alloc_track::snapshot();
    for text in &sources {
        std::hint::black_box(toml::parse(text).expect("shipped spec parses"));
    }
    let allocs = alloc_track::snapshot().allocs_since(&snap);
    assert!(allocs <= CEILING, "parsing the shipped specs allocated {allocs} times");
}
