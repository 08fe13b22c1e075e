//! Scenario-layer tests: golden round-trips over the shipped specs,
//! malformed-input diagnostics, and the compile pipeline's overrides and
//! limits.

use proptest::prelude::*;

use crate::config::{ChurnModel, EnergyInit, ScenarioConfig, TopologyFamily};
use crate::runner::StrategyChoice;

use super::*;

#[test]
fn every_builtin_parses_and_compiles() {
    for name in BUILTIN_NAMES {
        let spec = builtin(name).unwrap_or_else(|| panic!("missing builtin `{name}`"));
        assert_eq!(spec.name, name, "spec name must match its registry key");
        let compiled = spec.compile().unwrap_or_else(|e| panic!("`{name}` failed: {e}"));
        assert!(!compiled.runs.is_empty());
    }
    assert!(builtin("nope").is_none());
    assert!(builtin_source("fig6").is_some());
}

#[test]
fn golden_round_trip_over_all_shipped_specs() {
    // parse → serialize → reparse must be the identity at the spec level,
    // and the canonical form must itself be canonical (a fixed point).
    for name in BUILTIN_NAMES {
        let spec = builtin(name).expect("registered builtin");
        let canonical = spec.to_toml();
        let back = ScenarioSpec::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical `{name}` failed to reparse: {e}"));
        assert_eq!(&back, spec, "round trip must be lossless for `{name}`");
        assert_eq!(back.to_toml(), canonical, "to_toml must be a fixed point for `{name}`");
    }
}

#[test]
fn malformed_specs_carry_exact_positions() {
    // Spec-level (not just tokenizer-level) errors keep line/column.
    let unknown_top = "name = \"x\"\nbogus = 1\n";
    let e = ScenarioSpec::parse(unknown_top).unwrap_err();
    assert_eq!((e.line, e.col), (2, 1));
    assert!(e.msg.contains("unknown top-level key `bogus`"), "{}", e.msg);

    let unknown_base = "name = \"x\"\n[base]\nseed = 1\nnode_cuont = 5\n";
    let e = ScenarioSpec::parse(unknown_base).unwrap_err();
    assert_eq!((e.line, e.col), (4, 1));
    assert!(e.msg.contains("unknown key `node_cuont` in [base]"), "{}", e.msg);

    let bad_type = "name = \"x\"\n[base]\nseed = \"lots\"\n";
    let e = ScenarioSpec::parse(bad_type).unwrap_err();
    assert_eq!((e.line, e.col), (3, 1));
    assert!(e.msg.contains("non-negative integer"), "{}", e.msg);

    let bad_energy = "name = \"x\"\n[base.energy]\nkind = \"solar\"\n";
    let e = ScenarioSpec::parse(bad_energy).unwrap_err();
    assert!(e.msg.contains("unknown energy kind `solar`"), "{}", e.msg);

    let dup_label = "name = \"x\"\n[[variant]]\nlabel = \"a\"\n[[variant]]\nlabel = \"a\"\n";
    let e = ScenarioSpec::parse(dup_label).unwrap_err();
    assert_eq!((e.line, e.col), (5, 1));
    assert!(e.msg.contains("duplicate variant label `a`"), "{}", e.msg);

    let no_name = "adapter = \"generic\"\n";
    let e = ScenarioSpec::parse(no_name).unwrap_err();
    assert!(e.msg.contains("missing required key `name`"), "{}", e.msg);
}

#[test]
fn base_applies_no_matter_where_it_appears() {
    // [[variant]] before [base]: the variant must still inherit base.
    let text =
        "name = \"x\"\n\n[[variant]]\nlabel = \"v\"\nk = 1.5\n\n[base]\nseed = 7\nalpha = 3.0\n";
    let spec = ScenarioSpec::parse(text).expect("parses");
    assert_eq!(spec.base.seed, 7);
    assert_eq!(spec.variants[0].config.alpha, 3.0, "variant inherits late [base]");
    assert_eq!(spec.variants[0].config.k, 1.5);
    assert_eq!(spec.variants[0].config.seed, 7);
}

#[test]
fn json_specs_flow_through_the_same_builder() {
    let json = r#"{
        "name": "jsonic",
        "adapter": "generic",
        "strategy": "max_lifetime",
        "flows": 12,
        "base": {"seed": 9, "k": 0.25,
                 "energy": {"kind": "uniform", "lo": 2.5, "hi": 25.0}},
        "variant": [{"label": "a"}, {"label": "b", "alpha": 3.0}]
    }"#;
    let spec = ScenarioSpec::parse(json).expect("json spec parses");
    assert_eq!(spec.name, "jsonic");
    assert_eq!(spec.strategy, StrategyChoice::MaxLifetime);
    assert_eq!(spec.flows, 12);
    assert_eq!(spec.base.k, 0.25);
    assert_eq!(spec.base.initial_energy, EnergyInit::Uniform(2.5, 25.0));
    assert_eq!(spec.variants.len(), 2);
    assert_eq!(spec.variants[1].config.alpha, 3.0);
    // The canonical TOML of a JSON spec round-trips like any other.
    let back = ScenarioSpec::parse(&spec.to_toml()).expect("reparses");
    assert_eq!(back, spec);
}

#[test]
fn deeply_nested_json_spec_is_a_parse_error() {
    let n = 200_000;
    let spec = format!("{{\"name\": {}{}}}", "[".repeat(n), "]".repeat(n));
    let err = ScenarioSpec::parse(&spec).expect_err("nesting beyond the JSON limit");
    assert!(err.msg.contains("nesting deeper than"), "unexpected error: {}", err.msg);
}

#[test]
fn compile_validates_and_labels_runs() {
    let bad = "name = \"x\"\n[base]\nrange = -1.0\n";
    let spec = ScenarioSpec::parse(bad).expect("parses fine; compile rejects");
    let err = spec.compile().unwrap_err();
    assert!(matches!(err, ScenarioError::Invalid { ref label, .. } if label == "x"), "{err}");

    let good = "name = \"solo\"\n";
    let compiled = ScenarioSpec::parse(good).unwrap().compile().unwrap();
    assert_eq!(compiled.runs.len(), 1, "no variants → one run of base");
    assert_eq!(compiled.runs[0].label, "solo");
    assert_eq!(compiled.runs[0].config, ScenarioConfig::paper_default());
}

#[test]
fn compile_rejects_a_spec_with_zero_flows() {
    let spec = ScenarioSpec::parse("name = \"z\"\nflows = 0\n").expect("parses");
    let err = spec.compile().expect_err("zero replicates would average to NaN").to_string();
    assert!(err.contains("`flows` = 0") && err.contains("1..=100000"), "{err}");
}

#[test]
fn compile_rejects_an_arena_above_max_nodes() {
    let spec =
        ScenarioSpec::parse("name = \"big\"\n[base]\nnode_count = 4000000000\n").expect("parses");
    let err = spec.compile().expect_err("4e9 nodes exceed MAX_NODES").to_string();
    assert!(err.contains("`node_count` = 4000000000") && err.contains("2..=1000000"), "{err}");
}

#[test]
fn compile_with_overrides_seed_and_flows() {
    let spec = builtin("fig6").expect("builtin");
    let compiled = spec.compile_with(Some(77), Some(5)).expect("compiles");
    assert_eq!(compiled.flows, 5);
    assert!(compiled.runs.iter().all(|r| r.config.seed == 77));
    // Without overrides the spec's own values stand.
    let plain = spec.compile().expect("compiles");
    assert_eq!(plain.flows, 100);
    assert!(plain.runs.iter().all(|r| r.config.seed == 2025));
}

#[test]
fn ext_spec_pins_the_paper_parameters() {
    let spec = builtin("ext").expect("builtin");
    assert_eq!(spec.ext.as_ref().expect("ext block shipped"), &ExtParams::paper());
}

#[test]
fn new_families_compile_to_their_advertised_models() {
    let urban = builtin("clustered_urban").unwrap().compile().unwrap();
    assert_eq!(
        urban.runs[0].config.topology,
        TopologyFamily::Clustered { clusters: 5, spread: 12.0 }
    );
    let churn = builtin("churn").unwrap().compile().unwrap();
    assert_eq!(churn.runs[0].config.churn, ChurnModel::RelayExponential { mean_secs: 200.0 });
    let hetero = builtin("hetero_batteries").unwrap().compile().unwrap();
    assert_eq!(
        hetero.runs[0].config.initial_energy,
        EnergyInit::TwoTier { high: 25.0, low: 2.5, high_fraction: 0.3 }
    );
    assert_eq!(hetero.strategy, StrategyChoice::MaxLifetime);
    let sw = builtin("small_world").unwrap().compile().unwrap();
    let rewires: Vec<f64> = sw
        .runs
        .iter()
        .map(|r| match r.config.topology {
            TopologyFamily::SmallWorld { rewire } => rewire,
            other => panic!("expected small_world, got {other:?}"),
        })
        .collect();
    assert_eq!(rewires, [0.0, 0.1, 0.5]);
}

#[test]
fn generic_runs_are_seed_reproducible() {
    let _g = crate::test_lock();
    // Same spec, fresh memos: byte-identical CSV. Different seed: different
    // results. This is the determinism contract for the new families.
    let spec = builtin("churn").expect("builtin");
    let compiled = spec.compile_with(None, Some(3)).expect("compiles");
    crate::runner::clear_memos();
    let first = run_generic(&compiled).to_csv();
    crate::runner::clear_memos();
    let again = run_generic(&compiled).to_csv();
    assert_eq!(first, again, "repeat run from clean memos must be byte-identical");
    let reseeded = spec.compile_with(Some(4242), Some(3)).expect("compiles");
    assert_ne!(run_generic(&reseeded).to_csv(), first, "seed must matter");
}

proptest! {
    /// Round-tripping survives arbitrary numeric overrides: floats render
    /// with `{:?}` which is exact.
    #[test]
    fn numeric_overrides_round_trip(k in 0.01f64..10.0, alpha in 2.0f64..4.0, seed in 0u32..u32::MAX) {
        let text = format!(
            "name = \"prop\"\n[base]\nk = {k:?}\nalpha = {alpha:?}\nseed = {seed}\n"
        );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        prop_assert_eq!(spec.base.k, k);
        prop_assert_eq!(spec.base.alpha, alpha);
        let back = ScenarioSpec::parse(&spec.to_toml()).expect("reparses");
        prop_assert_eq!(back, spec);
    }
}
