//! Scenario-layer tests: golden round-trips over the shipped specs,
//! malformed-input diagnostics, and the compile pipeline's overrides and
//! limits.

use imobif_obs::json::MAX_DEPTH;
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
fn deeply_nested_toml_arrays_are_a_positioned_parse_error() {
    let nested = |n: usize| format!("steps = {}{}", "[".repeat(n), "]".repeat(n));
    // At the limit the value parses, and `steps` then wants numbers.
    let err = ext_error(&nested(MAX_DEPTH));
    assert_eq!((err.line, err.col, err.msg.as_str()), (4, 1, "expected numbers in `steps`"));
    // Past it, the error points at the first array too deep: the `[` at
    // column 9 and MAX_DEPTH more.
    let over = format!("arrays nested deeper than {MAX_DEPTH}");
    for n in [MAX_DEPTH + 1, 200_000] {
        let err = ext_error(&nested(n));
        assert_eq!((err.line, err.col, err.msg.as_str()), (4, 9 + MAX_DEPTH as u32, over.as_str()));
    }
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

/// Compiles `base` (a `[base]` table body) and returns the error text.
fn compile_error(base: &str) -> String {
    let spec = ScenarioSpec::parse(&format!("name = \"long\"\n[base]\n{base}")).expect("parses");
    spec.compile().expect_err("beyond the sim-time ceiling").to_string()
}

#[test]
fn compile_rejects_a_packet_interval_beyond_the_sim_time_ceiling() {
    let err = compile_error("packet_interval_secs = 1e14\n");
    assert!(err.contains("`packet_interval_secs` asks for 1e14") && err.contains("1e9"), "{err}");
}

#[test]
fn compile_rejects_a_churn_mean_beyond_the_sim_time_ceiling() {
    let err = compile_error("[base.churn]\nmodel = \"relay_exponential\"\nmean_secs = 1e300\n");
    assert!(err.contains("`churn.mean_secs` asks for 1e300") && err.contains("1e9"), "{err}");
}

#[test]
fn compile_rejects_a_mean_flow_paced_beyond_the_sim_time_ceiling() {
    // 1e30 bits in 8 000-bit packets at one per second: 1.25e26 sim-s.
    let err = compile_error("mean_flow_bits = 1e30\n");
    assert!(err.contains("`mean_flow_bits` asks for 1.25e26") && err.contains("1e9"), "{err}");
    // The shipped specs' longest mean flow, fig5's 5 MB, paces 5 000 sim-s.
    let longest = BUILTIN_NAMES
        .iter()
        .flat_map(|n| builtin(n).expect("builtin").compile().expect("compiles").runs)
        .map(|r| r.config.paced_secs(r.config.mean_flow_bits))
        .fold(0.0, f64::max);
    assert!(longest == 5e3 && longest * 1e5 < crate::config::MAX_SIM_SECS, "{longest}");
}

#[test]
fn compile_rejects_a_packet_interval_that_rounds_to_zero() {
    // Sim time counts whole microseconds: 0.1 µs would pace every packet
    // at once, which installing the flow rejects.
    let spec = ScenarioSpec::parse("name = \"fast\"\n[base]\npacket_interval_secs = 1e-7\n")
        .expect("parses");
    let err = spec.compile().expect_err("a zero pacing interval").to_string();
    assert_eq!(err, "run `fast` is invalid: invalid model parameter `packet_interval_secs`");
    let one_us = ScenarioSpec::parse("name = \"us\"\n[base]\npacket_interval_secs = 1e-6\n")
        .expect("parses");
    one_us.compile().expect("one microsecond paces");
}

#[test]
fn check_routable_names_the_run_whose_arena_routes_no_flow() {
    let text = "name = \"x\"\n[[variant]]\nlabel = \"ok\"\n\
                [[variant]]\nlabel = \"pair\"\nnode_count = 2\n";
    let compiled = ScenarioSpec::parse(text).expect("parses").compile().expect("validates");
    let err = compiled.check_routable().expect_err("two nodes route no flow through a relay");
    assert!(matches!(err, ScenarioError::Unroutable { ref label, .. } if label == "pair"), "{err}");
    let msg = err.to_string();
    assert!(msg.starts_with("run `pair` cannot route a flow: "), "{msg}");
    assert!(msg.contains("`node_count` = 2, `area_side` = 150.0, `range` = 30.0"), "{msg}");
    // The ext studies draw the paper's arena, whatever the runs say.
    let mut ext = ScenarioSpec::parse("name = \"e\"\nadapter = \"ext\"\n").unwrap();
    ext.base.node_count = 2;
    ext.compile().unwrap().check_routable().expect("not drawn");
    for name in BUILTIN_NAMES {
        builtin(name).unwrap().compile().unwrap().check_routable().expect("builtins route");
    }
}

/// Parses a spec whose `[ext]` table holds `line` on line 4, column 1,
/// and returns the error.
fn ext_error(line: &str) -> toml::ParseError {
    let text = format!("name = \"x\"\nadapter = \"ext\"\n[ext]\n{line}\n");
    ScenarioSpec::parse(&text).expect_err("an out-of-range [ext] value")
}

#[test]
fn ext_keys_are_range_checked_at_their_position() {
    let cases = [
        ("estimate_factors = [1.0, -1.0]", "`estimate_factors` entries must be positive, not -1.0"),
        ("estimate_factors = [0]", "`estimate_factors` entries must be positive, not 0.0"),
        ("steps = [0.0]", "`steps` entries must be positive, not 0.0"),
        ("steps = [1e400]", "`steps` entries must be positive, not inf"),
        ("lambdas = [0.5, 2.0]", "`lambdas` entries must lie in [0, 1], not 2.0"),
        ("lambdas = [-0.1]", "`lambdas` entries must lie in [0, 1], not -0.1"),
        ("multiflow_concurrent = 0", "`multiflow_concurrent` = 0 lies outside 1..=100000"),
        ("multiflow_concurrent = 100001", "`multiflow_concurrent` = 100001 lies outside 1..=100000"),
        ("multiflow_flow_bits = 0", "`multiflow_flow_bits` must be at least 1"),
        (
            "multiflow_flow_bits = 9000000000000",
            "parameter `multiflow_flow_bits` asks for 1.125e9 simulated seconds, above the limit of 1e9",
        ),
        ("relay_flow_bits = 0", "`relay_flow_bits` must be at least 1"),
        (
            "relay_flow_bits = 18000000000000000000",
            "parameter `relay_flow_bits` asks for 2.25e15 simulated seconds, above the limit of 1e9",
        ),
        ("initial_status_mean_flow_bits = 0.0", "`initial_status_mean_flow_bits` must be a positive number"),
        (
            "initial_status_mean_flow_bits = 1e30",
            "parameter `initial_status_mean_flow_bits` asks for 1.25e26 simulated seconds, above the limit of 1e9",
        ),
    ];
    for (line, msg) in cases {
        let err = ext_error(line);
        assert_eq!((err.line, err.col, err.msg.as_str()), (4, 1, msg), "{line}");
    }
    // The limits themselves are admitted.
    let edge = "name = \"x\"\n[ext]\nlambdas = [0.0, 1.0]\nmultiflow_concurrent = 100000\n\
                multiflow_flow_bits = 8000000000000\nrelay_flow_bits = 1\n";
    let ext = ScenarioSpec::parse(edge).expect("at the limits").ext.expect("an [ext] table");
    assert_eq!((ext.multiflow_concurrent, ext.multiflow_flow_bits), (100_000, 8_000_000_000_000));
}

#[test]
fn specs_reject_what_their_adapter_drops() {
    // fig5, fig7 and fig8 render one run: a second [[variant]] is an
    // error at its first key.
    for adapter in ["fig5", "fig7", "fig8"] {
        let head = format!("name = \"x\"\nadapter = \"{adapter}\"\n[[variant]]\nlabel = \"a\"\n");
        let e = ScenarioSpec::parse(&format!("{head}[[variant]]\nlabel = \"b\"\n")).unwrap_err();
        let msg = format!("adapter `{adapter}` renders only the first run: drop this [[variant]]");
        assert_eq!((e.line, e.col, e.msg.as_str()), (6, 1, msg.as_str()));
        assert_eq!(ScenarioSpec::parse(&head).expect("one run").variants.len(), 1);
    }
    // The ext studies run the paper's configuration at the spec's seed: a
    // [base] value other than the seed may only restate the paper's.
    let ext = |body: &str| ScenarioSpec::parse(&format!("name = \"x\"\nadapter = \"ext\"\n{body}"));
    let cases = [
        ("[base]\nseed = 3\nnode_count = 100\nk = 9.0\n", (6, 1), "`k` differs"),
        (
            "[base]\nseed = 3\n\n[base.energy]\nkind = \"fixed\"\njoules = 5.0\n",
            (6, 1),
            "`energy` differs",
        ),
        ("[[variant]]\nlabel = \"a\"\n", (3, 1), "adapter `ext` runs no [[variant]]"),
    ];
    for (body, at, msg) in cases {
        let e = ext(body).unwrap_err();
        assert_eq!((e.line, e.col), at, "{body}");
        assert!(e.msg.contains(msg), "{}", e.msg);
    }
    assert_eq!(ext("[base]\nseed = 3\nk = 0.5\n").expect("the paper's k").base.seed, 3);
    let json = r#"{"name": "j", "adapter": "ext", "base": {"seed": 1, "node_count": 50}}"#;
    let e = ScenarioSpec::parse(json).unwrap_err();
    let msg = "reads only `seed` from [base]: `node_count` differs from the paper's value";
    assert!(e.msg.ends_with(msg), "{}", e.msg);
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

#[test]
fn canonical_toml_of_every_builtin_is_pinned() {
    // FNV-1a 64 of each builtin's `to_toml()`: the canonical writer's bytes,
    // which `scenario print` shows and run manifests hash.
    let pins: [(&str, u64); 9] = [
        ("fig5", 0x1d8a_c4c2_bbd1_0629),
        ("fig6", 0xe8b9_a8c0_d5b7_b43f),
        ("fig7", 0x68af_85a8_a053_272c),
        ("fig8", 0xf9ab_0d6b_c540_fc27),
        ("ext", 0xd9c4_84f3_6a5b_af05),
        ("clustered_urban", 0xebe6_dbc5_35e9_5749),
        ("churn", 0x79f3_e53f_ff9b_2e7e),
        ("hetero_batteries", 0x60b5_abfb_f28d_f43b),
        ("small_world", 0x3419_7f4a_cf9d_d4a2),
    ];
    assert_eq!(pins.map(|(name, _)| name), BUILTIN_NAMES);
    for (name, pin) in pins {
        let text = builtin(name).expect("registered builtin").to_toml();
        assert_eq!(imobif_obs::fnv1a64(text.as_bytes()), pin, "`{name}` drifted:\n{text}");
    }
}
