//! Hostile input for every parser a user can feed: scenario specs in TOML
//! and in JSON (`ScenarioSpec::parse`), bare JSON (`imobif_obs::json`),
//! JSONL traces (`events_from_jsonl`, what `trace summary` and `trace dump`
//! read) and run manifests (`RunManifest::validate`, what `manifest-check`
//! runs).
//!
//! The inputs: shipped specs and real traces and manifests with bytes
//! flipped, truncated or with a line duplicated; random bytes; a soup of
//! each grammar's tokens; nesting 200,000 deep; 400-digit numerals. No
//! input may panic. A spec error names its line and column (line 1 or
//! later; a JSON spec's syntax error also names its byte offset), a JSON
//! syntax error its byte offset, and a trace error its line. A manifest
//! that is valid JSON but breaks the schema names the field instead: a
//! missing field has no position in the text.

use imobif_experiments::scenario::toml::{self, Item, Table, TomlValue};
use imobif_experiments::scenario::{builtin_source, ScenarioSpec, BUILTIN_NAMES};
use imobif_experiments::trace_tools;
use imobif_geom::Point2;
use imobif_netsim::trace::{events_from_jsonl, events_to_jsonl, TraceEvent};
use imobif_netsim::{EnergyCategory, NodeId, SimTime};
use imobif_obs::{Json, Registry, RunManifest, TraceHealth};
use proptest::prelude::*;

/// One mutation step `(kind, place, byte)`: kind 0 XORs the byte at
/// `place` with `byte | 1`, kind 1 cuts the text at `place`, kind 2
/// repeats the line holding `place`.
type Mutation = (u8, usize, u8);

fn mutate(text: &str, steps: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, place, byte) in steps {
        if bytes.is_empty() {
            break;
        }
        let at = place % bytes.len();
        match kind {
            0 => bytes[at] ^= byte | 1,
            1 => bytes.truncate(at),
            _ => {
                let start = bytes[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The shipped spec `i`, as TOML or rendered as a JSON document.
fn shipped(i: usize, json: bool) -> String {
    let text = builtin_source(BUILTIN_NAMES[i % BUILTIN_NAMES.len()]).expect("shipped spec");
    if json {
        table_json(&toml::parse(text).expect("shipped specs parse")).render()
    } else {
        text.to_string()
    }
}

fn table_json(table: &Table) -> Json {
    let entry = |item: &Item| match item {
        Item::Value(v) => value_json(v),
        Item::Table(t) => table_json(t),
        Item::ArrayOfTables(ts) => Json::Arr(ts.iter().map(table_json).collect()),
    };
    Json::Obj(table.entries.iter().map(|(k, _, item)| (k.clone(), entry(item))).collect())
}

fn value_json(value: &TomlValue) -> Json {
    match value {
        TomlValue::Str(s) => Json::str(s.clone()),
        TomlValue::Int(i) => Json::Num(*i as f64),
        TomlValue::Float(f) => Json::Num(*f),
        TomlValue::Bool(b) => Json::Bool(*b),
        TomlValue::Array(items) => Json::Arr(items.iter().map(value_json).collect()),
    }
}

/// A trace of every event kind, as `trace record` writes it.
fn trace_text() -> String {
    let (a, b) = (NodeId::new(0), NodeId::new(7));
    let t = SimTime::from_micros;
    events_to_jsonl(&[
        TraceEvent::Sent {
            time: t(10),
            from: a,
            to: b,
            bits: 8_000,
            category: EnergyCategory::Data,
            energy: 0.25,
        },
        TraceEvent::Delivered { time: t(42), from: a, to: b },
        TraceEvent::Moved {
            time: t(43),
            node: b,
            from: Point2::new(1.0, 2.0),
            to: Point2::new(1.5, 2.0),
            energy: 0.125,
        },
        TraceEvent::Dropped { time: t(50), to: a },
        TraceEvent::Died { time: t(51), node: b },
    ])
}

/// A manifest with every section filled, as `--metrics` writes it.
fn manifest_text() -> String {
    let reg = Registry::enabled();
    reg.counter("queue.pushes").add(42);
    reg.float_counter("energy.data_joules").add(1.5);
    reg.histogram("queue.occupancy", &[1.0, 8.0, 64.0]).observe(3.0);
    RunManifest {
        tool: "imobif-experiments".into(),
        targets: vec!["fig6".into()],
        config_hash: 0x67fd_e585_6d82_96c6,
        seed: 2025,
        flows: 8,
        threads: 4,
        phases: vec![("draw".into(), 0.25)],
        trace: TraceHealth {
            trace_recorded: 120,
            trace_evicted: 20,
            spans_recorded: 64,
            spans_evicted: 0,
        },
        scenario: None,
        metrics: reg.snapshot(),
    }
    .render()
}

fn check_spec(text: &str) {
    if let Err(e) = ScenarioSpec::parse(text) {
        assert!(e.line >= 1 && e.col >= 1, "unpositioned spec error `{}` for {text:?}", e.msg);
        if e.msg.starts_with("json: ") {
            assert!(e.msg.contains(" at byte "), "json syntax error without an offset: {e}");
        }
    }
}

fn check_json(text: &str) {
    if let Err(e) = Json::parse(text) {
        assert!(e.contains(" at byte "), "json error without an offset: `{e}` for {text:?}");
    }
}

fn check_trace(text: &str) {
    match events_from_jsonl(text) {
        Ok(events) => {
            std::hint::black_box(trace_tools::summarize(&events));
        }
        Err(e) => {
            let line = e.strip_prefix("line ").and_then(|r| r.split(':').next());
            assert!(line.is_some_and(|n| n.parse::<u32>().is_ok_and(|n| n >= 1)), "{e}");
        }
    }
}

fn check_manifest(text: &str) {
    if let (Err(e), Err(syntax)) = (RunManifest::validate(text), Json::parse(text)) {
        assert_eq!(e, syntax, "a syntax error reads as the JSON parser's");
        assert!(e.contains(" at byte "), "{e}");
    }
}

/// Every parser, on one input: a spec is tried as itself and behind a `{`.
fn check_all(text: &str) {
    check_spec(text);
    check_spec(&format!("{{{text}"));
    check_json(text);
    check_trace(text);
    check_manifest(text);
}

/// Tokens of the four grammars, for inputs that get past the first byte.
const TOKENS: [&str; 32] = [
    "[",
    "]",
    "[[",
    "]]",
    "{",
    "}",
    "\"",
    "=",
    ",",
    ":",
    ".",
    "\n",
    "#",
    " ",
    "\\",
    "\\u",
    "name",
    "base",
    "variant",
    "flows",
    "true",
    "null",
    "1",
    "-2.5e3",
    "1e999",
    "_",
    "é",
    "\"kind\"",
    "\"died\"",
    "\"time_us\"",
    "label = \"a\"",
    "[[variant]]",
];

proptest! {
    #[test]
    fn prop_mutated_specs_never_panic(
        spec in 0usize..64,
        json in 0u8..2,
        steps in proptest::collection::vec((0u8..3, 0usize..1_000_000, 0u8..=255), 1..6),
    ) {
        let text = mutate(&shipped(spec, json == 1), &steps);
        check_spec(&text);
        check_json(&text);
    }

    #[test]
    fn prop_mutated_traces_and_manifests_never_panic(
        which in 0u8..2,
        steps in proptest::collection::vec((0u8..3, 0usize..100_000, 0u8..=255), 1..6),
    ) {
        if which == 0 {
            check_trace(&mutate(&trace_text(), &steps));
        } else {
            check_manifest(&mutate(&manifest_text(), &steps));
        }
    }

    #[test]
    fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..600)) {
        check_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn prop_token_soup_never_panics(tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..120)) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        check_all(&text);
    }
}

#[test]
fn shipped_inputs_parse() {
    for i in 0..BUILTIN_NAMES.len() {
        for json in [false, true] {
            ScenarioSpec::parse(&shipped(i, json)).expect("a shipped spec parses");
        }
    }
    assert_eq!(events_from_jsonl(&trace_text()).expect("trace").len(), 5);
    RunManifest::validate(&manifest_text()).expect("manifest");
}

#[test]
fn nesting_200_000_deep_is_a_positioned_error() {
    let n = 200_000;
    let deep = |open: &str, close: &str| format!("{}1{}", open.repeat(n), close.repeat(n));
    let header = format!("name = \"x\"\n[{}]\n", vec!["a"; n].join("."));
    let err = ScenarioSpec::parse(&header).expect_err("a table 200,000 deep");
    assert_eq!((err.line, err.col), (2, 258), "{err}");
    assert!(err.msg.contains("tables nested deeper than 128"), "{err}");
    let aot = format!("name = \"x\"\n[[{}]]\n", vec!["a"; n].join("."));
    assert_eq!(ScenarioSpec::parse(&aot).expect_err("200,000 deep").line, 2);
    let json = format!("{{\"name\": \"x\",\n \"base\": {}}}", deep("{\"a\":", "}"));
    let err = ScenarioSpec::parse(&json).expect_err("objects 200,000 deep");
    assert_eq!(err.line, 2, "{err}");
    assert!(err.msg.contains("nesting deeper than 128 at byte"), "{err}");
    let trace = format!("{}\n{}\n", trace_text().lines().next().unwrap(), deep("[", "]"));
    let err = events_from_jsonl(&trace).expect_err("arrays 200,000 deep");
    assert!(err.starts_with("line 2: nesting deeper than 128 at byte 128"), "{err}");
    let err = RunManifest::validate(&deep("{\"a\":", "}")).expect_err("200,000 deep");
    assert_eq!(err, "nesting deeper than 128 at byte 640");
}

#[test]
fn a_table_at_the_depth_limit_parses() {
    let at_limit = format!("[{}]\nk = 1\n", vec!["a"; 128].join("."));
    toml::parse(&at_limit).expect("128 segments");
    let over = format!("[{}]\nk = 1\n", vec!["a"; 129].join("."));
    let err = toml::parse(&over).expect_err("129 segments");
    assert_eq!((err.line, err.col), (1, 258));
}

#[test]
fn four_hundred_digit_numerals_are_positioned_errors_or_values() {
    let digits = "9".repeat(400);
    for (key, value) in [
        ("flows", digits.clone()),
        ("flows", format!("-{digits}")),
        ("flows", format!("{digits}.5")),
    ] {
        let text = format!("name = \"x\"\n{key} = {value}\n");
        let err = ScenarioSpec::parse(&text).expect_err("out of range");
        assert_eq!((err.line, err.col), (2, 1), "{err}");
        let json = format!("{{\"name\": \"x\",\n\"{key}\": {value}}}");
        let err = ScenarioSpec::parse(&json).expect_err("out of range");
        assert_eq!((err.line, err.col), (2, 1), "{err}");
    }
    for field in ["node_count", "seed", "k", "alpha", "range", "area_side"] {
        let text = format!("name = \"x\"\n[base]\n{field} = {digits}\n");
        check_spec(&text);
        check_spec(&format!("{{\"name\": \"x\", \"base\": {{\"{field}\": {digits}}}}}"));
    }
    let died = format!("{{\"kind\":\"died\",\"time_us\":{digits},\"node\":1}}\n");
    let err = events_from_jsonl(&died).expect_err("time_us beyond u64");
    assert_eq!(err, "line 1: missing/invalid time_us");
    check_trace(&format!("{{\"kind\":\"died\",\"time_us\":1{},\"node\":1}}\n", "0".repeat(300)));
    let manifest = manifest_text().replacen("\"flows\":8", &format!("\"flows\":{digits}"), 1);
    assert!(manifest.contains(&digits));
    check_manifest(&manifest);
}

#[test]
fn long_json_strings_parse_in_linear_time() {
    let body = "x".repeat(4 << 20);
    let doc = format!("{{\"name\": \"{body}\"}}");
    let start = std::time::Instant::now();
    let json = Json::parse(&doc).expect("one long string");
    assert_eq!(json.get("name").and_then(Json::as_str).map(str::len), Some(4 << 20));
    assert!(start.elapsed().as_secs_f64() < 2.0, "{:?}", start.elapsed());
}
