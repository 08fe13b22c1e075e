//! Per-run manifest artifact: what ran, with what inputs, how long each
//! phase took, and a full metrics snapshot.
//!
//! The manifest is the machine-readable record that makes a batch run
//! reproducible and auditable: CI validates its schema, `imobif
//! manifest-check` re-parses it, and later PRs diff manifests across
//! commits. `config_hash` and `seed` are rendered as hex strings because
//! JSON numbers are `f64` and would corrupt values above 2^53.

use std::time::Instant;

use crate::json::Json;
use crate::registry::Snapshot;

/// Current schema. v2 added the `trace` ring-health block; v3 added the
/// optional `scenario` block (declarative-scenario runs). Older documents
/// still parse: the trace block defaults to all-zero, the scenario block
/// to absent.
pub const MANIFEST_SCHEMA_VERSION: u64 = 3;

/// Oldest schema version [`RunManifest::from_json`] still accepts.
pub const MANIFEST_MIN_SCHEMA_VERSION: u64 = 1;

/// Ring-buffer health of the run's trace and span sinks: how much was
/// recorded and how much fell off the ring. A nonzero eviction count means
/// the corresponding dump artifact is truncated (aggregates and metrics
/// stay exact — only raw event/span streams evict).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceHealth {
    /// Trace events recorded (including later-evicted ones).
    pub trace_recorded: u64,
    /// Trace events evicted from the `RingTrace`.
    pub trace_evicted: u64,
    /// Spans recorded (including later-evicted ones).
    pub spans_recorded: u64,
    /// Spans evicted from the `SpanSink` ring.
    pub spans_evicted: u64,
}

impl TraceHealth {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("trace_recorded".into(), Json::Num(self.trace_recorded as f64)),
            ("trace_evicted".into(), Json::Num(self.trace_evicted as f64)),
            ("spans_recorded".into(), Json::Num(self.spans_recorded as f64)),
            ("spans_evicted".into(), Json::Num(self.spans_evicted as f64)),
        ])
    }

    fn from_json(json: &Json) -> Result<TraceHealth, Fault<'_>> {
        let count = |key| field(json, "trace.", key, COUNT, Json::as_u64);
        Ok(TraceHealth {
            trace_recorded: count("trace_recorded")?,
            trace_evicted: count("trace_evicted")?,
            spans_recorded: count("spans_recorded")?,
            spans_evicted: count("spans_evicted")?,
        })
    }
}

/// Provenance of a declarative-scenario run (schema v3): which spec
/// produced the artifacts, hashed so manifest diffs catch spec edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioInfo {
    /// Scenario name (spec `name` field).
    pub name: String,
    /// FNV-1a 64 over the spec's canonical serialization.
    pub spec_hash: u64,
    /// Result adapter (`fig5`..`fig8`, `ext` or `generic`).
    pub adapter: String,
    /// Number of compiled runs.
    pub runs: u32,
}

impl ScenarioInfo {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("spec_hash".into(), Json::hex(self.spec_hash)),
            ("adapter".into(), Json::str(self.adapter.clone())),
            ("runs".into(), Json::Num(self.runs as f64)),
        ])
    }

    fn from_json(json: &Json) -> Result<ScenarioInfo, Fault<'_>> {
        let text = |key| field(json, "scenario.", key, STRING, Json::as_str).map(str::to_string);
        Ok(ScenarioInfo {
            name: text("name")?,
            spec_hash: field(json, "scenario.", "spec_hash", HEX, Json::as_hex)?,
            adapter: text("adapter")?,
            runs: field(json, "scenario.", "runs", COUNT, Json::as_u64)? as u32,
        })
    }
}

/// Wall-clock phase timer: `start("draw")` closes the previous phase and
/// opens the next; `finish()` closes the last one.
#[derive(Default)]
pub struct PhaseTimer {
    phases: Vec<(String, f64)>,
    current: Option<(String, Instant)>,
}

impl PhaseTimer {
    pub fn new() -> PhaseTimer {
        PhaseTimer::default()
    }

    pub fn start(&mut self, name: &str) {
        self.finish();
        self.current = Some((name.to_string(), Instant::now()));
    }

    pub fn finish(&mut self) {
        if let Some((name, t0)) = self.current.take() {
            let secs = t0.elapsed().as_secs_f64();
            // Re-entering a phase (e.g. "case" once per figure) accumulates.
            match self.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += secs,
                None => self.phases.push((name, secs)),
            }
        }
    }

    pub fn into_phases(mut self) -> Vec<(String, f64)> {
        self.finish();
        self.phases
    }
}

/// The manifest for one experiment invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    pub tool: String,
    /// Figure targets the run produced (e.g. `["fig5", "fig6"]`).
    pub targets: Vec<String>,
    /// FNV-1a 64 over the canonical rendering of the run configuration.
    pub config_hash: u64,
    pub seed: u64,
    pub flows: u32,
    pub threads: usize,
    /// `(phase name, wall seconds)` in execution order.
    pub phases: Vec<(String, f64)>,
    /// Trace/span ring health (schema v2; zero for v1 documents).
    pub trace: TraceHealth,
    /// Declarative-scenario provenance (schema v3; absent for figure runs
    /// and for older documents).
    pub scenario: Option<ScenarioInfo>,
    pub metrics: Snapshot,
}

impl RunManifest {
    pub fn to_json(&self) -> Json {
        let mut json = Json::Obj(vec![
            ("schema_version".into(), Json::Num(MANIFEST_SCHEMA_VERSION as f64)),
            ("tool".into(), Json::str(self.tool.clone())),
            (
                "targets".into(),
                Json::Arr(self.targets.iter().map(|t| Json::str(t.clone())).collect()),
            ),
            ("config_hash".into(), Json::hex(self.config_hash)),
            ("seed".into(), Json::hex(self.seed)),
            ("flows".into(), Json::Num(self.flows as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            (
                "phases".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, secs)| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(name.clone())),
                                ("wall_secs".into(), Json::Num(*secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trace".into(), self.trace.to_json()),
            ("metrics".into(), self.metrics.to_json()),
        ]);
        if let Some(scenario) = &self.scenario {
            let Json::Obj(entries) = &mut json else { unreachable!("built as an object") };
            let at = entries.iter().position(|(k, _)| k == "metrics").expect("metrics present");
            entries.insert(at, ("scenario".into(), scenario.to_json()));
        }
        json
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses and schema-validates a manifest document. A missing field
    /// reads `missing {field}`, a present one of the wrong type or value
    /// `{field}: expected {what}, found {kind}`.
    pub fn from_json(json: &Json) -> Result<RunManifest, String> {
        RunManifest::read(json).map_err(|f| f.msg)
    }

    fn read(json: &Json) -> Result<RunManifest, Fault<'_>> {
        let supported = MANIFEST_MIN_SCHEMA_VERSION..=MANIFEST_SCHEMA_VERSION;
        let want = format!("a version in {supported:?}");
        let version = field(json, "", "schema_version", &want, |v| {
            v.as_u64().filter(|v| supported.contains(v))
        })?;
        let trace = match json.get("trace") {
            Some(_) => TraceHealth::from_json(field(json, "", "trace", OBJECT, object)?)?,
            None if version < 2 => TraceHealth::default(),
            None => return Err("missing trace (required from schema v2)".to_string().into()),
        };
        let scenario = match json.get("scenario") {
            Some(_) => Some(ScenarioInfo::from_json(field(json, "", "scenario", OBJECT, object)?)?),
            None => None,
        };
        // A list item has no key of its own: its fault points at the list's.
        let targets = field(json, "", "targets", ARRAY, Json::as_arr)?
            .iter()
            .enumerate()
            .map(|(i, t)| {
                t.as_str().map(str::to_string).ok_or_else(|| Fault {
                    msg: format!("targets[{i}]: expected {STRING}, found {}", kind(t)),
                    value: json.get("targets"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let phases = field(json, "", "phases", ARRAY, Json::as_arr)?
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let scope = format!("phases[{i}].");
                let name = field(p, &scope, "name", STRING, Json::as_str)?;
                let secs =
                    field(p, &scope, "wall_secs", SECONDS, |v| v.as_f64().filter(|&s| s >= 0.0))?;
                Ok((name.to_string(), secs))
            })
            .collect::<Result<Vec<_>, Fault<'_>>>()?;
        Ok(RunManifest {
            tool: field(json, "", "tool", STRING, Json::as_str)?.to_string(),
            targets,
            config_hash: field(json, "", "config_hash", HEX, Json::as_hex)?,
            seed: field(json, "", "seed", HEX, Json::as_hex)?,
            flows: field(json, "", "flows", COUNT, Json::as_u64)? as u32,
            threads: field(json, "", "threads", COUNT, Json::as_u64)? as usize,
            phases,
            trace,
            scenario,
            metrics: Snapshot::from_json(field(json, "", "metrics", OBJECT, object)?)?,
        })
    }

    /// Validates raw manifest text; `Ok` carries the parsed manifest. Errors
    /// read as [`RunManifest::from_json`]'s, and a present field's also
    /// names the byte offset of its key (a syntax error names its own).
    pub fn validate(text: &str) -> Result<RunManifest, String> {
        let (json, keys) = Json::parse_with_key_offsets(text).map_err(|e| e.to_string())?;
        RunManifest::read(&json).map_err(|f| {
            match f.value.and_then(|v| key_offset(&json, &keys, v)) {
                Some(at) => format!("{} at byte {at}", f.msg),
                None => f.msg,
            }
        })
    }
}

/// What a schema check found wrong, and the value it is about: `None` for
/// a missing field, which has no place in the text.
struct Fault<'a> {
    msg: String,
    value: Option<&'a Json>,
}

impl From<String> for Fault<'_> {
    fn from(msg: String) -> Self {
        Fault { msg, value: None }
    }
}

const COUNT: &str = "a non-negative integer";
const SECONDS: &str = "a non-negative number";
const STRING: &str = "a string";
const HEX: &str = "a 0x-prefixed hex string";
const ARRAY: &str = "an array";
const OBJECT: &str = "an object";

/// Reads field `key` of `obj` with `read`, which accepts what `want`
/// describes; `scope` names the enclosing block. A missing field reads
/// `missing {scope}{key}`, a present one `read` refuses
/// `{scope}{key}: expected {want}, found {kind}`.
fn field<'a, T>(
    obj: &'a Json,
    scope: &str,
    key: &str,
    want: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, Fault<'a>> {
    let Some(value) = obj.get(key) else {
        return Err(format!("missing {scope}{key}").into());
    };
    read(value).ok_or_else(|| Fault {
        msg: format!("{scope}{key}: expected {want}, found {}", kind(value)),
        value: Some(value),
    })
}

fn object(v: &Json) -> Option<&Json> {
    matches!(v, Json::Obj(_)).then_some(v)
}

/// What kind of JSON value `v` is, for an error message.
fn kind(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

/// The byte offset of the key whose value is `target` (the same node, not
/// an equal one) in `root`, given every key's offset in document order as
/// [`Json::parse_with_key_offsets`] lists them.
fn key_offset(root: &Json, offsets: &[usize], target: &Json) -> Option<usize> {
    fn walk(v: &Json, target: &Json, keys: &mut std::slice::Iter<'_, usize>) -> Option<usize> {
        match v {
            Json::Obj(entries) => entries.iter().find_map(|(_, value)| {
                let at = *keys.next()?;
                if std::ptr::eq(value, target) {
                    Some(at)
                } else {
                    walk(value, target, keys)
                }
            }),
            Json::Arr(items) => items.iter().find_map(|item| walk(item, target, keys)),
            _ => None,
        }
    }
    walk(root, target, &mut offsets.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> RunManifest {
        let reg = Registry::enabled();
        reg.counter("queue.pushes").add(42);
        reg.float_counter("energy.data_joules").add(1.5);
        reg.histogram("queue.occupancy", &[1.0, 8.0, 64.0]).observe(3.0);
        RunManifest {
            tool: "imobif-experiments".into(),
            targets: vec!["fig5".into(), "fig6".into()],
            config_hash: 0x67fd_e585_6d82_96c6,
            seed: 2025,
            flows: 8,
            threads: 4,
            phases: vec![("draw".into(), 0.25), ("case".into(), 1.5)],
            trace: TraceHealth {
                trace_recorded: 120,
                trace_evicted: 20,
                spans_recorded: 64,
                spans_evicted: 0,
            },
            scenario: None,
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn manifest_round_trip() {
        let m = sample();
        let text = m.render();
        let back = RunManifest::validate(&text).expect("valid manifest");
        assert_eq!(back, m);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let m = sample();
        let good = m.render();
        assert!(RunManifest::validate(&good.replace("config_hash", "cfg")).is_err());
        assert!(RunManifest::validate(
            &good.replace("\"schema_version\":3", "\"schema_version\":99")
        )
        .is_err());
        // v2 documents must carry the trace block.
        assert!(RunManifest::validate(&good.replace("\"trace\"", "\"trce\"")).is_err());
        assert!(RunManifest::validate("not json").is_err());
    }

    /// `sample()` rendered with `key` set to `value`, or removed.
    fn with_field(key: &str, value: Option<Json>) -> String {
        let Json::Obj(mut entries) = sample().to_json() else { panic!("an object") };
        let at = entries.iter().position(|(k, _)| k == key).expect("a sample field");
        match value {
            Some(v) => entries[at].1 = v,
            None => drop(entries.remove(at)),
        }
        Json::Obj(entries).render()
    }

    /// Every required field, removed and then given a value of the wrong
    /// type: a missing one reads as missing, a wrong one with what was
    /// expected and what was found, and `validate` adds its key's offset.
    #[test]
    fn schema_errors_tell_missing_fields_from_wrong_ones() {
        let cases = [
            ("schema_version", Json::str("3"), "expected a version in 1..=3, found a string"),
            ("trace", Json::Num(1.0), "expected an object, found a number"),
            ("targets", Json::Obj(vec![]), "expected an array, found an object"),
            ("phases", Json::Null, "expected an array, found null"),
            ("tool", Json::Num(5.0), "expected a string, found a number"),
            ("config_hash", Json::Num(7.0), "expected a 0x-prefixed hex string, found a number"),
            ("seed", Json::str("2025"), "expected a 0x-prefixed hex string, found a string"),
            ("flows", Json::Num(-1.0), "expected a non-negative integer, found a number"),
            ("threads", Json::Bool(true), "expected a non-negative integer, found a boolean"),
            ("metrics", Json::Arr(vec![]), "expected an object, found an array"),
        ];
        for (key, bad, want) in cases {
            let missing = RunManifest::validate(&with_field(key, None)).expect_err(key);
            match key {
                "trace" => assert_eq!(missing, "missing trace (required from schema v2)"),
                _ => assert_eq!(missing, format!("missing {key}")),
            }
            let text = with_field(key, Some(bad));
            let at = text.find(&format!("\"{key}\"")).expect("the key is in the text");
            let wrong = RunManifest::validate(&text).expect_err(key);
            assert_eq!(wrong, format!("{key}: {want} at byte {at}"));
            let json = Json::parse(&text).expect("valid JSON");
            assert_eq!(RunManifest::from_json(&json).expect_err(key), format!("{key}: {want}"));
        }
        let v5 = with_field("schema_version", Some(Json::Num(5.0)));
        let err = RunManifest::validate(&v5).expect_err("v5");
        assert!(err.starts_with("schema_version: expected a version in 1..=3, found a number"));
    }

    /// Fields inside the trace and scenario blocks and the phase and target
    /// lists are named by their place; a list item has no key of its own,
    /// so it points at its list's.
    #[test]
    fn schema_errors_name_fields_inside_blocks_and_lists() {
        let mut m = sample();
        m.scenario = Some(ScenarioInfo {
            name: "churn".into(),
            spec_hash: 1,
            adapter: "generic".into(),
            runs: 3,
        });
        let good = m.render();
        let at = |text: &str, pat: &str| text.find(pat).expect("pattern in text");
        let text = good.replace("\"trace_evicted\":20", "\"trace_evicted\":\"20\"");
        assert_eq!(
            RunManifest::validate(&text).expect_err("trace field"),
            format!(
                "trace.trace_evicted: expected a non-negative integer, found a string at byte {}",
                at(&text, "\"trace_evicted\"")
            )
        );
        let text = good.replace("\"wall_secs\":1.5", "\"wall_secs\":-1.5");
        assert_eq!(
            RunManifest::validate(&text).expect_err("phase"),
            format!(
                "phases[1].wall_secs: expected a non-negative number, found a number at byte {}",
                at(&text, "\"wall_secs\":-1.5")
            )
        );
        let text = good.replace("\"fig6\"", "6");
        assert_eq!(
            RunManifest::validate(&text).expect_err("target"),
            format!(
                "targets[1]: expected a string, found a number at byte {}",
                at(&text, "\"targets\"")
            )
        );
        let text = good.replace("\"runs\":3", "\"rns\":3");
        assert_eq!(RunManifest::validate(&text).expect_err("scenario"), "missing scenario.runs");
        let text = good.replace("\"name\":\"draw\"", "\"name\":[]");
        assert_eq!(
            RunManifest::validate(&text).expect_err("phase name"),
            format!(
                "phases[0].name: expected a string, found an array at byte {}",
                at(&text, "\"name\":[]")
            )
        );
    }

    #[test]
    fn accepts_v1_documents_without_trace_block() {
        let m = sample();
        let mut json = m.to_json();
        let Json::Obj(entries) = &mut json else { panic!("manifest renders an object") };
        entries.retain(|(k, _)| k != "trace");
        for (k, v) in entries.iter_mut() {
            if k == "schema_version" {
                *v = Json::Num(1.0);
            }
        }
        let back = RunManifest::validate(&json.render()).expect("v1 manifest still parses");
        assert_eq!(back.trace, TraceHealth::default());
        assert_eq!(back.metrics, m.metrics);
    }

    #[test]
    fn scenario_block_round_trips_and_is_optional() {
        let mut m = sample();
        m.scenario = Some(ScenarioInfo {
            name: "churn".into(),
            spec_hash: 0x1234_5678_9abc_def0,
            adapter: "generic".into(),
            runs: 3,
        });
        let text = m.render();
        assert!(text.contains("\"scenario\""));
        let back = RunManifest::validate(&text).expect("valid manifest");
        assert_eq!(back, m);
        // A corrupt scenario block is an error, not a silent None.
        assert!(RunManifest::validate(&text.replace("spec_hash", "spec_hsh")).is_err());
    }

    #[test]
    fn phase_timer_accumulates_reentered_phases() {
        let mut t = PhaseTimer::new();
        t.start("case");
        t.start("render");
        t.start("case");
        let phases = t.into_phases();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["case", "render"]);
        assert!(phases.iter().all(|&(_, s)| s >= 0.0));
    }
}
