//! [`ScenarioSpec`]: the declarative description of an experiment, parsed
//! from TOML (or JSON) and lowered by [`crate::scenario::compile`] into the
//! existing [`ScenarioConfig`]/batch machinery.

use std::fmt::Write as _;

use imobif_obs::Json;

use crate::config::{
    check_sim_secs, ChurnModel, EnergyInit, Kind, ScenarioConfig, TopologyFamily, MAX_FLOWS,
    SCALARS,
};
use crate::runner::StrategyChoice;

use super::toml::{self, Item, ParseError, Pos, Table, TomlValue};

/// Which result/chart adapter interprets a compiled scenario's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adapter {
    /// Placement snapshots (paper Fig. 5).
    Fig5,
    /// Energy-consumption ratio panels (paper Fig. 6).
    Fig6,
    /// Notification histogram (paper Fig. 7).
    Fig7,
    /// Lifetime-ratio CDF (paper Fig. 8).
    Fig8,
    /// The extension-study battery (`figures::ext`).
    Ext,
    /// Plain per-case table — the default for new scenario families.
    Generic,
}

impl Adapter {
    fn parse(s: &str) -> Option<Adapter> {
        Some(match s {
            "fig5" => Adapter::Fig5,
            "fig6" => Adapter::Fig6,
            "fig7" => Adapter::Fig7,
            "fig8" => Adapter::Fig8,
            "ext" => Adapter::Ext,
            "generic" => Adapter::Generic,
            _ => return None,
        })
    }

    /// The spec-file spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Adapter::Fig5 => "fig5",
            Adapter::Fig6 => "fig6",
            Adapter::Fig7 => "fig7",
            Adapter::Fig8 => "fig8",
            Adapter::Ext => "ext",
            Adapter::Generic => "generic",
        }
    }
}

/// One named parameter variation of the base scenario. The config is fully
/// resolved at parse time (base + overrides), so consumers never re-apply
/// patches.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Display/CSV label, e.g. `"fig6a"`.
    pub label: String,
    /// The resolved configuration.
    pub config: ScenarioConfig,
}

/// Parameters of the extension-study battery (`figures::ext`). Shipped in
/// the `ext` scenario's `[ext]` table; [`ExtParams::paper`] is the set the
/// hard-coded studies used.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtParams {
    /// Estimate-factor sweep points (`ext_estimate`).
    pub estimate_factors: Vec<f64>,
    /// Per-packet movement bounds (`ext_step`).
    pub steps: Vec<f64>,
    /// Energy↔lifetime blend weights (`ext_hybrid`).
    pub lambdas: Vec<f64>,
    /// Concurrent flows in the multi-flow arena study.
    pub multiflow_concurrent: u32,
    /// Per-flow length of the multi-flow study, in bits.
    pub multiflow_flow_bits: u64,
    /// Fixed flow length of the relay-selection study, in bits.
    pub relay_flow_bits: u64,
    /// Relay budget of the relay-selection planner.
    pub relay_max: usize,
    /// Mean flow length of the initial-status ablation, in bits.
    pub initial_status_mean_flow_bits: f64,
}

impl ExtParams {
    /// The values the pre-scenario-layer studies hard-coded.
    #[must_use]
    pub fn paper() -> Self {
        ExtParams {
            estimate_factors: vec![0.1, 0.5, 1.0, 2.0, 10.0],
            steps: vec![0.25, 1.0, 4.0],
            lambdas: vec![0.0, 0.5, 1.0],
            multiflow_concurrent: 8,
            multiflow_flow_bits: 16_000_000,
            relay_flow_bits: 8_000_000,
            relay_max: 12,
            initial_status_mean_flow_bits: 8e5,
        }
    }
}

/// A validated, serializable scenario description.
///
/// Parse with [`ScenarioSpec::parse`] (TOML, or JSON when the text starts
/// with `{`), serialize canonically with [`ScenarioSpec::to_toml`], lower
/// with `compile`/`compile_with` (see [`crate::scenario::compile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (artifact prefix for the generic adapter).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Result adapter.
    pub adapter: Adapter,
    /// Strategy every run uses.
    pub strategy: StrategyChoice,
    /// Default replicate count (CLI `--flows` overrides).
    pub flows: u64,
    /// The base configuration (`[base]` over [`ScenarioConfig::paper_default`]).
    pub base: ScenarioConfig,
    /// Parameter variations (`[[variant]]`); empty means "one run of base".
    pub variants: Vec<VariantSpec>,
    /// Extension-study parameters (`[ext]`).
    pub ext: Option<ExtParams>,
}

impl ScenarioSpec {
    /// Parses a spec from TOML, or from JSON when the first non-whitespace
    /// character is `{`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the line and column it points at:
    /// the offending key or value, or the document's start for a missing
    /// key. A JSON syntax error's message also names its byte offset.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
        let start = text.len() - text.trim_start().len();
        if start == text.len() || !text[start..].starts_with('{') {
            return ScenarioSpec::from_table(&toml::parse(text)?, Pos { line: 1, col: 1 });
        }
        let (json, keys) = Json::parse_with_key_offsets(text)
            .map_err(|e| ParseError::at(LineCols::new(text).pos(e.at), format!("json: {e}")))?;
        let mut lines = LineCols::new(text);
        let root = lines.pos(start);
        let mut keys = keys.into_iter().map(|at| lines.pos(at));
        ScenarioSpec::from_table(&json_to_table(&json, root, &mut keys)?, root)
    }

    /// Builds a spec from its document's root table; `start` is where the
    /// document starts, the position of a missing required key.
    fn from_table(root: &Table, start: Pos) -> Result<ScenarioSpec, ParseError> {
        let mut name = None;
        let mut description = String::new();
        let mut adapter = Adapter::Generic;
        let mut strategy = StrategyChoice::MinEnergy;
        let mut flows = 100u64;
        let mut base = ScenarioConfig::paper_default();
        let mut ext = None;
        // First pass: everything except variants, so `[base]` applies no
        // matter where it appears relative to `[[variant]]` blocks.
        for (key, pos, item) in &root.entries {
            match key.as_str() {
                "name" => name = Some(expect_str(item, *pos, "name")?),
                "description" => description = expect_str(item, *pos, "description")?,
                "adapter" => {
                    let s = expect_str(item, *pos, "adapter")?;
                    adapter = Adapter::parse(&s).ok_or_else(|| {
                        ParseError::at(
                            *pos,
                            format!("unknown adapter `{s}` (expected fig5..fig8, ext or generic)"),
                        )
                    })?;
                }
                "strategy" => {
                    let s = expect_str(item, *pos, "strategy")?;
                    strategy = match s.as_str() {
                        "min_energy" => StrategyChoice::MinEnergy,
                        "max_lifetime" => StrategyChoice::MaxLifetime,
                        _ => {
                            return Err(ParseError::at(
                                *pos,
                                format!(
                                    "unknown strategy `{s}` (expected min_energy or max_lifetime)"
                                ),
                            ));
                        }
                    };
                }
                "flows" => flows = expect_u64(item, *pos, "flows")?,
                "base" => {
                    let t = expect_table(item, *pos, "base")?;
                    apply_config(&mut base, t, "base")?;
                }
                "variant" => {} // second pass
                "ext" => {
                    let t = expect_table(item, *pos, "ext")?;
                    ext = Some(parse_ext(t)?);
                }
                other => {
                    return Err(ParseError::at(*pos, format!("unknown top-level key `{other}`")));
                }
            }
        }
        let name = name.ok_or_else(|| ParseError::at(start, "missing required key `name`"))?;
        check_adapter_reads(adapter, root, &base)?;
        let mut variants = Vec::new();
        if let Some((pos, item)) = root.get("variant") {
            let Item::ArrayOfTables(tables) = item else {
                return Err(ParseError::at(*pos, "`variant` must use [[variant]] blocks"));
            };
            for t in tables {
                let (lpos, label) = match t.get("label") {
                    Some((p, i)) => (*p, expect_str(i, *p, "label")?),
                    None => {
                        return Err(ParseError::at(
                            root.get("variant").map_or(start, |(p, _)| *p),
                            "every [[variant]] needs a `label`",
                        ));
                    }
                };
                if variants.iter().any(|v: &VariantSpec| v.label == label) {
                    return Err(ParseError::at(lpos, format!("duplicate variant label `{label}`")));
                }
                let mut config = base;
                apply_config(&mut config, t, "variant")?;
                variants.push(VariantSpec { label, config });
            }
        }
        Ok(ScenarioSpec { name, description, adapter, strategy, flows, base, variants, ext })
    }

    /// Canonical TOML serialization: full `[base]`, per-variant overrides
    /// only. `parse(to_toml(spec)) == spec` exactly (floats render with
    /// `{:?}`, which round-trips).
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", toml_str(&self.description));
        }
        let _ = writeln!(out, "adapter = \"{}\"", self.adapter.name());
        let strategy = match self.strategy {
            StrategyChoice::MinEnergy => "min_energy",
            StrategyChoice::MaxLifetime => "max_lifetime",
        };
        let _ = writeln!(out, "strategy = \"{strategy}\"");
        let _ = writeln!(out, "flows = {}", self.flows);
        out.push('\n');
        out.push_str("[base]\n");
        write_config(&mut out, &self.base, None, "base");
        for v in &self.variants {
            out.push('\n');
            out.push_str("[[variant]]\n");
            let _ = writeln!(out, "label = {}", toml_str(&v.label));
            write_config(&mut out, &v.config, Some(&self.base), "variant");
        }
        if let Some(ext) = &self.ext {
            out.push('\n');
            out.push_str("[ext]\n");
            let _ = writeln!(out, "estimate_factors = {}", float_array(&ext.estimate_factors));
            let _ = writeln!(out, "steps = {}", float_array(&ext.steps));
            let _ = writeln!(out, "lambdas = {}", float_array(&ext.lambdas));
            let _ = writeln!(out, "multiflow_concurrent = {}", ext.multiflow_concurrent);
            let _ = writeln!(out, "multiflow_flow_bits = {}", ext.multiflow_flow_bits);
            let _ = writeln!(out, "relay_flow_bits = {}", ext.relay_flow_bits);
            let _ = writeln!(out, "relay_max = {}", ext.relay_max);
            let _ = writeln!(
                out,
                "initial_status_mean_flow_bits = {:?}",
                ext.initial_status_mean_flow_bits
            );
        }
        out
    }
}

fn toml_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn float_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Writes the fields of `cfg` whose bits differ from `base`'s (a variant
/// block), or every field when there is no `base`: the scalars from
/// [`SCALARS`], then the energy/topology/churn sub-tables.
fn write_config(out: &mut String, cfg: &ScenarioConfig, base: Option<&ScenarioConfig>, ctx: &str) {
    for field in &SCALARS {
        let bits = (field.read)(cfg);
        if base.is_some_and(|base| (field.read)(base) == bits) {
            continue;
        }
        let _ = match field.kind {
            Kind::Count | Kind::Int => writeln!(out, "{} = {bits}", field.key),
            Kind::Float => writeln!(out, "{} = {:?}", field.key, f64::from_bits(bits)),
            Kind::Bool => writeln!(out, "{} = {}", field.key, bits != 0),
        };
    }
    if base.is_none_or(|base| base.initial_energy.key() != cfg.initial_energy.key()) {
        write_energy(out, cfg.initial_energy, ctx);
    }
    if base.is_none_or(|base| base.topology.key() != cfg.topology.key()) {
        write_topology(out, cfg.topology, ctx);
    }
    if base.is_none_or(|base| base.churn.key() != cfg.churn.key()) {
        write_churn(out, cfg.churn, ctx);
    }
}

fn write_energy(out: &mut String, energy: EnergyInit, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.energy]");
    match energy {
        EnergyInit::Fixed(j) => {
            let _ = writeln!(out, "kind = \"fixed\"\njoules = {j:?}");
        }
        EnergyInit::Uniform(lo, hi) => {
            let _ = writeln!(out, "kind = \"uniform\"\nlo = {lo:?}\nhi = {hi:?}");
        }
        EnergyInit::TwoTier { high, low, high_fraction } => {
            let _ = writeln!(
                out,
                "kind = \"two_tier\"\nhigh = {high:?}\nlow = {low:?}\nhigh_fraction = {high_fraction:?}"
            );
        }
    }
}

fn write_topology(out: &mut String, topology: TopologyFamily, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.topology]");
    match topology {
        TopologyFamily::Uniform => {
            let _ = writeln!(out, "family = \"uniform\"");
        }
        TopologyFamily::Clustered { clusters, spread } => {
            let _ =
                writeln!(out, "family = \"clustered\"\nclusters = {clusters}\nspread = {spread:?}");
        }
        TopologyFamily::SmallWorld { rewire } => {
            let _ = writeln!(out, "family = \"small_world\"\nrewire = {rewire:?}");
        }
    }
}

fn write_churn(out: &mut String, churn: ChurnModel, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.churn]");
    match churn {
        ChurnModel::None => {
            let _ = writeln!(out, "model = \"none\"");
        }
        ChurnModel::RelayExponential { mean_secs } => {
            let _ = writeln!(out, "model = \"relay_exponential\"\nmean_secs = {mean_secs:?}");
        }
    }
}

/// Rejects what `adapter` would drop, at the first ignored table or key.
/// fig5, fig7 and fig8 render only the first run: a second `[[variant]]`
/// is an error. The ext studies run the paper's configurations at the
/// spec's seed: any `[[variant]]` is an error, and so is a `[base]` key
/// other than `seed` whose value (as parsed into `base`) differs from the
/// paper's. The canonical form writes every `[base]` field, so restating
/// a paper value stays legal.
fn check_adapter_reads(
    adapter: Adapter,
    root: &Table,
    base: &ScenarioConfig,
) -> Result<(), ParseError> {
    let name = adapter.name();
    match (adapter, root.get("variant")) {
        (Adapter::Fig5 | Adapter::Fig7 | Adapter::Fig8, Some((pos, Item::ArrayOfTables(runs)))) => {
            if let Some(second) = runs.get(1) {
                let at = second.entries.first().map_or(*pos, |(_, p, _)| *p);
                let msg =
                    format!("adapter `{name}` renders only the first run: drop this [[variant]]");
                return Err(ParseError::at(at, msg));
            }
        }
        (Adapter::Ext, Some((pos, _))) => {
            return Err(ParseError::at(*pos, "adapter `ext` runs no [[variant]]"));
        }
        _ => {}
    }
    let (Adapter::Ext, Some((_, Item::Table(table)))) = (adapter, root.get("base")) else {
        return Ok(());
    };
    let paper = ScenarioConfig::paper_default();
    let differs = |key: &str| match key {
        "seed" => false,
        "energy" => base.initial_energy.key() != paper.initial_energy.key(),
        "topology" => base.topology.key() != paper.topology.key(),
        "churn" => base.churn.key() != paper.churn.key(),
        key => SCALARS.iter().any(|f| f.key == key && (f.read)(base) != (f.read)(&paper)),
    };
    match table.entries.iter().find(|(key, _, _)| differs(key)) {
        Some((key, pos, _)) => Err(ParseError::at(
            *pos,
            format!(
                "adapter `ext` runs the paper's configuration and reads only `seed` from \
                 [base]: `{key}` differs from the paper's value"
            ),
        )),
        None => Ok(()),
    }
}

/// Applies a `[base]` or `[[variant]]` table's keys onto `cfg`.
fn apply_config(cfg: &mut ScenarioConfig, table: &Table, ctx: &str) -> Result<(), ParseError> {
    for (key, pos, item) in &table.entries {
        if let Some(field) = SCALARS.iter().find(|field| field.key == key) {
            (field.write)(cfg, scalar_bits(field.kind, item, *pos, key)?);
            continue;
        }
        match key.as_str() {
            "label" if ctx == "variant" => {} // consumed by the caller
            "energy" => {
                cfg.initial_energy = parse_energy(expect_table(item, *pos, key)?, *pos)?;
            }
            "topology" => {
                cfg.topology = parse_topology(expect_table(item, *pos, key)?, *pos)?;
            }
            "churn" => cfg.churn = parse_churn(expect_table(item, *pos, key)?, *pos)?,
            other => {
                return Err(ParseError::at(*pos, format!("unknown key `{other}` in [{ctx}]")));
            }
        }
    }
    Ok(())
}

/// Reads a scalar field's value as the bits its table entry writes.
fn scalar_bits(kind: Kind, item: &Item, pos: Pos, key: &str) -> Result<u64, ParseError> {
    Ok(match kind {
        Kind::Count => {
            let n = expect_u64(item, pos, key)?;
            usize::try_from(n).map_err(|_| ParseError::at(pos, format!("{key} out of range")))?;
            n
        }
        Kind::Int => expect_u64(item, pos, key)?,
        Kind::Float => expect_f64(item, pos, key)?.to_bits(),
        Kind::Bool => u64::from(expect_bool(item, pos, key)?),
    })
}

fn parse_energy(t: &Table, at: Pos) -> Result<EnergyInit, ParseError> {
    let kind = get_str(t, "kind", at)?;
    check_keys(
        t,
        at,
        match kind.as_str() {
            "fixed" => &["kind", "joules"][..],
            "uniform" => &["kind", "lo", "hi"][..],
            "two_tier" => &["kind", "high", "low", "high_fraction"][..],
            _ => {
                return Err(ParseError::at(
                    at,
                    format!("unknown energy kind `{kind}` (expected fixed, uniform or two_tier)"),
                ))
            }
        },
    )?;
    Ok(match kind.as_str() {
        "fixed" => EnergyInit::Fixed(get_f64(t, "joules", at)?),
        "uniform" => EnergyInit::Uniform(get_f64(t, "lo", at)?, get_f64(t, "hi", at)?),
        _ => EnergyInit::TwoTier {
            high: get_f64(t, "high", at)?,
            low: get_f64(t, "low", at)?,
            high_fraction: get_f64(t, "high_fraction", at)?,
        },
    })
}

fn parse_topology(t: &Table, at: Pos) -> Result<TopologyFamily, ParseError> {
    let family = get_str(t, "family", at)?;
    check_keys(t, at, match family.as_str() {
        "uniform" => &["family"][..],
        "clustered" => &["family", "clusters", "spread"][..],
        "small_world" => &["family", "rewire"][..],
        _ => return Err(ParseError::at(at, format!("unknown topology family `{family}` (expected uniform, clustered or small_world)"))),
    })?;
    Ok(match family.as_str() {
        "uniform" => TopologyFamily::Uniform,
        "clustered" => TopologyFamily::Clustered {
            clusters: u32::try_from(get_u64(t, "clusters", at)?)
                .map_err(|_| ParseError::at(at, "clusters out of range"))?,
            spread: get_f64(t, "spread", at)?,
        },
        _ => TopologyFamily::SmallWorld { rewire: get_f64(t, "rewire", at)? },
    })
}

fn parse_churn(t: &Table, at: Pos) -> Result<ChurnModel, ParseError> {
    let model = get_str(t, "model", at)?;
    check_keys(
        t,
        at,
        match model.as_str() {
            "none" => &["model"][..],
            "relay_exponential" => &["model", "mean_secs"][..],
            _ => {
                return Err(ParseError::at(
                    at,
                    format!("unknown churn model `{model}` (expected none or relay_exponential)"),
                ))
            }
        },
    )?;
    Ok(match model.as_str() {
        "none" => ChurnModel::None,
        _ => ChurnModel::RelayExponential { mean_secs: get_f64(t, "mean_secs", at)? },
    })
}

/// Parses the `[ext]` table, checking each value where its position is at
/// hand. The studies pace every flow at the paper's packet size and rate,
/// so a flow length is bounded by the time that pacing takes.
fn parse_ext(t: &Table) -> Result<ExtParams, ParseError> {
    let mut p = ExtParams::paper();
    for (key, pos, item) in &t.entries {
        let pos = *pos;
        match key.as_str() {
            "estimate_factors" => p.estimate_factors = positive_f64s(item, pos, key)?,
            "steps" => p.steps = positive_f64s(item, pos, key)?,
            "lambdas" => {
                p.lambdas = expect_f64_array(item, pos, key)?;
                if let Some(l) = p.lambdas.iter().find(|l| !(0.0..=1.0).contains(*l)) {
                    let msg = format!("`lambdas` entries must lie in [0, 1], not {l:?}");
                    return Err(ParseError::at(pos, msg));
                }
            }
            "multiflow_concurrent" => {
                let n = expect_u64(item, pos, key)?;
                if !(1..=MAX_FLOWS).contains(&n) {
                    let msg = format!("`multiflow_concurrent` = {n} lies outside 1..={MAX_FLOWS}");
                    return Err(ParseError::at(pos, msg));
                }
                p.multiflow_concurrent = n as u32;
            }
            "multiflow_flow_bits" => {
                p.multiflow_flow_bits = flow_bits(item, pos, "multiflow_flow_bits")?;
            }
            "relay_flow_bits" => p.relay_flow_bits = flow_bits(item, pos, "relay_flow_bits")?,
            "relay_max" => {
                p.relay_max = usize::try_from(expect_u64(item, pos, key)?)
                    .map_err(|_| ParseError::at(pos, "relay_max out of range"))?;
            }
            "initial_status_mean_flow_bits" => {
                let key = "initial_status_mean_flow_bits";
                let bits = expect_f64(item, pos, key)?;
                if !(bits.is_finite() && bits > 0.0) {
                    return Err(ParseError::at(pos, format!("`{key}` must be a positive number")));
                }
                check_paced(bits, pos, key)?;
                p.initial_status_mean_flow_bits = bits;
            }
            other => {
                return Err(ParseError::at(pos, format!("unknown key `{other}` in [ext]")));
            }
        }
    }
    Ok(p)
}

/// A sweep of finite, positive numbers.
fn positive_f64s(item: &Item, pos: Pos, key: &str) -> Result<Vec<f64>, ParseError> {
    let xs = expect_f64_array(item, pos, key)?;
    match xs.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
        Some(x) => Err(ParseError::at(pos, format!("`{key}` entries must be positive, not {x:?}"))),
        None => Ok(xs),
    }
}

/// A fixed flow length: at least one bit, paced within the time limit.
fn flow_bits(item: &Item, pos: Pos, key: &'static str) -> Result<u64, ParseError> {
    let bits = expect_u64(item, pos, key)?;
    if bits == 0 {
        return Err(ParseError::at(pos, format!("`{key}` must be at least 1")));
    }
    check_paced(bits as f64, pos, key)?;
    Ok(bits)
}

/// Checks that pacing `bits` at the paper's packet size and rate stays
/// within [`crate::config::MAX_SIM_SECS`].
fn check_paced(bits: f64, pos: Pos, key: &'static str) -> Result<(), ParseError> {
    let secs = ScenarioConfig::paper_default().paced_secs(bits);
    check_sim_secs(key, secs).map_err(|e| ParseError::at(pos, e.to_string()))
}

// ---- typed accessors over the document model ----

fn expect_value<'a>(item: &'a Item, pos: Pos, key: &str) -> Result<&'a TomlValue, ParseError> {
    match item {
        Item::Value(v) => Ok(v),
        _ => Err(ParseError::at(pos, format!("`{key}` must be a value, not a table"))),
    }
}

fn expect_str(item: &Item, pos: Pos, key: &str) -> Result<String, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Str(s) => Ok(s.clone()),
        _ => Err(ParseError::at(pos, format!("expected a string for `{key}`"))),
    }
}

fn expect_bool(item: &Item, pos: Pos, key: &str) -> Result<bool, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Bool(b) => Ok(*b),
        _ => Err(ParseError::at(pos, format!("expected a boolean for `{key}`"))),
    }
}

fn expect_u64(item: &Item, pos: Pos, key: &str) -> Result<u64, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Int(i) if *i >= 0 => Ok(*i as u64),
        TomlValue::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f < 1.9e19 => Ok(*f as u64),
        _ => Err(ParseError::at(pos, format!("expected a non-negative integer for `{key}`"))),
    }
}

fn expect_f64(item: &Item, pos: Pos, key: &str) -> Result<f64, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Float(f) => Ok(*f),
        TomlValue::Int(i) => Ok(*i as f64),
        _ => Err(ParseError::at(pos, format!("expected a number for `{key}`"))),
    }
}

fn expect_f64_array(item: &Item, pos: Pos, key: &str) -> Result<Vec<f64>, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Array(items) => items
            .iter()
            .map(|v| match v {
                TomlValue::Float(f) => Ok(*f),
                TomlValue::Int(i) => Ok(*i as f64),
                _ => Err(ParseError::at(pos, format!("expected numbers in `{key}`"))),
            })
            .collect(),
        _ => Err(ParseError::at(pos, format!("expected an array for `{key}`"))),
    }
}

fn expect_table<'a>(item: &'a Item, pos: Pos, key: &str) -> Result<&'a Table, ParseError> {
    match item {
        Item::Table(t) => Ok(t),
        _ => Err(ParseError::at(pos, format!("`{key}` must be a table"))),
    }
}

fn get_str(t: &Table, key: &str, at: Pos) -> Result<String, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_str(item, *pos, key)
}

fn get_f64(t: &Table, key: &str, at: Pos) -> Result<f64, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_f64(item, *pos, key)
}

fn get_u64(t: &Table, key: &str, at: Pos) -> Result<u64, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_u64(item, *pos, key)
}

fn check_keys(t: &Table, _at: Pos, allowed: &[&str]) -> Result<(), ParseError> {
    for (key, pos, _) in &t.entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ParseError::at(*pos, format!("unknown key `{key}`")));
        }
    }
    Ok(())
}

/// Converts a parsed JSON object at `at` into the table model, so JSON
/// specs flow through the same builder as TOML ones. Objects become
/// tables; arrays whose members are all objects become arrays-of-tables.
/// `keys` yields the position of every object key in document order, as
/// [`Json::parse_with_key_offsets`] reports them, and the walk takes them
/// in that order.
fn json_to_table(
    json: &Json,
    at: Pos,
    keys: &mut impl Iterator<Item = Pos>,
) -> Result<Table, ParseError> {
    let Json::Obj(entries) = json else {
        return Err(ParseError::at(at, "a JSON spec must be an object"));
    };
    let mut table = Table::default();
    for (key, value) in entries {
        let pos = keys.next().unwrap_or(at);
        table.insert(key.clone(), pos, json_to_item(value, pos, keys)?);
    }
    Ok(table)
}

/// Converts the value of the key at `at`.
fn json_to_item(
    value: &Json,
    at: Pos,
    keys: &mut impl Iterator<Item = Pos>,
) -> Result<Item, ParseError> {
    Ok(match value {
        Json::Obj(_) => Item::Table(json_to_table(value, at, keys)?),
        Json::Arr(items)
            if items.iter().all(|v| matches!(v, Json::Obj(_))) && !items.is_empty() =>
        {
            let tables = items.iter().map(|item| json_to_table(item, at, keys));
            Item::ArrayOfTables(tables.collect::<Result<Vec<_>, _>>()?)
        }
        other => Item::Value(json_to_value(other, at)?),
    })
}

fn json_to_value(value: &Json, at: Pos) -> Result<TomlValue, ParseError> {
    Ok(match value {
        Json::Bool(b) => TomlValue::Bool(*b),
        Json::Str(s) => TomlValue::Str(s.clone()),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => TomlValue::Int(*n as i64),
        Json::Num(n) => TomlValue::Float(*n),
        Json::Arr(items) => TomlValue::Array(
            items.iter().map(|item| json_to_value(item, at)).collect::<Result<Vec<_>, _>>()?,
        ),
        Json::Null | Json::Obj(_) => {
            return Err(ParseError::at(at, "unsupported JSON value in spec"));
        }
    })
}

/// Line and column of byte offsets into a text, for offsets that rise from
/// one call to the next: one pass over the text in all. Columns count
/// characters, as the TOML cursor's do.
struct LineCols<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    at: Pos,
}

impl<'a> LineCols<'a> {
    fn new(text: &'a str) -> Self {
        LineCols { chars: text.char_indices().peekable(), at: Pos { line: 1, col: 1 } }
    }

    /// The position of byte offset `offset`, which is not below the last
    /// one asked for.
    fn pos(&mut self, offset: usize) -> Pos {
        while let Some((_, c)) = self.chars.next_if(|&(i, _)| i < offset) {
            if c == '\n' {
                self.at = Pos { line: self.at.line.saturating_add(1), col: 1 };
            } else {
                self.at.col = self.at.col.saturating_add(1);
            }
        }
        self.at
    }
}
