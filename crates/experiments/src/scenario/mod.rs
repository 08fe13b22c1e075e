//! The declarative scenario layer.
//!
//! A scenario is described by a [`ScenarioSpec`] — topology family, churn
//! model, energy initialization, workload, strategy, replicate count and
//! seeds — parsed from TOML (or JSON) with exact line/column diagnostics,
//! validated, and compiled down onto the existing
//! [`ScenarioConfig`](crate::config::ScenarioConfig)/batch machinery:
//!
//! ```text
//! TOML/JSON text ──parse──▶ ScenarioSpec ──compile──▶ CompiledScenario
//!                                                          │
//!                              run_generic / figure adapters▼
//! ```
//!
//! The paper figures ship as specs under `examples/scenarios/` (see
//! [`builtin`]); `figures::fig5`–`fig8` and `figures::ext` are thin chart
//! adapters over the compiled runs, and `render::render_scenario` turns
//! any compiled scenario into its report and artifacts.

pub mod compile;
pub mod spec;
pub mod toml;

use std::fmt;
use std::sync::OnceLock;

use imobif_energy::EnergyError;

use crate::topology::Unroutable;

pub use compile::{run_generic, CompiledRun, CompiledScenario, GenericGroup, GenericResult};
pub use spec::{Adapter, ExtParams, ScenarioSpec, VariantSpec};
pub use toml::ParseError;

/// Anything that can go wrong between text and a runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text failed to parse (carries line/column when known).
    Parse(ParseError),
    /// A compiled run failed [`crate::config::ScenarioConfig::validate`].
    Invalid {
        /// Label of the offending run.
        label: String,
        /// The underlying validation error.
        error: EnergyError,
    },
    /// A compiled run's arena routes no flow through a relay
    /// ([`CompiledScenario::check_routable`]).
    Unroutable {
        /// Label of the offending run.
        label: String,
        /// What the draw tried.
        error: Unroutable,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "parse error: {e}"),
            ScenarioError::Invalid { label, error } => {
                write!(f, "run `{label}` is invalid: {error}")
            }
            ScenarioError::Unroutable { label, error } => {
                write!(f, "run `{label}` cannot route a flow: {error}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

/// Names of the shipped scenarios, in presentation order. Each corresponds
/// to `examples/scenarios/<name>.toml` in the repository.
pub const BUILTIN_NAMES: [&str; 9] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ext",
    "clustered_urban",
    "churn",
    "hetero_batteries",
    "small_world",
];

const BUILTIN_SOURCES: [(&str, &str); 9] = [
    ("fig5", include_str!("../../../../examples/scenarios/fig5.toml")),
    ("fig6", include_str!("../../../../examples/scenarios/fig6.toml")),
    ("fig7", include_str!("../../../../examples/scenarios/fig7.toml")),
    ("fig8", include_str!("../../../../examples/scenarios/fig8.toml")),
    ("ext", include_str!("../../../../examples/scenarios/ext.toml")),
    ("clustered_urban", include_str!("../../../../examples/scenarios/clustered_urban.toml")),
    ("churn", include_str!("../../../../examples/scenarios/churn.toml")),
    ("hetero_batteries", include_str!("../../../../examples/scenarios/hetero_batteries.toml")),
    ("small_world", include_str!("../../../../examples/scenarios/small_world.toml")),
];

/// The shipped TOML source of a builtin scenario (what `include_str!` baked
/// in — byte-identical to the file under `examples/scenarios/`).
#[must_use]
pub fn builtin_source(name: &str) -> Option<&'static str> {
    BUILTIN_SOURCES.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
}

/// A parsed builtin scenario by name, or `None` for unknown names.
///
/// # Panics
///
/// Panics if a shipped spec fails to parse — that is a build defect, and
/// `scenario::tests` catches it before it can ship.
#[must_use]
pub fn builtin(name: &str) -> Option<&'static ScenarioSpec> {
    static PARSED: OnceLock<Vec<(&'static str, ScenarioSpec)>> = OnceLock::new();
    let parsed = PARSED.get_or_init(|| {
        BUILTIN_SOURCES
            .iter()
            .map(|(n, src)| {
                let spec = ScenarioSpec::parse(src)
                    .unwrap_or_else(|e| panic!("builtin scenario `{n}` failed to parse: {e}"));
                (*n, spec)
            })
            .collect()
    });
    parsed.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
}

/// A builtin scenario compiled with `seed` (and `flows`, if given) in
/// place of its own: how `imobif <fig>` and the figures' `run` functions
/// build their runs.
///
/// # Panics
///
/// Panics if `name` is not a builtin or `flows` lies outside
/// `1..=MAX_FLOWS`.
#[must_use]
pub(crate) fn compile_builtin(name: &str, seed: u64, flows: Option<u64>) -> CompiledScenario {
    builtin(name)
        .unwrap_or_else(|| panic!("`{name}` is not a builtin scenario"))
        .compile_with(Some(seed), flows)
        .unwrap_or_else(|e| panic!("builtin `{name}`: {e}"))
}

#[cfg(test)]
mod tests;
