//! The pure per-packet decision kernel: the paper's Fig. 1
//! `FlowOperations` math with every side effect removed.
//!
//! [`ImobifApp`](crate::ImobifApp) is a thin protocol shell — it parses
//! headers, maintains flow tables, and emits packets — while everything a
//! relay or destination *computes* lives here as side-effect-free
//! functions over typed inputs:
//!
//! * [`evaluate_relay`] — strategy preferred position plus the
//!   sustainable-bits / residual-energy pair ([`DecisionInputs`] →
//!   [`Decision`], Fig. 1 lines 13–19);
//! * [`fold_sample`] — folding a relay's sample into the header aggregate
//!   (line 20);
//! * [`status_verdict`] — the destination's move/stay verdict from the
//!   aggregated hypotheses (lines 29–36);
//! * [`combined_target`] — the residual-traffic-weighted superposition of
//!   per-flow targets (§2's multi-flow composition).
//!
//! Purity is what makes the kernel testable against
//! [`oracle_decision`](crate::oracle_decision) by property test, cacheable
//! by [`DecisionCache`], and — per the ROADMAP — shardable: a decision
//! depends only on its inputs, never on when or where it runs.

use imobif_energy::{LinearMobilityCost, PowerLawModel};
use imobif_geom::Point2;
use serde::{Deserialize, Serialize};

use crate::{Aggregate, MobilityStrategy, PerfSample, StrategyInputs};

/// Everything a relay's per-packet decision depends on: the prev/self/next
/// neighbor triple (positions and residual energies, from the HELLO
/// tables) and the header's residual flow length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInputs {
    /// The prev/self/next position-and-residual triple.
    pub triple: StrategyInputs,
    /// `f_ℓ`: the flow's residual length in bits, as estimated by the
    /// header (scaled by the source's estimate factor).
    pub residual_flow_bits: f64,
}

/// The outcome of one relay evaluation: where the strategy wants this node
/// and the with/without-mobility cost/benefit sample backing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The strategy's preferred position for this relay.
    pub target: Point2,
    /// The sustainable-bits / residual-energy pair for staying vs moving
    /// (Fig. 1 lines 15–19).
    pub sample: PerfSample,
}

/// One full relay evaluation (Fig. 1 lines 13–19): asks the strategy for
/// its preferred position and, if it names one, computes the cost/benefit
/// sample of moving there. Returns `None` when the geometry is degenerate
/// and the strategy declines to name a target.
///
/// Pure: same inputs and models, same decision — bit for bit.
#[must_use]
pub fn evaluate_relay(
    strategy: &dyn MobilityStrategy,
    inputs: &DecisionInputs,
    tx: &PowerLawModel,
    mobility: &LinearMobilityCost,
) -> Option<Decision> {
    strategy.next_position(&inputs.triple).map(|target| {
        let sample = PerfSample::compute(
            inputs.triple.self_residual,
            inputs.triple.self_position,
            target,
            inputs.triple.next_position,
            inputs.residual_flow_bits,
            tx,
            mobility,
        );
        Decision { target, sample }
    })
}

/// Folds a relay's sample into the header aggregate under the flow's
/// strategy (Fig. 1 line 20).
pub fn fold_sample(
    strategy: &dyn MobilityStrategy,
    aggregate: &mut Aggregate,
    decision: &Decision,
) {
    strategy.fold(aggregate, decision.sample);
}

/// The destination's move/stay verdict (Fig. 1 lines 29–36): compares the
/// aggregated with/without-mobility hypotheses under the strategy's
/// preference order and returns the status change to request —
/// `Some(true)` to enable mobility, `Some(false)` to disable it, `None`
/// when the current status already matches the evidence.
#[must_use]
pub fn status_verdict(
    strategy: &dyn MobilityStrategy,
    aggregate: &Aggregate,
    mobility_enabled: bool,
) -> Option<bool> {
    match (strategy.mobility_preference(aggregate), mobility_enabled) {
        // Mobility is hurting and is on: ask to disable.
        (std::cmp::Ordering::Less, true) => Some(false),
        // Mobility would help and is off: ask to enable.
        (std::cmp::Ordering::Greater, false) => Some(true),
        _ => None,
    }
}

/// Superposes per-flow movement targets, weighted by each flow's residual
/// length in bits: longer remaining flows pull harder (§2's multi-flow
/// composition, detailed in the paper's technical report \[13\]).
///
/// The caller supplies `(target, weight)` pairs in a deterministic order —
/// the f64 summation order is a function of the iteration order alone,
/// which the batch engine's bit-identity guarantee relies on.
#[must_use]
pub fn combined_target(weighted: impl IntoIterator<Item = (Point2, f64)>) -> Option<Point2> {
    let mut weight_sum = 0.0;
    let mut x = 0.0;
    let mut y = 0.0;
    for (target, w) in weighted {
        weight_sum += w;
        x += target.x * w;
        y += target.y * w;
    }
    (weight_sum > 0.0).then(|| Point2::new(x / weight_sum, y / weight_sum))
}

/// Tolerances for the per-flow strategy-decision cache.
///
/// A relay's strategy evaluation depends only on [`DecisionInputs`].
/// Between consecutive packets those inputs barely move: positions are
/// exact while nobody moves, neighbor residuals refresh only at HELLO
/// rate, and the node's own residual drains by one packet's worth of
/// energy. The cache reuses the last evaluation until an input drifts past
/// its epsilon.
///
/// Positions are always compared exactly — a moved node invalidates the
/// cache — so reused movement targets never diverge from freshly computed
/// ones for position-only strategies (min-total-energy). The energy/bits
/// epsilons bound the staleness of the folded cost/benefit sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionCacheConfig {
    /// Master switch. Disabled means every packet re-evaluates the
    /// strategy (the pre-cache behavior). No benchmark sets it; its one
    /// user is the `perf_equivalence` test, which turns it off in a
    /// scenario where the cache changes nothing.
    pub enabled: bool,
    /// Maximum absolute drift in any of the three residual energies (J)
    /// before the cached decision is recomputed.
    pub energy_epsilon: f64,
    /// Maximum absolute drift in the header's residual-flow-bits estimate
    /// before the cached decision is recomputed.
    pub bits_epsilon: f64,
}

impl Default for DecisionCacheConfig {
    fn default() -> Self {
        DecisionCacheConfig {
            enabled: true,
            // ~a dozen default-scenario packets' worth of transmit energy,
            // and six 8000-bit packets of flow progress: small enough that
            // a stale sample cannot meaningfully misorder the destination's
            // move/no-move comparison, large enough to absorb the per-packet
            // drain that would otherwise defeat exact matching.
            energy_epsilon: 0.05,
            bits_epsilon: 48_000.0,
        }
    }
}

/// The memo of one relay's last strategy evaluation: the inputs it was
/// computed from and the resulting decision. `decision` is `None` when the
/// strategy declined to name a target (degenerate geometry) — that outcome
/// is cached too.
#[derive(Debug, Clone, Copy)]
pub struct DecisionCache {
    inputs: DecisionInputs,
    decision: Option<Decision>,
}

impl DecisionCache {
    /// Memoizes `decision` as computed from `inputs`.
    #[must_use]
    pub fn store(inputs: DecisionInputs, decision: Option<Decision>) -> Self {
        DecisionCache { inputs, decision }
    }

    /// Returns the memoized decision if `inputs` are within `cfg`'s
    /// tolerances of the ones it was computed from, `None` on a miss.
    /// (The hit itself may hold `None` — a cached "no target" outcome.)
    #[must_use]
    pub fn lookup(
        &self,
        inputs: &DecisionInputs,
        cfg: &DecisionCacheConfig,
    ) -> Option<Option<Decision>> {
        let c = &self.inputs.triple;
        let t = &inputs.triple;
        let hit = c.prev_position == t.prev_position
            && c.self_position == t.self_position
            && c.next_position == t.next_position
            && (c.prev_residual - t.prev_residual).abs() <= cfg.energy_epsilon
            && (c.self_residual - t.self_residual).abs() <= cfg.energy_epsilon
            && (c.next_residual - t.next_residual).abs() <= cfg.energy_epsilon
            && (self.inputs.residual_flow_bits - inputs.residual_flow_bits).abs()
                <= cfg.bits_epsilon;
        hit.then_some(self.decision)
    }
}
