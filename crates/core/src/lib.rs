//! # iMobif — an informed mobility framework for energy optimization
//!
//! Reproduction of *"iMobif: An Informed Mobility Framework for Energy
//! Optimization in Wireless Ad Hoc Networks"* (Chiping Tang and Philip K.
//! McKinley, ICDCS 2005).
//!
//! In a wireless ad hoc network whose nodes can physically move, relocating
//! relays onto better positions reduces transmission energy — but movement
//! itself costs energy. iMobif weighs the two *online*, per flow, using
//! only locally measurable information:
//!
//! 1. The flow **source** selects a [`MobilityStrategy`] and stamps it,
//!    the mobility status (enabled/disabled) and the expected residual flow
//!    length into every data-packet header ([`DataHeader`]).
//! 2. Each **relay** computes its preferred position
//!    ([`MobilityStrategy::next_position`]), evaluates sustainable-bits and
//!    expected-residual-energy under both the *stay* and *move* hypotheses,
//!    folds the pair into the header's [`Aggregate`], forwards the packet,
//!    and moves (bounded per-step) if the status is enabled.
//! 3. The **destination** compares the aggregated hypotheses
//!    ([`MobilityStrategy::mobility_preference`]) and sends a
//!    [`Notification`] back to the source when the status should change.
//!
//! Two strategies are provided, as in the paper:
//!
//! * [`MinEnergyStrategy`] — minimize total communication energy: relays
//!   drift to the midpoint of their flow neighbors, converging to an evenly
//!   spaced straight line (§3.1, from Goldenberg et al.).
//! * [`MaxLifetimeStrategy`] — maximize system lifetime: hop lengths scale
//!   with residual energy (`(d_{i-1})^{α'}/(d_i)^{α'} = e_{i-1}/e_i`), so
//!   bottleneck nodes get short hops (§3.2, Theorem 1 — the paper's novel
//!   strategy).
//!
//! Extensions beyond the paper's evaluation, flagged as such:
//! [`oracle_decision`] (the global-information threshold of Goldenberg et
//! al. that iMobif replaces), [`relay_selection`] (future work: joint relay
//! selection + positioning), and multi-flow target superposition
//! ([`ImobifApp::combined_target`]).
//!
//! # Example
//!
//! ```rust
//! use std::sync::Arc;
//! use imobif::{install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy};
//! use imobif_energy::Battery;
//! use imobif_geom::Point2;
//! use imobif_netsim::{FlowId, SimConfig, SimTime, World};
//!
//! // Three nodes: a zigzag relay between source and destination.
//! let mut world = World::new(SimConfig::default())?;
//! let strategy = Arc::new(MinEnergyStrategy::new());
//! let cfg = ImobifConfig::default();
//! let mut add = |x: f64, y: f64, world: &mut World<ImobifApp>| {
//!     world.add_node(
//!         Point2::new(x, y),
//!         Battery::new(1_000.0).unwrap(),
//!         ImobifApp::new(cfg, strategy.clone()),
//!     )
//! };
//! let src = add(0.0, 0.0, &mut world);
//! let relay = add(20.0, 15.0, &mut world);
//! let dst = add(40.0, 0.0, &mut world);
//! world.start();
//!
//! // An 8 MB flow: long enough that moving the relay pays off.
//! let spec = FlowSpec::paper_default(FlowId::new(0), vec![src, relay, dst], 64_000_000);
//! install_flow(&mut world, &spec)?;
//! world.run_until(SimTime::from_micros(8_200_000_000));
//!
//! // The destination received the whole flow…
//! assert_eq!(world.app(dst).dest(FlowId::new(0)).unwrap().received_bits, 64_000_000);
//! // …and the relay walked toward the source-destination chord.
//! assert!(world.position(relay).y < 15.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod decision;
mod flow;
mod header;
mod mode;
mod oracle;
mod registry;
mod relaxation;
pub mod relay_selection;
mod setup;
mod strategies;
mod strategy;

pub use app::{DestFlow, ImobifApp, ImobifConfig, ImobifCounters, SourceFlow};
pub use decision::{Decision, DecisionCache, DecisionCacheConfig, DecisionInputs};
pub use flow::{FlowEntry, FlowRole, FlowTable};
pub use header::{Aggregate, DataHeader, ImobifMsg, Notification, PerfSample};
pub use mode::MobilityMode;
pub use oracle::{oracle_decision, OracleDecision};
pub use registry::StrategyRegistry;
pub use relaxation::{lifetime_optimality_gap, relax, Relaxation};
pub use setup::{install_flow, FlowHost, FlowSetupError, FlowSpec};
pub use strategies::{HybridStrategy, IncrementalStrategy, MaxLifetimeStrategy, MinEnergyStrategy};
pub use strategy::{MobilityStrategy, StrategyInputs, StrategyKind};
