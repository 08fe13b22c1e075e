//! Umbrella crate for the iMobif reproduction workspace.
//!
//! This crate re-exports the workspace members under stable names so that the
//! repository-level examples and integration tests can exercise the whole
//! stack through one dependency:
//!
//! * [`geom`] — 2-D geometry substrate (positions, segments, spatial grid).
//! * [`energy`] — power/energy models (`E_T(d, l) = l·(a + b·d^α)`,
//!   `E_M(d) = k·d`), batteries, power–distance tables, regression.
//! * [`netsim`] — deterministic discrete-event wireless network simulator
//!   (event queue, unit-disk medium, HELLO beaconing, routing). The serial
//!   world and every shard of the sharded world run one event loop, whose
//!   handlers are generic over how a node reaches the others
//!   (DESIGN.md §10).
//! * [`core`] — the iMobif framework itself: the `FlowOperations` algorithm,
//!   mobility strategies, cost/benefit aggregation and the notification
//!   protocol (paper §2–§3). The per-packet math is the pure
//!   `imobif::decision` kernel; `ImobifApp` is the protocol shell around
//!   it.
//! * [`experiments`] — the evaluation harness regenerating every figure of
//!   the paper (paper §4).
//!
//! # Example
//!
//! ```rust
//! use imobif_repro::experiments::config::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::paper_default();
//! assert_eq!(scenario.node_count, 100);
//! ```

pub use imobif as core;
pub use imobif_energy as energy;
pub use imobif_experiments as experiments;
pub use imobif_geom as geom;
pub use imobif_netsim as netsim;
