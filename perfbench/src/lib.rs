//! The iMobif simulator benchmark: four workloads, end-to-end and
//! per-layer metrics, a traced run, and pinned outputs.
//!
//! The `bench` binary drives every layer from outside, through the
//! workspace crates' public functions only:
//!
//! * [`workload`] — the four workloads (`repro_all`, `scenario_families`,
//!   `arena_100k`, `arena_5k_serial`), their rounds and timing protocol;
//! * [`layers`] — layer microbenchmarks over each workload's own data;
//! * [`report`] — metric rows, the report file and `--compare`;
//! * [`pins`] — output fingerprints pinned at the default seed;
//! * [`reference`] — the fixed job that measures the host's speed;
//! * [`stats`], [`spans`] — order statistics and the benchmark's own spans.
//!
//! See `README.md` beside this crate for the command line, the workloads
//! and the metric-to-layer predictions.

pub mod layers;
pub mod pins;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
