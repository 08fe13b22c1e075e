//! Evaluation harness for the iMobif reproduction.
//!
//! This crate regenerates every table and figure of the paper's §4 (and
//! the DESIGN.md extension experiments) from the workspace's simulator and
//! framework crates:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`figures::fig5`] | Fig. 5 — placement snapshots under both strategies |
//! | [`figures::fig6`] | Fig. 6(a–f) — energy-consumption ratios |
//! | [`figures::fig7`] | Fig. 7 — notification packets per flow |
//! | [`figures::fig8`] | Fig. 8 — system-lifetime ratio CDF |
//! | [`figures::ext`]  | future-work / ablation experiments |
//!
//! Everything is deterministic per `(config, seed)`; batches parallelize
//! across flows without affecting results.
//!
//! # Example
//!
//! ```rust
//! use imobif_experiments::figures::fig7;
//!
//! // Three flows only, to keep the doctest fast.
//! let result = fig7::run(3, 1);
//! assert_eq!(result.notifications.len(), 3);
//! ```
//!
//! The crate's `imobif` binary drives the full reproduction:
//!
//! ```text
//! cargo run -p imobif-experiments --release -- all --flows 100 --out results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod chart;
pub mod cli;
pub mod config;
pub mod figures;
pub mod flame;
mod memo;
pub mod metrics;
pub mod obs;
pub mod render;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod spans_tools;
pub mod topology;
pub mod trace_tools;

/// Serializes the tests that touch process-wide state — that clear or read
/// the memos and their hit/miss totals, set the batch thread count, or swap
/// the metrics registry — so parallel test threads cannot observe each
/// other's changes.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
