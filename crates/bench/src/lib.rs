//! Shared benchmark scenarios and allocation accounting for the iMobif
//! reproduction.
//!
//! [`instances`] builds the scenarios: the paper's Fig. 6 flow,
//! constant-density arenas on the serial and the sharded engine, and
//! HELLO-dense arenas. [`alloc_track`] is a counting global allocator. The
//! `perfbench` benchmark builds on both. So do this crate's tests, which
//! carry the allocation, determinism and overhead gates: each allocation
//! gate is its own test binary, because the allocator's counters are
//! process-global.

pub mod alloc_track;
pub mod instances;
