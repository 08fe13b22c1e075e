//! 2-D geometry substrate for the iMobif reproduction.
//!
//! Wireless ad hoc nodes in the paper live on a plane: relay positions,
//! midpoint moves (paper Fig. 2), energy-proportional spacing (paper §3.2)
//! and unit-disk radio coverage are all planar geometry. This crate provides
//! the small, well-tested vocabulary the rest of the workspace builds on:
//!
//! * [`Point2`] / [`Vec2`] — positions and displacements in meters.
//! * [`Segment`] — line segments with projection and interpolation, used to
//!   place relays on the source–destination chord.
//! * [`Polyline`] — flow paths; chord deviation and spacing statistics are
//!   how the tests verify the convergence theorems.
//! * [`Rect`] — the deployment area, with uniform sampling.
//! * [`SpatialGrid`] — bucketed range queries for neighbor discovery, and
//!   the items a move takes into or out of range of a point.
//!
//! # Example
//!
//! ```rust
//! use imobif_geom::{Point2, Segment};
//!
//! let src = Point2::new(0.0, 0.0);
//! let dst = Point2::new(30.0, 40.0);
//! let relay = Point2::new(20.0, 10.0);
//! let chord = Segment::new(src, dst);
//! // The relay is 10 meters off the source-destination chord.
//! assert!((chord.distance_to_point(relay) - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
pub mod hash;
mod point;
mod polyline;
mod rect;
mod segment;

pub use error::GeomError;
pub use grid::SpatialGrid;
pub use hash::{FxHashMap, FxHashSet};
pub use point::{Point2, Vec2};
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;

/// Absolute tolerance used by the crate's approximate comparisons.
///
/// Distances in this workspace are meters in a ≤ 1 km arena; 1 nanometer of
/// slack absorbs floating-point noise without masking real geometry bugs.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if `a` and `b` differ by at most [`EPSILON`].
///
/// # Example
///
/// ```rust
/// assert!(imobif_geom::approx_eq(0.1 + 0.2, 0.3));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}
