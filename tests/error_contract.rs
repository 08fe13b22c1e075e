//! Cross-crate error-type contract: the `error.rs` leaves of geom, energy
//! and netsim all behave identically as `std::error::Error` citizens.
//!
//! Every variant must display a lowercase, period-free, non-empty message;
//! leaf errors carry no `source()`; and each type survives the round trip
//! through `Box<dyn Error>` — boxed, displayed, then downcast back to the
//! concrete value it started as.

use std::error::Error;

use imobif_energy::EnergyError;
use imobif_geom::GeomError;
use imobif_netsim::{NodeId, RouteError, SimError};

fn check_leaf<E>(err: E)
where
    E: Error + Clone + PartialEq + Send + Sync + 'static,
{
    let msg = err.to_string();
    assert!(!msg.is_empty(), "{err:?} displays an empty message");
    assert!(msg.chars().next().unwrap().is_lowercase(), "{msg:?} should start lowercase");
    assert!(!msg.ends_with('.'), "{msg:?} should not end with a period");
    assert!(err.source().is_none(), "leaf error {err:?} should have no source");

    // Round trip through the trait object: Display is preserved and the
    // concrete value comes back out intact.
    let boxed: Box<dyn Error + Send + Sync> = Box::new(err.clone());
    assert_eq!(boxed.to_string(), msg);
    let back = boxed.downcast::<E>().expect("downcast back to the concrete error type");
    assert_eq!(*back, err);
}

#[test]
fn geom_errors_round_trip() {
    for e in [
        GeomError::DegenerateSegment,
        GeomError::NonFiniteCoordinate,
        GeomError::TooFewVertices,
        GeomError::EmptyRect,
    ] {
        check_leaf(e);
    }
}

#[test]
fn energy_errors_round_trip() {
    for e in [
        EnergyError::Depleted { required: 2.0, available: 0.5 },
        EnergyError::InvalidParameter { name: "alpha" },
        EnergyError::InsufficientSamples,
        EnergyError::OutOfRange { name: "flows", value: 0, min: 1, max: 100 },
        EnergyError::SimTimeTooLong { name: "churn.mean_secs", secs: 1e300, max_secs: 1e9 },
    ] {
        check_leaf(e);
    }
}

#[test]
fn netsim_errors_round_trip() {
    check_leaf(SimError::UnknownNode(NodeId::new(7)));
    check_leaf(SimError::InvalidConfig { field: "range" });
    for e in [
        RouteError::NoProgress { stuck_at: NodeId::new(4) },
        RouteError::TrivialFlow,
        RouteError::BadEndpoint(NodeId::new(1)),
    ] {
        check_leaf(e);
    }
}
