//! Error types for the network simulator.

use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced by the simulation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An operation referenced a node id that was never created.
    UnknownNode(NodeId),
    /// A configuration value was invalid.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SimError::InvalidConfig { field } => write!(f, "invalid config field `{field}`"),
        }
    }
}

impl Error for SimError {}

/// Errors produced by route computation.
///
/// # Example
///
/// ```rust
/// use imobif_netsim::RouteError;
///
/// let e = RouteError::NoProgress { stuck_at: imobif_netsim::NodeId::new(4) };
/// assert!(e.to_string().contains("n4"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// Greedy forwarding reached a node with no neighbor closer to the
    /// destination (a local maximum of the greedy metric).
    NoProgress {
        /// The node where forwarding stalled.
        stuck_at: NodeId,
    },
    /// Source and destination are the same node.
    TrivialFlow,
    /// An endpoint id was unknown or dead.
    BadEndpoint(NodeId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoProgress { stuck_at } => {
                write!(f, "greedy routing stuck at {stuck_at} (local maximum)")
            }
            RouteError::TrivialFlow => write!(f, "source equals destination"),
            RouteError::BadEndpoint(id) => write!(f, "endpoint {id} is unknown or dead"),
        }
    }
}

impl Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SimError::UnknownNode(NodeId::new(3)).to_string().contains("n3"));
        assert!(SimError::InvalidConfig { field: "range" }.to_string().contains("range"));
        assert!(RouteError::TrivialFlow.to_string().contains("source"));
        assert!(RouteError::BadEndpoint(NodeId::new(1)).to_string().contains("n1"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        assert_send_sync::<RouteError>();
    }
}
