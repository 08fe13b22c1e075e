//! Deterministic discrete-event simulator for wireless ad hoc networks.
//!
//! This crate is the evaluation substrate of the iMobif reproduction
//! (Tang & McKinley, ICDCS 2005): the paper evaluates its framework purely
//! in simulation, so we build that simulator — nodes on a plane with
//! unit-disk radios, first-order-radio transmission energy, linear
//! locomotion cost, HELLO beaconing with piggybacked location/energy, and
//! pluggable routing.
//!
//! # Architecture
//!
//! * [`World`] — the kernel: event queue ([`EventQueue`]), virtual clock
//!   ([`SimTime`]), node physical state (the struct-of-arrays
//!   [`NodeStore`]), energy charging and the [`EnergyLedger`].
//! * [`ShardedWorld`] — the same kernel partitioned into spatial shards
//!   with deterministic epoch barriers, for 100k-node arenas.
//! * [`Application`] — the protocol layer. One instance per node; hooks
//!   receive a read-only [`NodeCtx`] and push [`Action`]s into a reusable
//!   [`Outbox`]. The iMobif framework (crate `imobif`) is an `Application`.
//! * [`routing`] — pure path computation over [`TopologyView`] snapshots:
//!   greedy geographic forwarding, the paper's choice.
//! * [`NeighborTable`] — per-node HELLO-maintained neighbor state, exactly
//!   the identity/location/residual-energy triple the paper prescribes,
//!   read through a [`NeighborView`]: a beacon writes its record once, on a
//!   per-node board, and a table changes only when its node joins or
//!   leaves a peer's hearer set.
//!
//! # Determinism
//!
//! Virtual time is integer microseconds; simultaneous events fire in
//! scheduling order. Given the same setup, runs are bit-for-bit identical —
//! the foundation for reproducible experiments.
//!
//! # Example
//!
//! ```rust
//! use imobif_energy::Battery;
//! use imobif_geom::Point2;
//! use imobif_netsim::{
//!     Application, EnergyCategory, NodeCtx, NodeId, Outbox, SimConfig, SimDuration, SimTime,
//!     World,
//! };
//!
//! /// A protocol that replies "pong" to every message.
//! struct Pong;
//! impl Application for Pong {
//!     type Msg = &'static str;
//!     fn on_message(
//!         &mut self,
//!         _ctx: &NodeCtx<'_>,
//!         from: NodeId,
//!         msg: &'static str,
//!         out: &mut Outbox<&'static str>,
//!     ) {
//!         if msg == "ping" {
//!             out.send(from, 512, "pong", EnergyCategory::Data);
//!         }
//!     }
//!     fn on_timer(&mut self, ctx: &NodeCtx<'_>, _tag: u64, out: &mut Outbox<&'static str>) {
//!         // Ping our only neighbor.
//!         if let Some(n) = ctx.neighbors().first() {
//!             out.send(n.id, 512, "ping", EnergyCategory::Data);
//!         }
//!     }
//! }
//!
//! // The paper's energy laws: a = 1e-7, b = 1e-8, α = 2 and k = 0.5.
//! let mut world = World::new(SimConfig::default()).unwrap();
//! let a = world.add_node(Point2::new(0.0, 0.0), Battery::new(1.0).unwrap(), Pong);
//! let _b = world.add_node(Point2::new(20.0, 0.0), Battery::new(1.0).unwrap(), Pong);
//! world.start();
//! world.schedule_timer(a, SimDuration::from_secs(1), 0);
//! world.run_until(SimTime::from_micros(2_000_000));
//! assert_eq!(world.ledger().packets_delivered, 2); // ping + pong
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod config;
mod error;
mod event;
mod hello;
mod id;
mod medium;
mod node;
pub mod routing;
mod stats;
mod time;
pub mod trace;
mod world;

pub use app::{Action, Application, NodeCtx, Outbox, PeerInfo};
pub use config::{HelloConfig, SimConfig};
pub use error::{RouteError, SimError};
pub use event::{EventQueue, Popped, QueueStats};
pub use hello::{NeighborEntry, NeighborTable, NeighborView};
pub use id::{FlowId, NodeId};
pub use medium::TopologyView;
pub use node::{NodeRef, NodeStore};
pub use stats::{EnergyCategory, EnergyLedger, NodeEnergy};
pub use time::{SimDuration, SimTime};
pub use world::shard::{ShardLayout, ShardedWorld, DEFAULT_SPAN_CAPACITY};
pub use world::{KernelStats, World};
