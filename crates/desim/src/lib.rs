//! # ff-desim — discrete-event simulation engine
//!
//! The foundation of the Fire-Flyer reproduction. Real cluster hardware
//! (PCIe links, host bridges, memory buses, InfiniBand links) is modeled as
//! shared-bandwidth fluid *resources*; data movement and compute are
//! modeled as *flows* that consume capacity on an ordered set of
//! resources. The engine advances simulated time event by event, recomputing
//! a **max-min fair** allocation of flow rates whenever the set of active
//! flows changes.
//!
//! Layers, lowest first:
//!
//! * [`time`] — simulated-time arithmetic ([`SimTime`], [`SimDuration`]).
//! * [`queue`] — a deterministic time-ordered event queue ([`EventQueue`]).
//! * [`fluid`] — the max-min fair fluid-flow engine ([`FluidSim`]).
//! * [`step`] — one step of a timer queue interleaved with the fluid
//!   ([`next_due`]): the one same-instant rule every such loop follows.
//! * [`dag`] — dependency-graph execution of transfers/compute/delays on top
//!   of the fluid engine ([`DagSim`]), used by the allreduce and training
//!   simulators.
//!
//! The design goal is determinism: identical inputs produce identical event
//! orderings and identical timings, so every experiment in the paper harness
//! is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod envelope;
pub mod fluid;
pub mod queue;
pub mod stats;
pub mod step;
pub mod time;

pub use dag::{DagSim, NodeId as DagNodeId, Work};
pub use envelope::{Envelope, Phase};
pub use fluid::{FlowId, FluidSim, ResourceId, Route, SolverMode};
pub use queue::EventQueue;
pub use stats::{ResourceStats, Summary};
pub use step::{next_due, Due};
pub use time::{SimDuration, SimTime};
