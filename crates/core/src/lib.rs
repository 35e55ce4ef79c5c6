//! # fireflyer — the Fire-Flyer 2 AI-HPC, assembled
//!
//! The umbrella crate of the reproduction: re-exports every subsystem and
//! provides the cluster-level composition — the deployment description of
//! §III, and an operations simulation that runs the HAI platform under the
//! paper's measured failure rates to quantify the §VII story (checkpoint
//! cadence vs lost work, validator-driven node health, utilization).
//!
//! ```
//! use fireflyer::deployment::FireFlyer2;
//!
//! let ff2 = FireFlyer2::paper();
//! assert_eq!(ff2.total_gpus(), 10_000);
//! assert!(ff2.network_cost().total() < 12_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod ops;

pub use deployment::FireFlyer2;
pub use ops::{OpsReport, OpsSimulation};

// The full stack, one `use` away.
pub use ff_3fs as fs3;
pub use ff_desim as desim;
pub use ff_dtypes as dtypes;
pub use ff_failures as failures;
pub use ff_haiscale as haiscale;
pub use ff_hw as hw;
pub use ff_net as net;
pub use ff_obs as obs;
pub use ff_platform as platform;
pub use ff_reduce as reduce;
pub use ff_topo as topo;

#[cfg(test)]
mod experiments;
