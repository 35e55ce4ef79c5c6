//! Zero-dependency substrate for the workspace.
//!
//! The build environment has no access to crates.io, so the handful of
//! external utility crates the original design leaned on (`bytes`,
//! `parking_lot`, `crossbeam-channel`, `rand`/`rand_chacha`) are replaced
//! by small, std-only equivalents with compatible APIs:
//!
//! - [`bytes::Bytes`] — cheaply cloneable, sliceable, immutable byte buffer
//! - [`sync`] — `Mutex` / `RwLock` / `Condvar` with `parking_lot`'s
//!   non-poisoning guard API
//! - [`channel`] — multi-producer single-consumer FIFO channels with
//!   disconnect semantics and `recv_timeout`
//! - [`par`] — a deterministic weighted parallel map on scoped threads
//! - [`rng`] — a seeded, deterministic ChaCha8 generator
//!
//! [`scengen`] builds on [`rng`] to generate seeded random fluid-simulation
//! scenarios (topology + flow schedule) for differential solver testing.

pub mod bytes;
pub mod channel;
pub mod error;
pub mod par;
pub mod rng;
pub mod scengen;
pub mod sync;

pub use error::{FfError, FfKind};
