//! # ff-reduce — HFReduce, the paper's core contribution (§IV)
//!
//! HFReduce is a CPU-asynchronous allreduce designed for PCIe GPU nodes
//! with a single shared NIC: (1) asynchronously copy each GPU's gradients
//! to host memory, (2) reduce them on the CPU with SIMD adds, (3) allreduce
//! the node sums across nodes over a **double binary tree** via RDMA, and
//! (4) return the result to the GPUs — GDRCopy for the fan-out so host
//! memory is read only twice. No GPU kernel ever runs, so communication
//! overlaps backpropagation completely.
//!
//! This crate provides both faces of the system:
//!
//! * **Executable algorithms** — real multithreaded implementations over
//!   a pluggable transport: the reduction kernels ([`kernels`]), the
//!   chunked double-binary-tree allreduce, ring reduce-scatter and
//!   allgather (whose composition is the ring allreduce baseline and whose
//!   alternation is the FSDP step, [`sharded`]), and the full
//!   node-structured HFReduce (intra-node reduce → inter-node tree →
//!   broadcast). The transport is a [`fabric::Fabric`] — in-memory
//!   channels by default, real localhost TCP sockets, or metering /
//!   fault-injecting middleware — and every collective is a method on one
//!   [`comm::Communicator`] handle, orchestrated world-wide by the
//!   drivers in [`exec`]. These compute real numbers and are validated
//!   against serial reference reductions, bit-identically across
//!   backends. [`calibration`] measures a backend's latency/bandwidth for
//!   the `ff_hw` link model.
//! * **Performance models** — discrete-event simulations on the `ff-hw` +
//!   `ff-net` cluster model reproducing Figure 7: HFReduce vs NCCL
//!   allreduce bandwidth from 16 to 1,440 GPUs ([`model`], [`ring`]), and
//!   the NVLink variant (§IV-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod cluster;
pub mod comm;
pub mod exec;
pub mod fabric;
pub mod jobflow;
pub mod kernels;
pub mod model;
pub mod ring;
pub mod sharded;

pub use calibration::{calibrate, Calibration};
pub use cluster::{ClusterConfig, ClusterModel};
pub use comm::{Algo, Communicator, Op, Wire, WireCursor};
pub use exec::{
    allreduce_ft, run_allreduce, run_broadcast, run_hfreduce, run_reduce_to_root, run_world,
    CommError, ExecFaultPlan, FtReport, ObsCtx,
};
pub use fabric::{
    CalibratedFabric, Fabric, FabricProvider, FaultyFabric, InMemFabric, InMemProvider, RawMsg,
    Tag, TcpFabric, TcpProvider,
};
pub use ff_util::error::{FfError, FfKind};
pub use model::{AllreduceReport, HfReduceOptions, HfReduceVariant};
pub use sharded::{fsdp_step, run_allgather, run_fsdp_step, run_reduce_scatter};
