//! # ff-haiscale — training parallelism on the PCIe architecture (§V)
//!
//! HaiScale is the paper's training framework: Megatron/DeepSpeed-style
//! parallelism re-engineered around one NIC per 8 PCIe GPUs and HFReduce
//! as the data-parallel backend. This crate models each strategy's step
//! time on the `ff-hw`/`ff-reduce` cluster and reproduces the evaluation:
//!
//! * [`ddp`] — HaiScale DDP vs PyTorch DDP on VGG16 (Figure 8a): HFReduce
//!   overlaps the whole backward pass and steals no SMs, roughly halving
//!   step time.
//! * [`fsdp`] — HaiScale FSDP vs PyTorch FSDP on GPT2-medium (Figure 8b):
//!   ZeRO-3 allgather/reduce-scatter scheduling with overlap.
//! * [`pipeline`] — 1F1B pipeline parallelism with the DP-rank staggering
//!   trick for the shared NIC; LLaMa-13B strong scaling (Figure 9a).
//! * [`moe`] — expert parallelism with all2all dispatch; DeepSeekMoE-16B
//!   strong scaling (Figure 9b).
//! * [`tensor`] — tensor parallelism enabled by the NVLink bridge (§V-B1).
//! * [`models`] — the model zoo (VGG16, GPT2-medium, LLaMa-13B,
//!   DeepSeekMoE-16B) with parameter/FLOP accounting.
//!
//! The models are analytic (component terms for compute, exposed
//! communication, pipeline bubble and straggler jitter) with constants
//! calibrated once against the paper's absolute step times; all scaling
//! *shapes* then follow from the hardware model, not from per-point fits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ddp;
pub mod expert_exec;
pub mod fsdp;
pub mod memory;
pub mod models;
pub mod moe;
pub mod pipeline;
pub mod tensor;

pub use ddp::{ddp_step, DdpBackend};
pub use expert_exec::{run_all2all, run_all2all_with_dead, run_moe_layer_step, Routed};
pub use fsdp::{fsdp_step, FsdpImpl};
pub use memory::{memory_per_gpu, MemoryEstimate, ShardingStrategy};
pub use models::TrainModel;
pub use moe::{moe_step, MoeConfig};
pub use pipeline::{pipeline_step, PipelineConfig};

/// A step-time decomposition, seconds.
#[derive(Debug, Clone, Default)]
pub struct StepBreakdown {
    /// Pure compute (forward + backward + optimizer).
    pub compute_s: f64,
    /// Communication *not* hidden behind compute.
    pub exposed_comm_s: f64,
    /// Pipeline bubble cost.
    pub bubble_s: f64,
    /// Straggler / jitter allowance.
    pub jitter_s: f64,
}

impl StepBreakdown {
    /// Total step time.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.exposed_comm_s + self.bubble_s + self.jitter_s
    }
}

/// Parallel efficiency of scaling from `(gpus_a, time_a)` to
/// `(gpus_b, time_b)` at fixed global work (strong scaling):
/// `(t_a × n_a) / (t_b × n_b)`.
pub fn strong_scaling_efficiency(gpus_a: usize, time_a: f64, gpus_b: usize, time_b: f64) -> f64 {
    (time_a * gpus_a as f64) / (time_b * gpus_b as f64)
}

/// Weak-scaling efficiency: per-GPU work fixed, so ideal step time is
/// constant: `t_a / t_b` for `n_b > n_a`.
pub fn weak_scaling_efficiency(time_small: f64, time_large: f64) -> f64 {
    time_small / time_large
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_formulas() {
        // Perfect strong scaling: 8× GPUs, 1/8 time.
        assert!((strong_scaling_efficiency(64, 8.0, 512, 1.0) - 1.0).abs() < 1e-12);
        // Paper Figure 9a numbers: 91%... computed over the quoted points.
        let eff = strong_scaling_efficiency(64, 64.118, 512, 9.717);
        assert!((0.80..=0.95).contains(&eff), "{eff}");
        assert!((weak_scaling_efficiency(1.0, 1.25) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn breakdown_totals() {
        let b = StepBreakdown {
            compute_s: 1.0,
            exposed_comm_s: 0.5,
            bubble_s: 0.25,
            jitter_s: 0.25,
        };
        assert_eq!(b.total_s(), 2.0);
    }
}
