//! Operations simulation: the HAI platform under the paper's measured
//! failure rates (§VII).
//!
//! Drives the [`ff_platform::Platform`] scheduler with a failure trace
//! from [`ff_failures::FailureGenerator`]: Xids that need node action take
//! the node out (repaired after a configurable MTTR, as the operations
//! team would), tasks roll back to their last checkpoint and reschedule.
//! The report quantifies the §VII-A claim that with 5-minute checkpoints
//! "the overhead from disaster recovery is minimal".

use ff_failures::plan::action_for;
use ff_failures::{FailureEvent, FailureGenerator, FaultAction};
use ff_platform::{JobSpec, PlatformConfig};

/// Configuration of an operations run.
#[derive(Debug, Clone)]
pub struct OpsSimulation {
    /// Nodes per zone.
    pub per_zone: [usize; 2],
    /// Checkpoint cadence, seconds (§VII-A: 300).
    pub ckpt_interval_s: u64,
    /// Days to simulate.
    pub days: u64,
    /// Mean time to repair a failed node, seconds.
    pub mttr_s: u64,
    /// Failure-rate scale (1.0 = the paper's measured rates, scaled to
    /// the simulated node count).
    pub failure_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpsSimulation {
    fn default() -> Self {
        OpsSimulation {
            per_zone: [16, 16],
            ckpt_interval_s: 300,
            days: 30,
            mttr_s: 4 * 3600,
            failure_scale: 1.0,
            seed: 7,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct OpsReport {
    /// Node-seconds of work lost to failures.
    pub lost_work_node_s: u64,
    /// Total productive node-seconds delivered.
    pub busy_node_s: u64,
    /// Scheduler utilization over healthy node-time.
    pub utilization: f64,
    /// Failures that required node action.
    pub node_failures: usize,
    /// Total failure events observed (including tolerated ones).
    pub total_events: usize,
}

impl OpsReport {
    /// Lost work as a fraction of delivered work — the §VII-A "minimal
    /// overhead" metric.
    pub fn loss_fraction(&self) -> f64 {
        if self.busy_node_s == 0 {
            0.0
        } else {
            self.lost_work_node_s as f64 / self.busy_node_s as f64
        }
    }
}

impl OpsSimulation {
    /// Run the simulation.
    pub fn run(&self) -> OpsReport {
        let nodes = self.per_zone[0] + self.per_zone[1];
        let mut platform = PlatformConfig::new()
            .zones(self.per_zone)
            .ckpt_interval(self.ckpt_interval_s)
            .build()
            .expect("ops simulation has nodes");
        // Keep the cluster saturated with week-long 4-node jobs.
        for i in 0..nodes {
            platform
                .submit(JobSpec::new(format!("train-{i}"), 4, 14 * 86_400))
                .expect("4-node job fits the cluster");
        }
        // Failure trace scaled from the paper's 1,250-node rates to ours.
        let mut gen = FailureGenerator::paper_calibrated(self.seed, nodes);
        gen.scale_rates(self.failure_scale * nodes as f64 / 1250.0);
        let horizon = (self.days * 86_400) as f64;
        let events = gen.generate(horizon);

        let mut node_failures = 0usize;
        let mut repairs: Vec<(u64, usize)> = Vec::new(); // (due time, node)
        let mut now = 0u64;
        let step = 60u64; // 1-minute scheduler ticks
        let mut ei = 0usize;
        while now < self.days * 86_400 {
            now += step;
            platform.tick(step);
            // Repairs due.
            while let Some(pos) = repairs.iter().position(|&(due, _)| due <= now) {
                let (_, node) = repairs.swap_remove(pos);
                platform.heal_node(node);
            }
            // Failures in this window.
            while ei < events.len() && events[ei].at_s <= now as f64 {
                let e: &FailureEvent = &events[ei];
                ei += 1;
                // Table V: a fault that kills or corrupts a rank takes its
                // node out. Flash cuts only degrade a link, and storage
                // faults stay in the storage plane.
                let needs_action = matches!(
                    action_for(e.kind, e.node),
                    FaultAction::KillRank { .. } | FaultAction::CorruptData { .. }
                );
                if needs_action && !repairs.iter().any(|&(_, n)| n == e.node) {
                    node_failures += 1;
                    platform.fail_node(e.node);
                    repairs.push((now + self.mttr_s, e.node));
                }
            }
        }
        OpsReport {
            lost_work_node_s: platform.lost_work_s(),
            busy_node_s: (platform.utilization() * (nodes as u64 * self.days * 86_400) as f64)
                as u64,
            utilization: platform.utilization(),
            node_failures,
            total_events: events.len(),
        }
    }
}

/// Sweep checkpoint cadences to show the §VII-A trade-off: longer
/// intervals lose more work per failure.
pub fn checkpoint_cadence_sweep(intervals_s: &[u64], days: u64) -> Vec<(u64, f64)> {
    intervals_s
        .iter()
        .map(|&iv| {
            let report = OpsSimulation {
                ckpt_interval_s: iv,
                days,
                // Stress rates so the sweep differentiates quickly.
                failure_scale: 50.0,
                ..Default::default()
            }
            .run();
            (iv, report.loss_fraction())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_stays_high_despite_failures() {
        let report = OpsSimulation {
            days: 10,
            ..Default::default()
        }
        .run();
        assert!(
            report.utilization > 0.90,
            "utilization {}",
            report.utilization
        );
    }

    #[test]
    fn five_minute_checkpoints_keep_loss_minimal() {
        // §VII-A: "only the last 5 minutes of progress are lost ... this
        // overhead from disaster recovery is minimal."
        let report = OpsSimulation {
            days: 10,
            failure_scale: 10.0, // even at 10× the measured rates
            ..Default::default()
        }
        .run();
        assert!(
            report.loss_fraction() < 0.01,
            "loss fraction {}",
            report.loss_fraction()
        );
    }

    #[test]
    fn longer_cadence_loses_more_work() {
        let sweep = checkpoint_cadence_sweep(&[300, 3600, 14400], 5);
        assert!(sweep[0].1 <= sweep[1].1 + 1e-9);
        assert!(sweep[1].1 <= sweep[2].1 + 1e-9);
        assert!(
            sweep[2].1 > sweep[0].1,
            "sweep should differentiate: {sweep:?}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = OpsSimulation::default().run();
        let b = OpsSimulation::default().run();
        assert_eq!(a.lost_work_node_s, b.lost_work_node_s);
        assert_eq!(a.node_failures, b.node_failures);
    }

    #[test]
    fn flash_cuts_do_not_kill_nodes() {
        // With only network failures (scale GPU/memory rates to ~0 by
        // using a tiny cluster and checking the tolerated/total ratio),
        // node_failures < total_events always holds.
        let report = OpsSimulation {
            days: 20,
            failure_scale: 5.0,
            ..Default::default()
        }
        .run();
        assert!(report.node_failures < report.total_events);
    }
}
