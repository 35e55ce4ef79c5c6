//! Detector-quality sweep: the harness behind `BENCH_detector.json`
//! (written by the `artifacts` main) and its release smoke test.
//!
//! The hai-monitor-style detector (ISSUE 9) is imperfect *by design* —
//! it sees probe sweeps and heartbeat stretch, not ground truth — so
//! its two costs must be priced against each other:
//!
//! * **Detection latency**: with a known straggler injected at a known
//!   onset, how long until the offending node's first Suspect verdict?
//!   Swept over sensitivity × slowdown, reported as p50/p99 across
//!   seeded repeats (misses — fault never detected inside the horizon —
//!   are reported separately, never silently folded into percentiles).
//! * **False-positive capacity cost**: the same seeds replayed with *no*
//!   gray fault. Every quarantine the detector raises on that calm twin
//!   is false by construction, and the node-seconds the pool spends
//!   down because of them is the capacity bill for running trigger-happy.
//!
//! Every run is a full fluid-mode [`Platform`] replay; the aggregate is
//! a deterministic JSON document (`BENCH_detector.json`) whose digest is
//! bit-identical at any solver thread count.
//!
//! [`Platform`]: ff_platform::Platform

use ff_failures::{GrayFault, GrayPlan};
use ff_platform::{DetectorConfig, JobSpec, PlatformConfig, Verdict};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_util::fnv1a64;

/// The sweep: sensitivity × slowdown, `repeats` seeded runs per cell.
#[derive(Debug, Clone)]
pub struct DetectorBenchConfig {
    /// Base seed; each repeat derives its own.
    pub seed: u64,
    /// Cluster size in nodes (storage carved out as usual).
    pub nodes: usize,
    /// Simulated horizon per run, seconds.
    pub horizon_s: u64,
    /// Straggler onset, seconds into the run (baselines learn first).
    pub onset_s: u64,
    /// Detector sensitivities to sweep, each in `(0, 1]`.
    pub sensitivities: Vec<f64>,
    /// Straggler slowdown factors to sweep, each `> 1`.
    pub slowdowns: Vec<f64>,
    /// Seeded repeats per (sensitivity, slowdown) cell.
    pub repeats: usize,
    /// Fluid solver threads (the digest must not depend on this).
    pub solver_threads: usize,
}

impl DetectorBenchConfig {
    /// The committed grid: 3 sensitivities × 3 slowdowns × 4 repeats at
    /// 16 nodes, 8 simulated minutes per run (cheap enough for
    /// `detector_smoke` to re-render the committed artifact in full).
    pub fn paper_grid() -> DetectorBenchConfig {
        DetectorBenchConfig {
            seed: 7,
            nodes: 16,
            horizon_s: 480,
            onset_s: 120,
            // 0.25 = sluggish (misses mild stragglers), 0.5 = balanced,
            // 1.0 = hair-trigger (confirms on a single noisy sweep, so
            // the calm twins pay real false-quarantine capacity).
            sensitivities: vec![0.25, 0.5, 1.0],
            slowdowns: vec![1.5, 2.5, 4.0],
            repeats: 4,
            solver_threads: 1,
        }
    }

    /// A tiny grid for smoke tests: 2 × 2 × 3 runs plus calm twins.
    pub fn smoke_grid() -> DetectorBenchConfig {
        DetectorBenchConfig {
            seed: 7,
            nodes: 8,
            horizon_s: 420,
            onset_s: 90,
            sensitivities: vec![0.5, 0.9],
            slowdowns: vec![2.0, 4.0],
            repeats: 3,
            solver_threads: 1,
        }
    }
}

/// One (sensitivity, slowdown) cell's aggregate across repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorCell {
    /// Detector sensitivity of this cell.
    pub sensitivity: f64,
    /// Straggler slowdown of this cell.
    pub slowdown: f64,
    /// Repeats where the straggler node was detected after onset.
    pub detected: usize,
    /// Repeats where it never was (false negatives).
    pub missed: usize,
    /// Time-to-detect p50 over detected repeats, seconds (0 if none).
    pub ttd_p50_s: u64,
    /// Time-to-detect p99 over detected repeats, seconds (0 if none).
    pub ttd_p99_s: u64,
    /// Suspect verdicts across all straggler repeats (detections,
    /// re-flags after probation, and any false alarms on other nodes).
    pub verdicts: u64,
}

/// One sensitivity's calm-twin aggregate: every quarantine here is a
/// false positive.
#[derive(Debug, Clone, PartialEq)]
pub struct CalmCell {
    /// Detector sensitivity of this twin set.
    pub sensitivity: f64,
    /// False quarantines across all calm repeats.
    pub false_quarantines: u64,
    /// Node-seconds of capacity lost to them, across all calm repeats.
    pub down_node_s: u64,
}

/// A finished sweep plus its digest.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorBenchResult {
    /// One aggregate per (sensitivity, slowdown), sweep order.
    pub cells: Vec<DetectorCell>,
    /// One calm-twin aggregate per sensitivity, sweep order.
    pub calm: Vec<CalmCell>,
    /// FNV-1a 64 over the canonical cell lines.
    pub digest: String,
}

impl DetectorCell {
    /// Canonical fixed-format line, the unit of the sweep digest.
    pub fn canonical(&self) -> String {
        format!(
            "det sens={:.2} slow={:.1} detected={} missed={} ttd_p50_s={} \
             ttd_p99_s={} verdicts={}",
            self.sensitivity,
            self.slowdown,
            self.detected,
            self.missed,
            self.ttd_p50_s,
            self.ttd_p99_s,
            self.verdicts
        )
    }
}

impl CalmCell {
    /// Canonical fixed-format line, the unit of the sweep digest.
    pub fn canonical(&self) -> String {
        format!(
            "calm sens={:.2} false_q={} down_node_s={}",
            self.sensitivity, self.false_quarantines, self.down_node_s
        )
    }
}

/// One seeded run: a training job pinned across most of the cluster,
/// optionally a straggler on one of its nodes at `onset_s`. Returns
/// (time-to-detect seconds if the straggler node was suspected after
/// onset, total Suspect verdicts, detector quarantines, down node-s).
fn run_one(
    cfg: &DetectorBenchConfig,
    seed: u64,
    sensitivity: f64,
    slowdown: Option<f64>,
) -> (Option<u64>, u64, u64, u64) {
    let mut det = DetectorConfig::with_sensitivity(sensitivity);
    det.seed = seed;
    let mut p = PlatformConfig::new()
        .cluster(ClusterModel::build(&ClusterConfig::fire_flyer(cfg.nodes)))
        .storage_nodes(2)
        .ckpt_interval(30)
        .solver_threads(cfg.solver_threads)
        .detector(det)
        .build()
        .expect("fluid platform builds");
    let compute = p.node_count();
    let t = p
        .submit(
            // Enough work to outlive the horizon: steps on small fluid
            // clusters take milliseconds of simulated time.
            JobSpec::new("victim", (compute / 2).max(2), u64::MAX / 4)
                .step_bytes(6.4e7)
                .ckpt_bytes(2.56e8),
        )
        .expect("job fits");
    // The straggler strikes a node the job actually runs on: a seeded
    // pick from the warm assignment, so the fault always has a symptom.
    // (At hair-trigger sensitivity a false quarantine may have already
    // re-queued the job by onset — fall back to any compute node.)
    p.tick(cfg.onset_s);
    let target = slowdown.map(|slow| {
        let assigned = p.assignment(t).expect("victim is a known task");
        let node = if assigned.is_empty() {
            (seed as usize) % compute
        } else {
            assigned[(seed as usize) % assigned.len()]
        };
        let onset = p.now().0 as f64 / 1e9;
        p.apply_gray_plan(&GrayPlan::single(
            onset,
            node,
            (cfg.horizon_s * 2) as f64,
            GrayFault::Straggler {
                slowdown: slow,
                onset_ramp_s: 0.0,
            },
        ));
        node
    });
    p.tick(cfg.horizon_s - cfg.onset_s);
    let ttd = target.and_then(|node| {
        p.detector_verdicts().iter().find_map(|v| match *v {
            Verdict::Suspect { at, node: n, .. } if n == node => {
                Some((at.0 / 1_000_000_000).saturating_sub(cfg.onset_s))
            }
            _ => None,
        })
    });
    let verdicts = p
        .detector_verdicts()
        .iter()
        .filter(|v| matches!(v, Verdict::Suspect { .. }))
        .count() as u64;
    (
        ttd,
        verdicts,
        p.detector_quarantines(),
        p.down_node_seconds(),
    )
}

/// Percentile over a small sorted sample (nearest-rank).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run the whole sweep.
pub fn sweep(cfg: &DetectorBenchConfig) -> DetectorBenchResult {
    let mut cells = Vec::new();
    let mut calm = Vec::new();
    for (si, &sens) in cfg.sensitivities.iter().enumerate() {
        for (wi, &slow) in cfg.slowdowns.iter().enumerate() {
            let mut ttds = Vec::new();
            let mut missed = 0usize;
            let mut verdicts = 0u64;
            for r in 0..cfg.repeats {
                let seed = cfg.seed ^ ((si as u64) << 24 | (wi as u64) << 16 | r as u64);
                let (ttd, v, _, _) = run_one(cfg, seed, sens, Some(slow));
                match ttd {
                    Some(s) => ttds.push(s),
                    None => missed += 1,
                }
                verdicts += v;
            }
            ttds.sort_unstable();
            cells.push(DetectorCell {
                sensitivity: sens,
                slowdown: slow,
                detected: ttds.len(),
                missed,
                ttd_p50_s: pct(&ttds, 50.0),
                ttd_p99_s: pct(&ttds, 99.0),
                verdicts,
            });
        }
        // Calm twins: same seeds as the first slowdown column, no fault.
        let mut false_q = 0u64;
        let mut down = 0u64;
        for r in 0..cfg.repeats {
            let seed = cfg.seed ^ ((si as u64) << 24 | r as u64);
            let (_, _, q, d) = run_one(cfg, seed, sens, None);
            false_q += q;
            down += d;
        }
        calm.push(CalmCell {
            sensitivity: sens,
            false_quarantines: false_q,
            down_node_s: down,
        });
    }
    let digest = digest(&cells, &calm);
    DetectorBenchResult {
        cells,
        calm,
        digest,
    }
}

/// The sweep digest: FNV-1a 64 over newline-terminated canonical lines,
/// straggler cells first, then calm twins.
pub fn digest(cells: &[DetectorCell], calm: &[CalmCell]) -> String {
    let mut text = String::new();
    for c in cells {
        text.push_str(&c.canonical());
        text.push('\n');
    }
    for c in calm {
        text.push_str(&c.canonical());
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Render the committed aggregate: deterministic JSON whose bytes depend
/// only on the config, never on solver threads or wall-clock.
pub fn aggregate_json(cfg: &DetectorBenchConfig, r: &DetectorBenchResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"bench\": \"detector\",\n  \"schema\": 1,\n  \"seed\": {},\n  \
         \"nodes\": {},\n  \"horizon_s\": {},\n  \"onset_s\": {},\n  \
         \"repeats\": {},\n  \"digest\": \"{}\",\n",
        cfg.seed, cfg.nodes, cfg.horizon_s, cfg.onset_s, cfg.repeats, r.digest
    ));
    let fmt_axis = |vals: &[f64]| -> String {
        let v: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
        v.join(", ")
    };
    s.push_str(&format!(
        "  \"sensitivities\": [{}],\n  \"slowdowns\": [{}],\n",
        fmt_axis(&cfg.sensitivities),
        fmt_axis(&cfg.slowdowns)
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"sens\": {:.2}, \"slowdown\": {:.1}, \"detected\": {}, \
             \"missed\": {}, \"ttd_p50_s\": {}, \"ttd_p99_s\": {}, \
             \"verdicts\": {}}}{}\n",
            c.sensitivity,
            c.slowdown,
            c.detected,
            c.missed,
            c.ttd_p50_s,
            c.ttd_p99_s,
            c.verdicts,
            if i + 1 < r.cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"calm_twins\": [\n");
    for (i, c) in r.calm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"sens\": {:.2}, \"false_quarantines\": {}, \
             \"down_node_s\": {}}}{}\n",
            c.sensitivity,
            c.false_quarantines,
            c.down_node_s,
            if i + 1 < r.calm.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = [10u64, 20, 30, 40];
        assert_eq!(pct(&s, 50.0), 20);
        assert_eq!(pct(&s, 99.0), 40);
        assert_eq!(pct(&[], 50.0), 0);
        assert_eq!(pct(&[7], 99.0), 7);
    }

    #[test]
    fn digest_covers_both_sections() {
        let cell = DetectorCell {
            sensitivity: 0.5,
            slowdown: 4.0,
            detected: 3,
            missed: 0,
            ttd_p50_s: 30,
            ttd_p99_s: 45,
            verdicts: 3,
        };
        let calm = CalmCell {
            sensitivity: 0.5,
            false_quarantines: 0,
            down_node_s: 0,
        };
        let d1 = digest(std::slice::from_ref(&cell), std::slice::from_ref(&calm));
        let mut calm2 = calm.clone();
        calm2.false_quarantines = 1;
        let d2 = digest(std::slice::from_ref(&cell), std::slice::from_ref(&calm2));
        assert_ne!(d1, d2, "calm-twin counts must be digest-covered");
    }
}
