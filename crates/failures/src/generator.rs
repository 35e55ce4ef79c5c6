//! Calibrated stochastic failure generation.
//!
//! Per-kind Poisson processes whose yearly rates equal the paper's raw
//! counts (Tables VI–VIII) — the closest synthetic equivalent to replaying
//! the production cluster's logs. Seeded ChaCha keeps every trace
//! reproducible.

use crate::data::{TABLE_VIII_FLASH_CUTS, TABLE_VII_MONTHLY, TABLE_VI_XID_COUNTS};
use crate::xid::Xid;
use ff_util::rng::ChaCha8Rng;

/// Seconds in the paper's observation year.
pub const YEAR_S: f64 = 365.0 * 24.0 * 3600.0;

/// What failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A GPU raised an Xid error.
    GpuXid(Xid),
    /// Host (CPU) memory ECC error.
    MainMemoryEcc,
    /// An IB link flash cut.
    NetworkFlashCut,
    /// A 3FS storage target died (SSD failure or storage-node loss,
    /// §VI-B). Handled by the storage plane — chain reconfiguration and
    /// re-sync — not by the job scheduler.
    StorageTargetFailure,
}

/// One generated failure event.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEvent {
    /// Seconds since the trace start.
    pub at_s: f64,
    /// Affected node index.
    pub node: usize,
    /// What happened.
    pub kind: FailureKind,
}

/// The generator: yearly rates per failure kind over a cluster of
/// `nodes` nodes.
pub struct FailureGenerator {
    rng: ChaCha8Rng,
    nodes: usize,
    /// `(kind, events per second across the cluster)`.
    rates: Vec<(FailureKind, f64)>,
}

impl FailureGenerator {
    /// Calibrated to the paper's cluster (≈1,250 nodes): Xid rates from
    /// Table VI, main-memory ECC from Table VII (54 over 6 months → 108 /
    /// year), flash cuts from Table VIII.
    pub fn paper_calibrated(seed: u64, nodes: usize) -> FailureGenerator {
        let mut rates: Vec<(FailureKind, f64)> = TABLE_VI_XID_COUNTS
            .iter()
            .map(|&(code, count)| (FailureKind::GpuXid(Xid(code)), count as f64 / YEAR_S))
            .collect();
        let main_memory_half_year: u64 = TABLE_VII_MONTHLY.iter().map(|(_, row)| row[0]).sum();
        rates.push((
            FailureKind::MainMemoryEcc,
            (main_memory_half_year * 2) as f64 / YEAR_S,
        ));
        let flash_cuts: u64 = TABLE_VIII_FLASH_CUTS.iter().map(|&(_, c)| c).sum();
        rates.push((FailureKind::NetworkFlashCut, flash_cuts as f64 / YEAR_S));
        FailureGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
            nodes: nodes.max(1),
            rates,
        }
    }

    /// Add a storage-target failure process at `per_year` events/year.
    /// Opt-in (not part of `paper_calibrated`): appending a default rate
    /// would shift the seeded sampling streams of every calibrated trace.
    pub fn with_storage_failures(&mut self, per_year: f64) {
        assert!(per_year > 0.0);
        self.rates
            .push((FailureKind::StorageTargetFailure, per_year / YEAR_S));
    }

    /// Scale all rates (e.g. simulate a smaller cluster or a worse batch
    /// of hardware). `factor == 0.0` switches every process off, so the
    /// next [`FailureGenerator::generate`] returns no events at all —
    /// sweep baselines rely on that instead of sampling degenerate
    /// near-zero rates.
    pub fn scale_rates(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate scale must be finite and non-negative, got {factor}"
        );
        for (_, r) in &mut self.rates {
            *r *= factor;
        }
    }

    /// Generate all events in `[0, horizon_s)`, time-ordered.
    pub fn generate(&mut self, horizon_s: f64) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        let rates = self.rates.clone();
        for (kind, rate) in rates {
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival via inverse CDF.
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / rate;
                if t >= horizon_s {
                    break;
                }
                let node = self.rng.gen_range(0..self.nodes);
                events.push(FailureEvent {
                    at_s: t,
                    node,
                    kind,
                });
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        events
    }
}

/// Replay the paper's actual Table VIII trace as events: each dated flash
/// cut becomes a `NetworkFlashCut` at noon of its day (days measured from
/// 2023-04-01), on a deterministic pseudo-random node. Exact replay — not
/// sampling — for experiments that want the real production timeline.
pub fn replay_flash_cut_trace(nodes: usize) -> Vec<FailureEvent> {
    let day_of = |date: &str| -> f64 {
        // Days since 2023-04-01, Gregorian arithmetic over the 12 months
        // the trace spans.
        let y: i64 = date[0..4].parse().expect("year");
        let m: i64 = date[5..7].parse().expect("month");
        let d: i64 = date[8..10].parse().expect("day");
        let days_in = |y: i64, m: i64| -> i64 {
            match m {
                1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
                4 | 6 | 9 | 11 => 30,
                _ => {
                    if y % 4 == 0 && (y % 100 != 0 || y % 400 == 0) {
                        29
                    } else {
                        28
                    }
                }
            }
        };
        let mut days = 0i64;
        let (mut cy, mut cm) = (2023i64, 4i64);
        while (cy, cm) != (y, m) {
            days += days_in(cy, cm);
            cm += 1;
            if cm == 13 {
                cm = 1;
                cy += 1;
            }
        }
        (days + d - 1) as f64
    };
    let mut out = Vec::new();
    for (i, &(date, count)) in TABLE_VIII_FLASH_CUTS.iter().enumerate() {
        for k in 0..count {
            out.push(FailureEvent {
                at_s: day_of(date) * 86_400.0 + 43_200.0 + k as f64,
                node: (i * 31 + k as usize * 7) % nodes.max(1),
                kind: FailureKind::NetworkFlashCut,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::table_vi_total;
    use crate::xid::XidCategory;

    #[test]
    fn replay_matches_the_raw_trace() {
        let events = replay_flash_cut_trace(1250);
        let total: u64 = crate::data::TABLE_VIII_FLASH_CUTS
            .iter()
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(events.len() as u64, total);
        // Ordered in time, within the year.
        for w in events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        assert!(events.last().expect("non-empty").at_s < 370.0 * 86_400.0);
        // Spot-check a date: 2023-05-28 is day 57 (30 Apr days + 27).
        let may28: Vec<_> = events
            .iter()
            .filter(|e| (e.at_s / 86_400.0) as u64 == 57)
            .collect();
        assert_eq!(may28.len(), 10, "the big 2023-05-28 outage");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = FailureGenerator::paper_calibrated(42, 1250);
        let mut b = FailureGenerator::paper_calibrated(42, 1250);
        assert_eq!(a.generate(30.0 * 86400.0), b.generate(30.0 * 86400.0));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FailureGenerator::paper_calibrated(1, 1250);
        let mut b = FailureGenerator::paper_calibrated(2, 1250);
        assert_ne!(a.generate(30.0 * 86400.0), b.generate(30.0 * 86400.0));
    }

    #[test]
    fn yearly_volume_matches_table_vi() {
        let mut g = FailureGenerator::paper_calibrated(7, 1250);
        let events = g.generate(YEAR_S);
        let xids = events
            .iter()
            .filter(|e| matches!(e.kind, FailureKind::GpuXid(_)))
            .count() as f64;
        let expected = table_vi_total() as f64;
        assert!(
            (xids - expected).abs() < expected * 0.05,
            "generated {xids}, expected ≈{expected}"
        );
    }

    #[test]
    fn category_shares_match_the_paper() {
        let mut g = FailureGenerator::paper_calibrated(11, 1250);
        let events = g.generate(YEAR_S);
        let total = events
            .iter()
            .filter(|e| matches!(e.kind, FailureKind::GpuXid(_)))
            .count() as f64;
        let nvlink = events
            .iter()
            .filter(|e| {
                matches!(e.kind, FailureKind::GpuXid(x) if x.category() == Some(XidCategory::NvLinkError))
            })
            .count() as f64;
        let share = nvlink / total;
        // Paper: 42.57%.
        assert!((share - 0.4257).abs() < 0.02, "NVLink share {share}");
    }

    #[test]
    fn events_are_time_ordered_and_in_horizon() {
        let mut g = FailureGenerator::paper_calibrated(3, 100);
        let events = g.generate(7.0 * 86400.0);
        for w in events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        assert!(events.iter().all(|e| e.at_s < 7.0 * 86400.0));
        assert!(events.iter().all(|e| e.node < 100));
    }

    #[test]
    fn rate_scaling_scales_volume() {
        let mut g = FailureGenerator::paper_calibrated(5, 1250);
        g.scale_rates(0.1);
        let low = g.generate(YEAR_S).len() as f64;
        let mut g2 = FailureGenerator::paper_calibrated(5, 1250);
        let full = g2.generate(YEAR_S).len() as f64;
        assert!(
            (low / full - 0.1).abs() < 0.03,
            "scaled {low} vs full {full}"
        );
    }
}
