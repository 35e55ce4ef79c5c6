//! What every workload takes and gives back, and the dispatch by name.

use crate::trace::Tracer;
use crate::{collective, fs3, platform, sim};

/// One run's parameters, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measuring window, seconds.
    pub seconds: f64,
    /// Record spans and measure the per-layer metrics.
    pub trace: bool,
    /// Test scale: small buffers, a 64-node cluster, a 120 s horizon.
    pub smoke: bool,
}

/// One per-layer value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

impl Layer {
    pub fn new(name: &'static str, value: f64, n: u64) -> Layer {
        Layer { name, value, n }
    }
}

/// Append `(name, value, n)` rows to a per-layer table.
pub fn push_layers(l: &mut Vec<Layer>, rows: &[(&'static str, f64, u64)]) {
    l.extend(
        rows.iter()
            .map(|&(name, value, n)| Layer::new(name, value, n)),
    );
}

/// One stretch of the measuring window on one freshly set-up state.
#[derive(Default)]
pub struct Episode {
    /// Latencies of the primary op class, microseconds.
    pub op_us: Vec<f64>,
    /// Latencies of the secondary op class, microseconds.
    pub alt_us: Vec<f64>,
    /// Wall-clock of this stretch, seconds.
    pub timed_s: f64,
}

/// Episodes per run of the op-loop workloads. A process's memory layout
/// shifts a memory-bound op's median by several percent and stays put for
/// the life of the allocation, so one run samples several layouts: each
/// episode sets up afresh and takes an equal share of the window, and a
/// run reports the median over its episodes' medians.
pub const EPISODES: usize = 5;

/// What a workload measured. `main` turns this into the declared metrics.
#[derive(Default)]
pub struct Outcome {
    /// Ops that returned `Err`, produced a wrong result, or (simulators)
    /// missed a pinned simulated value.
    pub failed: u64,
    /// One entry per set-up performed; the median is reported.
    pub setup_s: Vec<f64>,
    pub episodes: Vec<Episode>,
    /// Per-layer values; empty unless tracing.
    pub layers: Vec<Layer>,
    /// Span buffers to flush at exit; empty unless tracing.
    pub tracers: Vec<Tracer>,
}

/// Set-ups per run: at least `MIN_SETUPS`, and more while they are cheap.
/// `setup_s` is their median, which one set-up of a few tens of
/// milliseconds is too noisy to stand for.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const CHEAP_SETUPS_S: f64 = 1.5;

impl Outcome {
    /// Ops in the measuring window, both classes.
    pub fn attempted(&self) -> u64 {
        self.episodes
            .iter()
            .map(|e| (e.op_us.len() + e.alt_us.len()) as u64)
            .sum()
    }

    /// Perform the workload's set-up several times, freeing each before
    /// the next, and keep the last. `build(last)` returns the seconds the
    /// set-up took and what it built.
    pub fn set_up<T>(&mut self, mut build: impl FnMut(bool) -> (f64, T)) -> T {
        loop {
            let done = self.setup_s.len();
            let spent: f64 = self.setup_s.iter().sum();
            // Decided before the set-up runs, from what the earlier ones cost.
            let last = done + 1 >= MIN_SETUPS
                && (done + 1 == MAX_SETUPS
                    || spent / done as f64 * (done + 1) as f64 > CHEAP_SETUPS_S);
            let (seconds, built) = build(last);
            self.setup_s.push(seconds);
            if last {
                return built;
            }
        }
    }
}

pub fn run(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "hfreduce_large" => collective::hfreduce_large(cfg),
        "allreduce_small" => collective::allreduce_small(cfg),
        "sim_fig7a" => sim::run(cfg),
        "platform_replay" => platform::run(cfg),
        "fs3_rw" => fs3::run(cfg),
        _ => return None,
    })
}
