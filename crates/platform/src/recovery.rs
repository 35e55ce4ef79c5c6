//! The closed fault-recovery loop (§VI-C, §VII-A): **detect → resume →
//! requeue**.
//!
//! A deterministic data-parallel training job runs its gradient allreduce
//! on the real threaded double-binary-tree executor
//! ([`ff_reduce::allreduce_ft`]) and checkpoints to a real 3FS
//! instance through the [`CheckpointManager`]. Faults from an
//! [`ff_failures::FaultPlan`] are injected at three layers:
//!
//! * **Rank death** — a rank's comm endpoint dies mid-collective. The
//!   survivors detect it as a typed [`ff_reduce::CommError`] (no panic),
//!   the scheduler marks the node failed and requeues the task onto a
//!   spare, and training resumes from the last good checkpoint — "only
//!   the last 5 minutes of progress are lost" (§VII-A).
//! * **Silent data corruption** — bytes of a saved checkpoint flip behind
//!   the manager's back (§VII-C's uncontained-ECC pathway). The checksum
//!   catches it at load time; recovery falls back to the previous
//!   checkpoint instead of restoring garbage.
//! * **Link degradation** — an IB flash cut trains a node's link down.
//!   hostping-style probing ([`crate::hostping`]) finds the slow path;
//!   the job tolerates it (the paper's policy for flash cuts) but the
//!   node is flagged for maintenance.
//!
//! Because the job is deterministic, the acid test of the whole loop is
//! that a run riddled with injected faults finishes with **bit-identical
//! parameters** to a fault-free run — see `tests/fault_recovery.rs`.

use crate::checkpoint::{CheckpointManager, CkptError};
use crate::hostping::{bottlenecks, hostping};
use crate::scheduler::{JobSpec, PlatformConfig, TaskState};
use crate::storage_health::StoragePlane;
use ff_3fs::chain::{Chain, ChainTable};
use ff_3fs::client::Fs3Client;
use ff_3fs::kvstore::KvStore;
use ff_3fs::meta::MetaService;
use ff_3fs::target::{Disk, StorageTarget};
use ff_desim::FluidSim;
use ff_failures::plan::{FaultAction, FaultPlan};
use ff_hw::{NodeHw, NodeSpec};
use ff_obs::Recorder;
use ff_reduce::exec::{allreduce_ft, ExecFaultPlan, ObsCtx};
use ff_reduce::InMemProvider;
use ff_util::error::FfError;
use std::sync::Arc;
use std::time::Duration;

/// The deterministic training job the recovery loop drives.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Data-parallel ranks (one per node).
    pub ranks: usize,
    /// Parameter-vector length.
    pub params: usize,
    /// Steps to train.
    pub steps: u64,
    /// Checkpoint every this many steps (the paper's 5-minute cadence,
    /// in step units).
    pub ckpt_every: u64,
    /// Chunks per collective (pipelining degree of the tree allreduce).
    pub chunks: usize,
    /// 3FS chunk size for checkpoints, bytes.
    pub ckpt_chunk_bytes: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            ranks: 6,
            params: 256,
            steps: 40,
            ckpt_every: 8,
            chunks: 4,
            ckpt_chunk_bytes: 4 << 10,
        }
    }
}

/// Faults to inject into one training run, in step units.
#[derive(Debug, Clone, Default)]
pub struct JobFaults {
    /// `(step, rank)`: the rank dies mid-allreduce of that step.
    pub kills: Vec<(u64, usize)>,
    /// Checkpoint steps whose stored bytes get silently flipped after the
    /// save lands (detected only by the load-time checksum).
    pub corrupt_ckpts: Vec<u64>,
    /// `(step, rank)`: the rank's link trains down before that step.
    pub degrades: Vec<(u64, usize)>,
    /// `(step, target)`: the 3FS storage target at pool index `target`
    /// dies before that step. Checkpoint I/O must ride through on client
    /// retries while the chain reconfigures.
    pub storage_kills: Vec<(u64, usize)>,
    /// `(step, target)`: the repaired target returns, is validated, and
    /// re-syncs back into a chain.
    pub storage_rejoins: Vec<(u64, usize)>,
}

/// Steps between a storage target's death and its repaired return in
/// plans projected by [`JobFaults::from_plan`].
pub const STORAGE_REJOIN_DELAY_STEPS: u64 = 5;

impl JobFaults {
    /// No faults: the baseline run.
    pub fn none() -> JobFaults {
        JobFaults::default()
    }

    /// Project a wall-clock [`FaultPlan`] onto a job of `steps` steps of
    /// `step_s` seconds each. Kills and degradations map directly;
    /// `CorruptData` actions corrupt the checkpoint preceding the fault;
    /// `Tolerate` actions are absorbed in-band and vanish, exactly as the
    /// paper's handling table prescribes.
    pub fn from_plan(plan: &FaultPlan, step_s: f64, cfg: &TrainerConfig) -> JobFaults {
        let mut out = JobFaults::none();
        for f in plan.window(0.0, cfg.steps as f64 * step_s) {
            let step = (f.at_s / step_s) as u64;
            match f.action {
                FaultAction::KillRank { rank } => out.kills.push((step, rank % cfg.ranks)),
                FaultAction::DegradeLink { rank, .. } => {
                    out.degrades.push((step, rank % cfg.ranks))
                }
                FaultAction::CorruptData { .. } => {
                    let preceding = step / cfg.ckpt_every * cfg.ckpt_every;
                    if preceding > 0 {
                        out.corrupt_ckpts.push(preceding);
                    }
                }
                FaultAction::Tolerate { .. } => {}
                FaultAction::KillStorageTarget { target } => {
                    out.storage_kills.push((step, target));
                    out.storage_rejoins
                        .push((step + STORAGE_REJOIN_DELAY_STEPS, target));
                }
            }
        }
        out
    }
}

/// One entry in the recovery timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A checkpoint landed after `step` completed steps.
    Checkpointed {
        /// Completed steps the checkpoint captures.
        step: u64,
    },
    /// A rank stopped responding during the allreduce of `step`.
    RankDied {
        /// The step whose collective detected the death.
        step: u64,
        /// The dead rank.
        rank: usize,
    },
    /// The scheduler moved the task back to the queue and onto spares.
    Requeued {
        /// The step at which the requeue happened.
        step: u64,
    },
    /// A checkpoint failed its checksum on load and was discarded.
    CheckpointCorrupt {
        /// The corrupt checkpoint's step.
        step: u64,
    },
    /// Training restarted from the checkpoint at `step` completed steps.
    ResumedFrom {
        /// Completed steps restored.
        step: u64,
    },
    /// hostping found `slow_paths` degraded paths on `rank`'s node.
    LinkDegraded {
        /// The step before which degradation was detected.
        step: u64,
        /// The affected rank.
        rank: usize,
        /// Number of unhealthy probes.
        slow_paths: usize,
    },
    /// A 3FS storage target died; its chains serve degraded until repair.
    StorageTargetLost {
        /// The step before which the target died.
        step: u64,
        /// The dead target's name.
        target: String,
    },
    /// A storage target passed validation and rejoined the plane.
    StorageRejoined {
        /// The step before which the target returned.
        step: u64,
        /// The readmitted target's name.
        target: String,
    },
}

/// What a recovered run looked like.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The timeline, in order.
    pub events: Vec<RecoveryEvent>,
    /// The parameters after the final step.
    pub final_params: Vec<f32>,
    /// Steps the cluster actually executed, including replayed work.
    pub steps_executed: u64,
    /// The configured step count.
    pub steps: u64,
    /// Scheduler utilization over the run.
    pub utilization: f64,
    /// Node-seconds of work the scheduler rolled back to checkpoints.
    pub lost_work_s: u64,
}

impl RecoveryReport {
    /// Steps re-executed because of rollbacks.
    pub fn replayed_steps(&self) -> u64 {
        self.steps_executed - self.steps
    }

    /// Rank deaths observed.
    pub fn deaths(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::RankDied { .. }))
            .count()
    }

    /// Checkpoints that failed their checksum.
    pub fn corrupt_checkpoints(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::CheckpointCorrupt { .. }))
            .count()
    }

    /// The steps training resumed from, in order.
    pub fn resume_points(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::ResumedFrom { step } => Some(*step),
                _ => None,
            })
            .collect()
    }
}

/// Per-rank deterministic gradient: small integers, so f32 tree
/// reductions are exact and replays are bit-identical.
fn gradient(rank: usize, step: u64, params: usize) -> Vec<f32> {
    (0..params)
        .map(|i| ((rank * 31 + step as usize * 17 + i * 13) % 16) as f32 - 7.5)
        .collect()
}

/// Apply one optimizer step: `p -= Δ/2¹⁰ × grad_sum / ranks`, all in
/// exactly representable f32 quantities.
fn apply(params: &mut [f32], total: &[f32], ranks: usize) {
    let scale = (1.0 / 1024.0) / ranks as f32;
    for (p, g) in params.iter_mut().zip(total) {
        *p -= g * scale;
    }
}

fn encode_params(p: &[f32]) -> Vec<u8> {
    p.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_params(b: &[u8]) -> Vec<f32> {
    b.as_chunks::<4>()
        .0
        .iter()
        .map(|&c| f32::from_le_bytes(c))
        .collect()
}

/// How long survivors wait on a silent peer before declaring it dead —
/// the collective layer's failure-detection latency.
const DETECT_TIMEOUT: Duration = Duration::from_millis(250);

/// A fresh single-job 3FS instance big enough for the run's checkpoints.
/// With a recorder, every chain reports its writes on `fs3/chain{c}`.
fn build_store(obs: Option<&Arc<Recorder>>) -> Arc<Fs3Client> {
    let chains: Vec<_> = (0..4)
        .map(|c| {
            Chain::new(
                c,
                vec![
                    StorageTarget::new(format!("c{c}a"), Disk::new(64 << 20)),
                    StorageTarget::new(format!("c{c}b"), Disk::new(64 << 20)),
                ],
            )
        })
        .collect();
    if let Some(rec) = obs {
        for ch in &chains {
            ch.attach_recorder(rec, &format!("fs3/chain{}", ch.id()));
        }
    }
    let table = Arc::new(ChainTable::new(chains));
    let meta = MetaService::new(KvStore::new(4, 2), table.len());
    Fs3Client::new(meta, table, 8)
}

/// [`build_store`]'s topology wrapped in a [`StoragePlane`] so storage
/// faults can be injected, detected and repaired. The client's failover
/// hook drives repair passes from inside its retry loop; the dead target
/// itself — once validated — is the only spare, so a rejoin must re-sync
/// it back into its chain.
fn build_faulted_store(obs: Option<&Arc<Recorder>>) -> (Arc<Fs3Client>, Arc<StoragePlane>) {
    let mut members = Vec::new();
    let chains: Vec<_> = (0..4)
        .map(|c| {
            let reps: Vec<_> = ["a", "b"]
                .iter()
                .map(|r| StorageTarget::new(format!("c{c}{r}"), Disk::new(64 << 20)))
                .collect();
            members.extend(reps.iter().cloned());
            Chain::new(c, reps)
        })
        .collect();
    if let Some(rec) = obs {
        for ch in &chains {
            ch.attach_recorder(rec, &format!("fs3/chain{}", ch.id()));
        }
    }
    let table = Arc::new(ChainTable::new(chains));
    let plane = StoragePlane::new(table.clone(), members, Vec::new(), 64 << 10);
    if let Some(rec) = obs {
        plane.attach_recorder(rec);
    }
    let meta = MetaService::new(KvStore::new(4, 2), table.len());
    let client = Fs3Client::new(meta, table, 8);
    client.set_failover_handler(plane.failover_handler());
    (client, plane)
}

/// Run the job under `faults`, recovering as the platform would, and
/// return the timeline plus the final parameters.
///
/// The run owns its world: a fresh 3FS instance for checkpoints, a
/// [`crate::Platform`] with `ranks` nodes per zone (zone 1 is the spare pool a
/// requeued task lands on), and a fluid model of each node for hostping
/// probing. Saves here are synchronous so that a checkpoint provably
/// precedes the faults that follow it; the asynchronous path and its
/// error surfacing are exercised by the checkpoint manager's own tests.
pub fn train_with_recovery(
    cfg: &TrainerConfig,
    faults: &JobFaults,
) -> Result<RecoveryReport, FfError> {
    train_with_recovery_traced(cfg, faults, None)
}

/// [`train_with_recovery`] with full-stack observability. One recorder
/// collects the whole run on simulated/logical time, one second per step:
///
/// * `platform/job` — a span per completed training step;
/// * `platform/recovery` — the [`RecoveryEvent`] timeline as instants;
/// * `reduce/rank{r}` + `reduce/ctl` — every collective's send/recv spans
///   and the shrink-to-survivors control events;
/// * `fs3/chain{c}` — chain-replicated checkpoint chunk writes;
/// * `platform/ckpt` — checkpoint save/load/corrupt;
/// * `desim/hostping` — degradation probes and link utilization gauges.
///
/// The job is deterministic and every timestamp is logical, so the same
/// `(cfg, faults)` always yields a byte-identical trace digest.
pub fn train_with_recovery_traced(
    cfg: &TrainerConfig,
    faults: &JobFaults,
    obs: Option<&Arc<Recorder>>,
) -> Result<RecoveryReport, FfError> {
    assert!(cfg.ranks >= 2, "recovery needs a multi-rank job");
    assert!(cfg.ckpt_every >= 1);
    const STEP_NS: u64 = 1_000_000_000;
    let job_track = obs.map(|r| r.track("platform/job"));
    let rec_track = obs.map(|r| r.track("platform/recovery"));
    let note = |name: &str, step: u64, value: f64| {
        if let (Some(r), Some(t)) = (obs, rec_track) {
            r.instant(t, name, step * STEP_NS, value);
        }
    };
    // The storage plane (and its obs streams) exists only when storage
    // faults are in play, so fault-free traces keep their golden digests.
    let (client, storage) = if faults.storage_kills.is_empty() && faults.storage_rejoins.is_empty()
    {
        (build_store(obs), None)
    } else {
        let (client, plane) = build_faulted_store(obs);
        (client, Some(plane))
    };
    let ckpt = CheckpointManager::new(client.clone(), "job", cfg.ckpt_chunk_bytes)?;
    if let Some(rec) = obs {
        ckpt.attach_recorder(rec, "platform/ckpt");
    }

    let mut platform = PlatformConfig::new()
        .zones([cfg.ranks, cfg.ranks])
        .ckpt_interval(cfg.ckpt_every)
        .build()?;
    let task = platform.submit(JobSpec::new("train", cfg.ranks, cfg.steps))?;
    assert_eq!(platform.state(task), Some(TaskState::Running));

    let mut events = Vec::new();
    let mut params = vec![0f32; cfg.params];
    let mut completed = 0u64;
    let mut steps_executed = 0u64;
    let mut kills = faults.kills.clone();
    let mut degrades = faults.degrades.clone();
    let mut storage_kills = faults.storage_kills.clone();
    let mut storage_rejoins = faults.storage_rejoins.clone();
    // Dedup: flipping the same byte twice would restore it.
    let mut corrupt: Vec<u64> = faults.corrupt_ckpts.clone();
    corrupt.sort_unstable();
    corrupt.dedup();

    while completed < cfg.steps {
        let step = completed;

        // --- Storage plane: kills, health ticks, validated rejoins. ---
        if let Some(plane) = &storage {
            // The plane's clock must stay monotonic even when `completed`
            // rolls back to a checkpoint, so it runs on executed steps.
            plane.tick(steps_executed);
            while let Some(pos) = storage_kills.iter().position(|&(s, _)| s == step) {
                let (_, idx) = storage_kills.swap_remove(pos);
                if let Some(target) = plane.inject_kill(idx, step) {
                    events.push(RecoveryEvent::StorageTargetLost {
                        step,
                        target: target.clone(),
                    });
                    note(&format!("storage target {target} lost"), step, idx as f64);
                }
            }
            while let Some(pos) = storage_rejoins.iter().position(|&(s, _)| s == step) {
                let (_, idx) = storage_rejoins.swap_remove(pos);
                let names = plane.target_names();
                let target = names[idx % names.len()].clone();
                plane.repair_node(idx);
                if plane.revive_and_validate(idx, step) {
                    events.push(RecoveryEvent::StorageRejoined {
                        step,
                        target: target.clone(),
                    });
                    note(
                        &format!("storage target {target} rejoined"),
                        step,
                        idx as f64,
                    );
                }
            }
        }

        // --- Detect: link degradation via hostping (§VII-B). ---
        while let Some(pos) = degrades.iter().position(|&(s, _)| s == step) {
            let (_, rank) = degrades.swap_remove(pos);
            let mut fluid = FluidSim::new();
            if let Some(rec) = obs {
                fluid.attach_recorder(rec, "desim/hostping", step * STEP_NS);
            }
            let hw = NodeHw::install(&mut fluid, &format!("rank{rank}"), &NodeSpec::pcie_a100());
            // The flash cut: the node's PCIe uplink trains down.
            let uplink = hw.d2h(0).0[0].0;
            fluid
                .degrade(uplink, 0.25)
                .expect("freshly installed uplink resource");
            let probes = hostping(&mut fluid, &hw);
            let slow = bottlenecks(&probes).len();
            assert!(slow > 0, "hostping must see a 4× slower path");
            events.push(RecoveryEvent::LinkDegraded {
                step,
                rank,
                slow_paths: slow,
            });
            note(&format!("link degraded rank {rank}"), step, slow as f64);
            // Flash cuts are tolerated in-band (Table V policy): the node
            // is flagged, the link re-trains, the job keeps its world.
            fluid
                .restore(uplink)
                .expect("freshly installed uplink resource");
            fluid.flush_stats();
        }

        // --- The step's allreduce, possibly with a rank dying inside. ---
        let plan = match kills.iter().position(|&(s, _)| s == step) {
            Some(pos) => {
                let (_, rank) = kills.swap_remove(pos);
                ExecFaultPlan::kill_rank(rank % cfg.ranks, 1, DETECT_TIMEOUT)
            }
            None => ExecFaultPlan::none(),
        };
        let grads: Vec<Vec<f32>> = (0..cfg.ranks)
            .map(|r| gradient(r, step, cfg.params))
            .collect();
        let ctx = obs.map(|rec| ObsCtx::new(rec, "reduce", step * STEP_NS));
        let report = allreduce_ft(grads, cfg.chunks, &plan, &InMemProvider, ctx.as_ref());
        steps_executed += 1;

        if !report.dead.is_empty() {
            // --- Detect → requeue → resume. ---
            for &rank in &report.dead {
                events.push(RecoveryEvent::RankDied { step, rank });
                note(&format!("rank {rank} died"), step, rank as f64);
                // The node hosting the dead rank leaves the pool; the
                // scheduler rolls the task back and reschedules it onto
                // the remaining healthy nodes plus the spare pool.
                let node = platform
                    .assignment(task)
                    .and_then(|a| a.get(rank))
                    .copied()
                    .unwrap_or(rank);
                platform.fail_node(node);
            }
            events.push(RecoveryEvent::Requeued { step });
            note("requeued onto spares", step, step as f64);
            assert_eq!(
                platform.state(task),
                Some(TaskState::Running),
                "spare nodes must absorb the requeued task"
            );

            // Walk back to the newest checkpoint that passes its checksum.
            loop {
                match ckpt.latest_step()? {
                    None => {
                        params = vec![0f32; cfg.params];
                        completed = 0;
                        events.push(RecoveryEvent::ResumedFrom { step: 0 });
                        note("resumed from scratch", step, 0.0);
                        break;
                    }
                    Some(s) => match ckpt.load(s) {
                        Ok(tensors) => {
                            params = decode_params(&tensors[0].1);
                            completed = s;
                            events.push(RecoveryEvent::ResumedFrom { step: s });
                            note(&format!("resumed from ckpt {s}"), step, s as f64);
                            break;
                        }
                        Err(CkptError::Corrupt(_)) => {
                            events.push(RecoveryEvent::CheckpointCorrupt { step: s });
                            note(&format!("ckpt {s} corrupt, discarded"), step, s as f64);
                            ckpt.remove_step(s)?;
                        }
                        Err(e) => return Err(e.into()),
                    },
                }
            }
            continue;
        }

        // --- Fault-free step: apply the update. ---
        let total = report
            .outputs
            .iter()
            .flatten()
            .next()
            .expect("a clean allreduce has outputs");
        apply(&mut params, total, cfg.ranks);
        if let (Some(r), Some(t)) = (obs, job_track) {
            r.span(
                t,
                &format!("step {step}"),
                step * STEP_NS,
                STEP_NS,
                cfg.params as f64,
            );
        }
        completed += 1;
        platform.tick(1);

        // --- Checkpoint cadence (+ the silent-corruption injection). ---
        if completed.is_multiple_of(cfg.ckpt_every) && completed < cfg.steps {
            ckpt.save(completed, &[("params".to_string(), encode_params(&params))])?;
            events.push(RecoveryEvent::Checkpointed { step: completed });
            note(
                &format!("checkpointed {completed}"),
                completed,
                completed as f64,
            );
            if let Some(pos) = corrupt.iter().position(|&s| s == completed) {
                corrupt.swap_remove(pos);
                // Flip a byte of the stored chunk behind the manager's
                // back — storage-level SDC the checksum must catch.
                let path = format!("/job/step-{completed:012}.bin");
                let attr = client.meta().resolve(&path)?;
                let mut byte = client.read_at(&attr, 40, 1)?;
                byte[0] ^= 0x40;
                client.write_at(&attr, 40, &byte)?;
            }
        }
    }

    Ok(RecoveryReport {
        events,
        final_params: params,
        steps_executed,
        steps: cfg.steps,
        utilization: platform.utilization(),
        lost_work_s: platform.lost_work_s(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_has_empty_timeline() {
        let cfg = TrainerConfig::default();
        let r = train_with_recovery(&cfg, &JobFaults::none()).unwrap();
        assert_eq!(r.steps_executed, cfg.steps);
        assert_eq!(r.replayed_steps(), 0);
        assert!(r
            .events
            .iter()
            .all(|e| matches!(e, RecoveryEvent::Checkpointed { .. })));
        assert_eq!(r.lost_work_s, 0);
    }

    #[test]
    fn rank_death_resumes_from_last_checkpoint() {
        let cfg = TrainerConfig::default();
        let faults = JobFaults {
            kills: vec![(19, 2)],
            ..JobFaults::none()
        };
        let r = train_with_recovery(&cfg, &faults).unwrap();
        assert_eq!(r.deaths(), 1);
        // Kill at step 19, cadence 8 → resume from checkpoint 16,
        // replaying 19 − 16 + 1 = 4 steps (the killed one included).
        assert_eq!(r.resume_points(), vec![16]);
        assert_eq!(r.replayed_steps(), 4);
        let clean = train_with_recovery(&cfg, &JobFaults::none()).unwrap();
        assert_eq!(r.final_params, clean.final_params);
    }

    #[test]
    fn death_before_first_checkpoint_restarts_from_zero() {
        let cfg = TrainerConfig {
            steps: 12,
            ckpt_every: 8,
            ..TrainerConfig::default()
        };
        let faults = JobFaults {
            kills: vec![(3, 0)],
            ..JobFaults::none()
        };
        let r = train_with_recovery(&cfg, &faults).unwrap();
        assert_eq!(r.resume_points(), vec![0]);
        let clean = train_with_recovery(&cfg, &JobFaults::none()).unwrap();
        assert_eq!(r.final_params, clean.final_params);
    }

    #[test]
    fn degraded_link_is_detected_but_tolerated() {
        let cfg = TrainerConfig::default();
        let faults = JobFaults {
            degrades: vec![(5, 1)],
            ..JobFaults::none()
        };
        let r = train_with_recovery(&cfg, &faults).unwrap();
        let slow = r
            .events
            .iter()
            .find_map(|e| match e {
                RecoveryEvent::LinkDegraded { slow_paths, .. } => Some(*slow_paths),
                _ => None,
            })
            .expect("degradation detected");
        assert!(slow >= 1);
        assert_eq!(r.replayed_steps(), 0, "flash cuts cost no work");
        let clean = train_with_recovery(&cfg, &JobFaults::none()).unwrap();
        assert_eq!(r.final_params, clean.final_params);
    }

    #[test]
    fn decoded_params_keep_every_bit() {
        // 1.0, -0.0, the smallest subnormal, a quiet NaN with a payload and a
        // signalling one, then two stray bytes that are not a whole f32.
        let bits = [
            0x3f80_0000,
            0x8000_0000,
            0x0000_0001,
            0x7fc0_1234,
            0xff80_0001u32,
        ];
        let mut bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        bytes.extend([0xab, 0xcd]);
        let decoded: Vec<u32> = decode_params(&bytes).iter().map(|x| x.to_bits()).collect();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn fault_plan_projection_respects_policy() {
        use ff_failures::generator::FailureEvent;
        use ff_failures::FailureKind;
        use ff_failures::Xid;
        let cfg = TrainerConfig::default();
        let events = vec![
            FailureEvent {
                at_s: 2.0,
                node: 9,
                kind: FailureKind::GpuXid(Xid(79)), // fallen off the bus
            },
            FailureEvent {
                at_s: 10.0,
                node: 1,
                kind: FailureKind::GpuXid(Xid(74)), // NVLink: tolerated
            },
            FailureEvent {
                at_s: 17.0,
                node: 3,
                kind: FailureKind::NetworkFlashCut,
            },
            FailureEvent {
                at_s: 20.0,
                node: 2,
                kind: FailureKind::GpuXid(Xid(95)), // uncontained ECC
            },
        ];
        let plan = FaultPlan::from_events(&events, cfg.ranks);
        let jf = JobFaults::from_plan(&plan, 1.0, &cfg);
        assert_eq!(jf.kills, vec![(2, 9 % cfg.ranks)]);
        assert_eq!(jf.degrades, vec![(17, 3)]);
        // Corruption at step 20 lands on the preceding checkpoint (16).
        assert_eq!(jf.corrupt_ckpts, vec![16]);
    }
}
