//! §VII-A: disaster-recovery overhead — the checkpoint-cadence sweep
//! behind the 5-minute choice, the availability arithmetic of Tables
//! VI–VIII, and the recovery loop end to end under injected faults. The
//! month-long utilization and lost-work claims are `repro ops` rows.
//!
//! With `--trace <path>`, the recovery run records a full-stack trace
//! (platform, reduce, fs3, desim tracks) and writes Chrome trace-event
//! JSON to `<path>` — open it in <https://ui.perfetto.dev> — plus prints
//! the hai-monitor-style summary and the deterministic trace digest.

use ff_bench::print_table;
use ff_failures::availability::{
    cluster_mtbf_any_xid_h, cluster_mtbf_flash_cut_h, cluster_mtbf_node_action_h,
    expected_interruptions, expected_loss_fraction, per_node_mtbf_h,
};
use ff_obs::{chrome::export_chrome_json, summary::summary_text, Recorder};
use ff_platform::recovery::{
    train_with_recovery, train_with_recovery_traced, JobFaults, RecoveryEvent, TrainerConfig,
};
use fireflyer::ops::checkpoint_cadence_sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let sweep = checkpoint_cadence_sweep(&[60, 300, 1800, 3600, 14400], 10);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|&(iv, loss)| vec![format!("{} s", iv), format!("{:.4}%", loss * 100.0)])
        .collect();
    print_table(
        "Checkpoint cadence vs work lost (10 days at 50× failure rates)",
        &["interval", "lost work"],
        &rows,
    );
    println!("The 5-minute cadence keeps loss negligible while bounding checkpoint I/O (§VII-A).");

    // Availability arithmetic from the paper's raw tables.
    println!(
        "
Availability numbers derived from Tables VI–VIII:"
    );
    println!(
        "  any GPU Xid somewhere   : every {:.2} h",
        cluster_mtbf_any_xid_h()
    );
    println!(
        "  node-action GPU failure : every {:.1} h cluster-wide",
        cluster_mtbf_node_action_h()
    );
    println!(
        "  IB link flash cut       : every {:.1} h",
        cluster_mtbf_flash_cut_h()
    );
    println!(
        "  per-node MTBF           : {:.1} years",
        per_node_mtbf_h(1250) / (365.0 * 24.0)
    );
    println!(
        "  month-long 512-GPU job  : {:.2} expected interruptions, {:.5}% work lost at 5-min cadence",
        expected_interruptions(30.0, 64, 1250),
        expected_loss_fraction(30.0, 64, 1250, 300.0) * 100.0
    );

    // --- The recovery loop itself, end to end, under injected faults. ---
    // A deterministic job on the real threaded allreduce + real 3FS
    // checkpoints: a rank dies mid-collective AND the newest checkpoint is
    // silently corrupted; the loop detects both, falls back to the last
    // good checkpoint, requeues onto spares, and still lands on parameters
    // bit-identical to a fault-free run.
    println!("\nRecovery timeline (rank death at step 27 + corrupt checkpoint 24):");
    let cfg = TrainerConfig::default();
    let faults = JobFaults {
        kills: vec![(27, 1)],
        corrupt_ckpts: vec![24],
        degrades: vec![(11, 4)],
        // A storage target dies at step 13 and rejoins (validated and
        // re-synced) at step 18; checkpoint 16 lands on the degraded chain.
        storage_kills: vec![(13, 2)],
        storage_rejoins: vec![(18, 2)],
    };
    let recorder = trace_path.as_ref().map(|_| Recorder::new());
    let faulty = train_with_recovery_traced(&cfg, &faults, recorder.as_ref())?;
    for e in &faulty.events {
        let line = match e {
            RecoveryEvent::Checkpointed { step } => format!("step {step:>3}: checkpoint saved"),
            RecoveryEvent::LinkDegraded {
                step,
                rank,
                slow_paths,
            } => format!(
                "step {step:>3}: hostping found {slow_paths} slow path(s) on rank {rank} — tolerated"
            ),
            RecoveryEvent::RankDied { step, rank } => {
                format!("step {step:>3}: rank {rank} died mid-allreduce (typed CommError, no panic)")
            }
            RecoveryEvent::Requeued { step } => {
                format!("step {step:>3}: task requeued onto spare nodes")
            }
            RecoveryEvent::CheckpointCorrupt { step } => {
                format!("step {step:>3}: checkpoint {step} failed its checksum — discarded")
            }
            RecoveryEvent::ResumedFrom { step } => {
                format!("step {step:>3}: resumed from checkpoint {step}")
            }
            RecoveryEvent::StorageTargetLost { step, target } => {
                format!(
                    "step {step:>3}: storage target {target} died — chain serves degraded, \
                     writes ride through on retries"
                )
            }
            RecoveryEvent::StorageRejoined { step, target } => {
                format!(
                    "step {step:>3}: storage target {target} validated and re-synced back in"
                )
            }
        };
        println!("  {line}");
    }
    let clean = train_with_recovery(&cfg, &JobFaults::none())?;
    println!(
        "parameters after recovery: {} the fault-free run",
        if faulty.final_params == clean.final_params {
            "bit-identical to"
        } else {
            "DIVERGED from"
        }
    );
    println!(
        "work replayed: {} of {} steps ({} rollback[s])",
        faulty.replayed_steps(),
        faulty.steps,
        faulty.resume_points().len()
    );

    if let (Some(path), Some(rec)) = (trace_path, recorder) {
        std::fs::write(&path, export_chrome_json(&rec))?;
        println!("\n{}", summary_text(&rec));
        println!("trace digest : {}", rec.digest());
        println!("trace written: {path} (open in https://ui.perfetto.dev)");
    }
    Ok(())
}
