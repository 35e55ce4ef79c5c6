//! End-to-end fault injection and recovery (§VII-A, §VII-C).
//!
//! The full loop under test: a calibrated failure plan injects a rank
//! death into the real threaded allreduce; survivors detect it as a typed
//! error (no panic), the scheduler requeues the job onto spares, and
//! training resumes from the last good 3FS checkpoint — landing on
//! parameters bit-identical to a fault-free run. A second scenario
//! corrupts the newest checkpoint too, forcing the fall-back to the
//! previous one.

use ff_failures::data::TABLE_VI_XID_COUNTS;
use ff_failures::generator::FailureEvent;
use ff_failures::plan::{action_for, FaultAction, FaultPlan};
use ff_failures::{FailureKind, Xid};
use ff_platform::recovery::{train_with_recovery, JobFaults, RecoveryEvent, TrainerConfig};
use ff_reduce::{allreduce_ft, ExecFaultPlan, InMemProvider, TcpProvider};
use ff_util::rng::ChaCha8Rng;
use std::time::Duration;

#[test]
fn killing_a_rank_mid_allreduce_resumes_from_last_checkpoint() {
    let cfg = TrainerConfig::default(); // 6 ranks, 40 steps, ckpt every 8

    // The failure stream: node 14 falls off the bus 19 s in (1 s/step).
    let events = vec![FailureEvent {
        at_s: 19.0,
        node: 14,
        kind: FailureKind::GpuXid(Xid(79)),
    }];
    let plan = FaultPlan::from_events(&events, cfg.ranks);
    assert_eq!(plan.first_kill().unwrap().at_s, 19.0);
    let faults = JobFaults::from_plan(&plan, 1.0, &cfg);
    assert_eq!(faults.kills, vec![(19, 14 % cfg.ranks)]);

    let faulty = train_with_recovery(&cfg, &faults).unwrap();
    let clean = train_with_recovery(&cfg, &JobFaults::none()).unwrap();

    // Bit-identical parameters: the whole point of checkpoint recovery.
    assert_eq!(faulty.final_params, clean.final_params);
    assert_eq!(faulty.deaths(), 1);
    // Killed at 19, cadence 8 ⇒ resume from 16, replay 4 steps.
    assert_eq!(faulty.resume_points(), vec![16]);
    assert_eq!(faulty.replayed_steps(), 4);
    // Detect → requeue → resume, in that order.
    let pos = |pred: fn(&RecoveryEvent) -> bool| {
        faulty.events.iter().position(pred).expect("event present")
    };
    let died = pos(|e| matches!(e, RecoveryEvent::RankDied { .. }));
    let requeued = pos(|e| matches!(e, RecoveryEvent::Requeued { .. }));
    let resumed = pos(|e| matches!(e, RecoveryEvent::ResumedFrom { .. }));
    assert!(
        died < requeued && requeued < resumed,
        "{died} {requeued} {resumed}"
    );
    assert!(
        faulty.lost_work_s > 0,
        "the scheduler accounted the rollback"
    );
}

#[test]
fn corrupt_checkpoint_falls_back_to_the_previous_good_one() {
    let cfg = TrainerConfig::default();
    let faults = JobFaults {
        kills: vec![(27, 1)],
        corrupt_ckpts: vec![24],
        ..JobFaults::none()
    };
    let faulty = train_with_recovery(&cfg, &faults).unwrap();
    let clean = train_with_recovery(&cfg, &JobFaults::none()).unwrap();

    // The checksum caught the silent corruption; recovery skipped the bad
    // checkpoint (24) and restored the previous good one (16).
    assert_eq!(faulty.corrupt_checkpoints(), 1);
    assert!(faulty
        .events
        .contains(&RecoveryEvent::CheckpointCorrupt { step: 24 }));
    assert_eq!(faulty.resume_points(), vec![16]);
    assert_eq!(faulty.replayed_steps(), 27 - 16 + 1);
    assert_eq!(faulty.final_params, clean.final_params);
}

#[test]
fn survivors_shrink_and_finish_without_a_panic() {
    // The collective layer alone: 6 ranks, rank 2 dies after its first
    // send. Survivors must detect, shrink, and produce the survivor-set
    // sum rather than aborting the process.
    let n = 6usize;
    let len = 64usize;
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..len).map(|i| (r * 100 + i) as f32).collect())
        .collect();
    let plan = ExecFaultPlan::kill_rank(2, 1, Duration::from_millis(250));
    let report = allreduce_ft(inputs, 4, &plan, &InMemProvider, None);
    assert_eq!(report.dead, vec![2]);
    assert_eq!(report.survivors, vec![0, 1, 3, 4, 5]);
    assert!(report.attempts >= 2, "at least one retry after the death");
    for (rank, out) in report.outputs.iter().enumerate() {
        match out {
            None => assert_eq!(rank, 2),
            Some(v) => {
                for (i, &x) in v.iter().enumerate() {
                    let expected: f32 =
                        report.survivors.iter().map(|&r| (r * 100 + i) as f32).sum();
                    assert_eq!(x, expected, "rank {rank} element {i}");
                }
            }
        }
    }
}

#[test]
fn seeded_kill_plans_reproduce_shrink_trajectories_exactly() {
    // Property: for seeded kill-rank plans, the FaultyFabric middleware
    // produces the shrink-to-survivors trajectory deterministically —
    // running the same plan twice yields identical FtReports, the dead
    // set is exactly the planned victim, and every survivor lands on the
    // survivor-set sum.
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA57);
    for _ in 0..8 {
        let n = rng.gen_range(3usize..7);
        let len = rng.gen_range(8usize..96);
        let chunks = rng.gen_range(1usize..5);
        let victim = rng.gen_range(0..n);
        let die_after = rng.gen_range(1usize..4);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..len).map(|i| ((r * 31 + i * 7) % 19) as f32).collect())
            .collect();
        let plan = ExecFaultPlan::kill_rank(victim, die_after, Duration::from_millis(250));
        let run = || allreduce_ft(inputs.clone(), chunks, &plan, &InMemProvider, None);
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan must replay the same trajectory");
        assert_eq!(a.dead, vec![victim], "n={n} victim={victim}");
        let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
        assert_eq!(a.survivors, survivors);
        for &r in &survivors {
            let out = a.outputs[r].as_ref().expect("survivor has output");
            for (i, &x) in out.iter().enumerate() {
                let want: f32 = survivors
                    .iter()
                    .map(|&s| ((s * 31 + i * 7) % 19) as f32)
                    .sum();
                assert_eq!(x, want, "rank {r} element {i}");
            }
        }
    }
}

#[test]
fn fault_trajectories_do_not_depend_on_the_transport() {
    // A dead rank's endpoint is held until its attempt is over, so over
    // TCP as in memory its death is silence, detected by timeout: one
    // seeded kill plan yields one FtReport on either fabric.
    let mut rng = ChaCha8Rng::seed_from_u64(0x7C9);
    for _ in 0..4 {
        let n = rng.gen_range(3usize..6);
        let len = rng.gen_range(8usize..64);
        let chunks = rng.gen_range(1usize..4);
        let victim = rng.gen_range(0..n);
        let die_after = rng.gen_range(1usize..4);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..len).map(|i| ((r * 13 + i * 5) % 23) as f32).collect())
            .collect();
        let plan = ExecFaultPlan::kill_rank(victim, die_after, Duration::from_millis(250));
        let inmem = allreduce_ft(inputs.clone(), chunks, &plan, &InMemProvider, None);
        let tcp = allreduce_ft(inputs, chunks, &plan, &TcpProvider, None);
        assert_eq!(inmem, tcp, "n={n} victim={victim} die_after={die_after}");
        assert_eq!(inmem.dead, vec![victim], "n={n} victim={victim}");
    }
}

#[test]
fn every_production_xid_maps_to_the_papers_policy() {
    // Table VI ↔ Table V closure: every code observed in the production
    // year classifies, and the injection policy agrees with the
    // node-action column.
    for &(code, count) in TABLE_VI_XID_COUNTS {
        let x = Xid(code);
        assert!(count > 0);
        let cat = x.category();
        assert!(cat.is_some(), "Xid {code} appears in Table VI unclassified");
        let lethal = matches!(
            action_for(FailureKind::GpuXid(x), 0),
            FaultAction::KillRank { .. } | FaultAction::CorruptData { .. }
        );
        assert_eq!(lethal, x.needs_node_action(), "Xid {code}");
    }
    // And the generator's whole output is executable as a plan.
    let plan = FaultPlan::generate(3, 64, 14.0 * 86_400.0, 25.0);
    assert!(!plan.is_empty());
    for f in &plan.faults {
        assert!(f.action.rank() < 64);
    }
}
