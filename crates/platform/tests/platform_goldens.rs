//! Whole-platform goldens: one declared-mode and one fluid-mode run, each
//! pinned to a digest of everything the scheduler's books feed — the
//! recorder's canonical trace, the detector's verdict stream, every
//! task's (state, progress, checkpoint) and the bits of utilization, lost
//! work and down node-seconds. A refactor of the scheduler's internals
//! must leave both digests byte-identical; a deliberate model change
//! updates them and says why in CHANGES.md.
//!
//! The declared run covers the detector (high sensitivity, so it acts), a
//! gray plan, a fault plan (rank kill, silent corruption, tolerated Xid),
//! a serving job, operator fail/heal and `stop_serving`. The fluid run
//! covers serving beside training on 64 nodes, a storage-host kill, a
//! priority preemption and `stop_serving` while decode segments have
//! tensor-parallel flows on the network.

use ff_failures::{FailureKind, FaultAction, FaultPlan, GrayEvent, GrayFault, GrayPlan};
use ff_failures::{PlannedFault, Xid};
use ff_obs::Recorder;
use ff_platform::{DetectorConfig, JobSpec, Platform, PlatformConfig, ServingSpec, TaskId};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_util::scengen::{ArrivalConfig, ArrivalTrace};
use std::fmt::Write;

fn fault(at_s: f64, node: usize, kind: FailureKind, action: FaultAction) -> PlannedFault {
    PlannedFault {
        at_s,
        node,
        kind,
        action,
    }
}

fn trace(seed: u64, duration_s: f64, base_qps: f64) -> ArrivalTrace {
    ArrivalTrace::generate(
        seed,
        &ArrivalConfig {
            duration_s,
            base_qps,
            ..ArrivalConfig::default()
        },
    )
}

/// The digested state of a finished run, as text.
fn books(p: &Platform, rec: &Recorder, tasks: &[TaskId]) -> String {
    let mut out = rec.canonical();
    out.push_str(&p.detector_canonical());
    for &id in tasks {
        let _ = writeln!(
            out,
            "task {} {:?} {:?} {:?}",
            id.0,
            p.state(id),
            p.progress(id),
            p.checkpoint(id)
        );
    }
    let _ = writeln!(
        out,
        "util {:016x} lost {} down {}",
        p.utilization().to_bits(),
        p.lost_work_s(),
        p.down_node_seconds()
    );
    out
}

/// FNV-1a with a length fold, as 16 hex digits — the shape of the
/// recorder's own digest, over the whole [`books`] text.
fn digest(text: &str) -> String {
    let h = ff_util::fnv1a64(text.as_bytes()) ^ text.len() as u64;
    format!("{h:016x}")
}

fn declared_run() -> String {
    let rec = Recorder::new();
    let mut p = PlatformConfig::new()
        .zones([16, 16])
        .ckpt_interval(60)
        .repair_delay_s(240)
        .validation_s(30)
        .detector(DetectorConfig::with_sensitivity(0.9))
        .recorder(rec.clone())
        .build()
        .expect("declared platform builds");
    let mut tasks = Vec::new();
    for (i, (nodes, work)) in [(8, 900), (6, 1500), (12, 700), (4, 2400), (10, 1200)]
        .into_iter()
        .enumerate()
    {
        let job = JobSpec::new(format!("train{i}"), nodes, work).priority(i as i32 % 3);
        tasks.push(p.submit(job).expect("training fits"));
    }
    let sid = p
        .submit_serving(ServingSpec::new("chat", 2, 2, trace(0xD0C, 600.0, 1.0)))
        .expect("serving fits");
    p.apply_gray_plan(&GrayPlan {
        events: vec![
            GrayEvent::new(
                90.0,
                3,
                400.0,
                GrayFault::Straggler {
                    slowdown: 3.0,
                    onset_ramp_s: 20.0,
                },
            ),
            GrayEvent::new(
                200.0,
                21,
                300.0,
                GrayFault::FlappingLink {
                    period_s: 40.0,
                    duty: 0.5,
                },
            ),
        ],
    });
    p.apply_fault_plan(&FaultPlan {
        faults: vec![
            fault(
                150.0,
                5,
                FailureKind::MainMemoryEcc,
                FaultAction::KillRank { rank: 5 },
            ),
            fault(
                250.0,
                1,
                FailureKind::GpuXid(Xid(48)),
                FaultAction::CorruptData { rank: 1 },
            ),
            fault(
                275.0,
                2,
                FailureKind::MainMemoryEcc,
                FaultAction::KillRank { rank: 2 },
            ),
            fault(
                260.0,
                10,
                FailureKind::GpuXid(Xid(74)),
                FaultAction::Tolerate { rank: 10 },
            ),
            fault(
                420.0,
                18,
                FailureKind::MainMemoryEcc,
                FaultAction::KillRank { rank: 18 },
            ),
        ],
    });
    p.tick(300);
    let serving_node = p.serving_assignment(sid, 0).expect("replica 0")[0];
    p.fail_node(serving_node);
    p.fail_node(12);
    p.tick(120);
    tasks.push(
        p.submit(JobSpec::new("urgent", 14, 300).priority(9))
            .expect("urgent fits"),
    );
    p.tick(180);
    p.heal_node(12);
    p.heal_node(serving_node);
    p.tick(300);
    assert!(p.stop_serving(sid));
    p.tick(200);
    let mut out = books(&p, &rec, &tasks);
    let _ = writeln!(out, "{:?}", p.serving_report(sid));
    out
}

fn fluid_run() -> String {
    let rec = Recorder::new();
    let mut p = PlatformConfig::new()
        .cluster(ClusterModel::build(&ClusterConfig::fire_flyer(64)))
        .ckpt_interval(20)
        .repair_delay_s(60)
        .recorder(rec.clone())
        .build()
        .expect("fluid platform builds");
    let mut tasks = Vec::new();
    for (i, nodes) in [16, 12, 20, 8].into_iter().enumerate() {
        let job = JobSpec::new(format!("train{i}"), nodes, 4000)
            .priority(i as i32 % 2)
            .step_bytes(2.0 * (1u64 << 30) as f64)
            .ckpt_bytes(4.0 * (1u64 << 30) as f64);
        tasks.push(p.submit(job).expect("training fits"));
    }
    let spec = ServingSpec::new("chat", 2, 2, trace(0xF1D, 60.0, 4.0))
        .tp_bytes_per_token(64.0 * (1u64 << 20) as f64);
    let sid = p.submit_serving(spec).expect("serving fits");
    p.apply_fault_plan(&FaultPlan {
        faults: vec![
            fault(
                4.0,
                0,
                FailureKind::StorageTargetFailure,
                FaultAction::KillStorageTarget { target: 1 },
            ),
            fault(
                9.0,
                14,
                FailureKind::MainMemoryEcc,
                FaultAction::KillRank { rank: 14 },
            ),
        ],
    });
    p.tick(6);
    tasks.push(
        p.submit(
            JobSpec::new("urgent", 24, 40)
                .priority(5)
                .step_bytes((1u64 << 30) as f64),
        )
        .expect("urgent fits"),
    );
    p.run_for(ff_desim::SimDuration::from_millis(2_500));
    let serving_node = p.serving_assignment(sid, 1).expect("replica 1")[1];
    p.fail_node(serving_node);
    p.run_for(ff_desim::SimDuration::from_millis(4_821));
    p.heal_node(serving_node);
    assert!(p.stop_serving(sid));
    p.tick(10);
    let mut out = books(&p, &rec, &tasks);
    let _ = writeln!(out, "{:?}", p.serving_report(sid));
    out
}

const DECLARED_GOLDEN: &str = "d69f79dd9aedb6f7";
const FLUID_GOLDEN: &str = "c5fa28b9b8e0aeeb";

#[test]
fn declared_platform_golden() {
    let text = declared_run();
    for event in [
        "detector-quarantine",
        "ckpt-poisoned",
        "tolerated",
        "serve-replica-down",
        "interrupt-signal",
        "serve-stop",
    ] {
        assert!(text.contains(event), "the run never reached {event}");
    }
    assert_eq!(digest(&text), DECLARED_GOLDEN, "declared run moved");
}

#[test]
fn fluid_platform_golden() {
    let text = fluid_run();
    for event in [
        "storage-host-fail",
        "interrupt-complete",
        "serve-replica-down",
        "node-rejoin",
        "serve-stop",
    ] {
        assert!(text.contains(event), "the run never reached {event}");
    }
    assert_eq!(digest(&text), FLUID_GOLDEN, "fluid run moved");
}
