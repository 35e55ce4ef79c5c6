//! The paper's claims, checked against this reproduction: every light row
//! of the `ff_bench::claims` registry, section by section, held to its
//! band. The heavy rows (Figure 7a at 720 GPUs and up, the 18-node
//! storage run, the zone-scale ablations, the §VI-C replay) are checked
//! in release by `scale_smoke`.

use ff_bench::claims::{Claim, CLAIMS};
use fireflyer::reduce::model::HfReduceOptions;
use fireflyer::reduce::ClusterConfig;

const MIB: f64 = 1024.0 * 1024.0;

/// Measures every light row of `section`, holds it to its band, and
/// returns the measured values by id.
fn check(section: &str) -> Vec<(&'static str, f64)> {
    let rows: Vec<&Claim> = CLAIMS
        .iter()
        .filter(|c| c.section() == section && !c.heavy)
        .collect();
    assert!(!rows.is_empty(), "section {section} has no light rows");
    rows.into_iter()
        .map(|c| {
            let v = (c.measure)();
            assert!(
                c.holds(v),
                "{}: measured {v} outside {:?} (paper: {})",
                c.id,
                c.band,
                c.paper
            );
            (c.id, v)
        })
        .collect()
}

fn value(rows: &[(&str, f64)], id: &str) -> f64 {
    rows.iter().find(|(i, _)| *i == id).map(|r| r.1).unwrap()
}

/// Measures one registry row by id, band or not.
fn measure(id: &str) -> f64 {
    (CLAIMS.iter().find(|c| c.id == id).unwrap().measure)()
}

/// "achieved performance approximating the DGX-A100 while reducing costs
/// by half and energy consumption by 40%" (abstract): Tables I–III.
#[test]
fn headline_cost_performance_power() {
    check("table1");
    check("table2");
    check("table3");
}

/// Figure 7a: "HFReduce can reach 6.3–8.1 GB/s ... while NCCL's inter-node
/// bandwidth is only 1.6–4.8 GB/s" — and the gap *widens* with scale:
/// HFReduce beats NCCL at every light point and stays roughly flat while
/// NCCL declines.
#[test]
fn hfreduce_beats_nccl_with_widening_gap() {
    let rows = check("fig7a");
    let ratios = ["16", "128", "512"].map(|g| value(&rows, &format!("fig7a.ratio.{g}")));
    assert!(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "gap must widen with scale: {ratios:?}"
    );
    let series = |kind: &str| {
        [16, 32, 64, 128, 256, 512].map(|g| value(&rows, &format!("fig7a.{kind}.{g}")))
    };
    let (hf, nccl) = (series("hfreduce"), series("nccl"));
    assert!(
        hf.iter().zip(&nccl).all(|(h, n)| h > n),
        "{hf:?} vs {nccl:?}"
    );
    assert!(
        nccl.windows(2).all(|w| w[1] < w[0]),
        "NCCL declines: {nccl:?}"
    );
    assert!(hf[3] > hf[0] * 0.8, "HFReduce roughly flat: {hf:?}");
}

/// §IV-C: "HFReduce with NVLink achieves inter-node bandwidths exceeding
/// 10 GB/s" — Figure 7b, zone-local and cross-zone, each point above the
/// plain variant on the same placement.
#[test]
fn nvlink_variant_exceeds_10gbs() {
    let rows = check("fig7b");
    // Crossing zones costs NVLink HFReduce less than it gains: at 128 GPUs
    // the cross-zone NVLink run still beats the zone-local plain one.
    let plain = measure("fig7a.hfreduce.128");
    let nvlink = value(&rows, "fig7b.nvlink.128");
    assert!(nvlink > plain, "{nvlink} vs {plain}");
}

/// Figures 8a/8b/9a/9b: the training step times, speedups and parallel
/// efficiencies.
#[test]
fn llm_training_scaling_matches() {
    for section in ["fig8a", "fig8b", "fig9a", "fig9b"] {
        check(section);
    }
}

/// §VI-B2: storage aggregate throughput reaches most of the 9 TB/s NIC
/// ceiling (8 TB/s in production).
#[test]
fn storage_efficiency_in_the_paper_regime() {
    check("storage");
}

/// The deployment adds up: 10,000 GPUs, ~3.4 MW, 9 TB/s of
/// storage egress; and §IX's next generation sizes out as the paper says.
#[test]
fn deployment_inventory() {
    check("deployment");
    check("nextgen");
}

/// §VII-C: the failure model reproduces the characterization: Tables VI–
/// VIII and Figures 10–11, with Xid-74 below the 52.4% NVLink share
/// reported for the other architecture (§VIII-D) and Figure 10's ordering.
#[test]
fn failure_characterization_reproduced() {
    check("table6");
    check("fig11");
    let fig10 = check("fig10");
    let [gpu, network, main] = ["gpu_memory", "network", "main_memory"]
        .map(|k| value(&fig10, &format!("fig10.{k}_events")));
    assert!(
        gpu > network && network > main,
        "Figure 10 ordering: {gpu} {network} {main}"
    );

    let xid74 = CLAIMS
        .iter()
        .find(|c| c.id == "table6.xid74_share_pct")
        .unwrap();
    assert!(xid74.band.1 / 100.0 < fireflyer::failures::data::OTHER_ARCH_NVLINK_SHARE);
}

/// §VI-A/§VIII-A: each congestion mechanism pays for itself, and §VII-A's
/// month of operations loses minimal work.
#[test]
fn ablations_and_operations_hold() {
    check("ablation");
    check("ops");
}

/// `repro` prints a section's rows and rejects an unknown name with the
/// list of sections, without panicking.
#[test]
fn repro_selects_sections_and_rejects_unknown_names() {
    let repro = |arg: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .output()
            .unwrap()
    };
    let ok = repro("table1");
    assert!(ok.status.success());
    let table = String::from_utf8(ok.stdout).unwrap();
    assert_eq!(table.lines().count(), 2 + 3, "{table}");

    let bad = repro("nosuch");
    assert!(!bad.status.success());
    let err = String::from_utf8(bad.stderr).unwrap();
    assert!(err.contains("sections: table1, table2"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// The trace is an independent witness for Figure 7's bandwidth numbers:
/// attach a recorder to the cluster's fluid sim, run one HFReduce, and
/// re-derive algorithmic bandwidth purely from the recorded spans. The
/// trace-derived figure must agree with the directly-reported one.
#[test]
fn hfreduce_algbw_rederived_from_trace() {
    use fireflyer::obs::Recorder;
    use fireflyer::reduce::model::hfreduce_time;
    use fireflyer::reduce::ClusterModel;

    let bytes = 16.0 * MIB;
    let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer(16));
    let rec = Recorder::new();
    cluster.fluid.attach_recorder(&rec, "desim/cluster", 0);
    let report = hfreduce_time(&mut cluster, bytes, &HfReduceOptions::default());
    cluster.fluid.flush_stats();

    // Elapsed time from the trace: the last transfer completion. algbw is
    // gradient bytes over that, exactly the quantity the report computes
    // from the sim clock.
    let elapsed_s = rec.last_ts_ns() as f64 / 1e9;
    assert!(elapsed_s > 0.0, "trace recorded no transfers");
    let algbw_from_trace = report.data_bytes / elapsed_s;
    let rel = (algbw_from_trace - report.algbw_bps).abs() / report.algbw_bps;
    assert!(
        rel < 1e-3,
        "trace-derived algbw {algbw_from_trace:.3e} vs reported {:.3e} (rel {rel:.2e})",
        report.algbw_bps
    );

    // The busy integral (units moved through all resources) must cover at
    // least the gradient itself — the collective cannot move fewer bytes
    // than it reduces — and utilization gauges must be sane fractions.
    let snap = rec.snapshot();
    let served: f64 = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.contains("/served/"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        served >= bytes,
        "total units served {served:.3e} < gradient bytes {bytes:.3e}"
    );
    let utils: Vec<f64> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.contains("/util/"))
        .map(|(_, &v)| v)
        .collect();
    assert!(!utils.is_empty(), "no utilization gauges flushed");
    assert!(utils.iter().all(|u| (0.0..=1.0 + 1e-9).contains(u)));
    assert!(
        utils.iter().any(|&u| u > 0.05),
        "at least one resource should be meaningfully utilized"
    );
}
