//! Fabric transport bench: `BENCH_fabric.json` + `calibration.json`.
//!
//! Runs the executable dbtree allreduce and HFReduce over both fabric
//! backends — in-memory channels and real localhost TCP sockets — and
//! records each one's algorithm bandwidth, the transport-invariance
//! trace digest, the TCP loopback calibration (latency / bandwidth fit),
//! and the measured-vs-simulated HFReduce loopback comparison.
//!
//! ```text
//! fabric_bench           # measure, print the table
//! fabric_bench --write   # same, then rewrite BENCH_fabric.json + calibration.json
//! fabric_bench --check   # digest + structure gate vs the committed artifacts
//! ```
//!
//! `--check` is the CI gate: it re-proves the small-world trace digest is
//! transport-invariant and that the committed artifacts are structurally
//! sound. Wall-clock numbers are machine-dependent and are never
//! compared.

use ff_bench::fabric::{bench_json, compare_loopback, measure, trace_digest, FabricBenchConfig};
use ff_bench::{artifact_path, print_table};
use ff_reduce::{calibrate, InMemProvider, TcpProvider};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");

    if check {
        // Bounded CI gate: small worlds only, no timing comparisons.
        let cfg = FabricBenchConfig::small();
        let mem = trace_digest(&InMemProvider, &cfg);
        let tcp = trace_digest(&TcpProvider, &cfg);
        assert_eq!(
            mem, tcp,
            "in-mem and TCP fabrics must replay an identical schedule"
        );
        let bench = std::fs::read_to_string(artifact_path("BENCH_fabric.json"))
            .expect("--check requires a committed BENCH_fabric.json (run --write first)");
        for key in [
            "\"bench\": \"fabric\"",
            "\"trace_digest\"",
            "\"rows\"",
            "\"calibration\"",
            "\"hfreduce_loopback\"",
        ] {
            assert!(bench.contains(key), "BENCH_fabric.json lacks {key}");
        }
        let cal = std::fs::read_to_string(artifact_path("calibration.json"))
            .expect("--check requires a committed calibration.json (run --write first)");
        for key in ["\"backend\"", "\"latency_us\"", "\"bandwidth_gbps\""] {
            assert!(cal.contains(key), "calibration.json lacks {key}");
        }
        println!("OK: transport-invariant digest {mem}; committed artifacts well-formed");
        return;
    }

    let cfg = FabricBenchConfig::paper();
    let digest_mem = trace_digest(&InMemProvider, &cfg);
    let digest_tcp = trace_digest(&TcpProvider, &cfg);
    assert_eq!(digest_mem, digest_tcp, "transport invariance broken");

    let mut rows = measure(&InMemProvider, "inmem", &cfg);
    rows.extend(measure(&TcpProvider, "tcp", &cfg));
    let cal = calibrate(&TcpProvider, cfg.cal_rounds, cfg.cal_bytes);
    let cmp = compare_loopback(&cal, &rows, &cfg);

    print_table(
        "fabric algbw (GB/s)",
        &["backend", "collective", "bytes", "algbw"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.backend.clone(),
                    r.collective.clone(),
                    format!("{}", r.bytes),
                    format!("{:.3}", r.algbw_gbps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ntcp loopback calibration: latency {:.2} us, bandwidth {:.2} GB/s",
        cal.latency_us, cal.bandwidth_gbps
    );
    println!(
        "hfreduce loopback: measured {:.3} GB/s vs simulated {:.3} GB/s (ratio {:.2})",
        cmp.measured_gbps,
        cmp.predicted_gbps,
        cmp.ratio()
    );
    println!("transport-invariant trace digest: {digest_mem}");

    if write {
        let bench = bench_json(&digest_mem, &rows, &cal, &cmp, &cfg);
        std::fs::write(artifact_path("BENCH_fabric.json"), bench).expect("write BENCH_fabric.json");
        let mut cal_doc = cal.to_json();
        cal_doc.push('\n');
        std::fs::write(artifact_path("calibration.json"), cal_doc).expect("write calibration.json");
        println!("wrote BENCH_fabric.json + calibration.json");
    }
}
