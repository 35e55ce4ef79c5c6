//! A Gantt view of the HFReduce chunk pipeline (Algorithm 1 + 2): one
//! node's stages for a 4-chunk allreduce between two nodes, showing the
//! overlap the pipelining buys — D2H of chunk *c+1* under way while chunk
//! *c* reduces and chunk *c−1* is on the wire.
//!
//! With `--trace <path>`, it instead runs one traced double-binary-tree
//! allreduce and one traced executable HFReduce (per-rank send/recv spans
//! on logical clocks) and writes them as Chrome trace-event JSON — open it
//! in <https://ui.perfetto.dev>.

use ff_desim::{DagSim, FluidSim, SimTime, Work};
use ff_hw::{NodeHw, NodeSpec, TransferMethod};
use ff_obs::{chrome::export_chrome_json, summary::summary_text, Recorder};
use ff_reduce::{run_allreduce, run_hfreduce, Algo, InMemProvider, ObsCtx};
use std::hint::black_box;

const LEN: usize = 1 << 14;

fn inputs(ranks: usize) -> Vec<Vec<f32>> {
    (0..ranks)
        .map(|r| (0..LEN).map(|i| ((r * 31 + i) % 17) as f32).collect())
        .collect()
}

fn write_trace(path: &str) -> std::io::Result<()> {
    let rec = Recorder::new();
    black_box(run_allreduce(
        inputs(8),
        Algo::DbTree { chunks: 4 },
        &InMemProvider,
        Some(&ObsCtx::new(&rec, "reduce/dbtree", 0)),
    ));
    let hf_base = rec.last_ts_ns();
    let bufs: Vec<Vec<Vec<f32>>> = (0..4)
        .map(|v| {
            (0..8)
                .map(|gpu| (0..LEN).map(|i| ((v * 8 + gpu + i) % 17) as f32).collect())
                .collect()
        })
        .collect();
    black_box(run_hfreduce(
        bufs,
        4,
        &InMemProvider,
        Some(&ObsCtx::new(&rec, "reduce/hfreduce", hf_base)),
    ));
    std::fs::write(path, export_chrome_json(&rec))?;
    println!("{}", summary_text(&rec));
    println!("trace digest : {}", rec.digest());
    println!("trace written: {path} (open in https://ui.perfetto.dev)");
    Ok(())
}

#[allow(clippy::needless_range_loop)] // GPU index mirrors chained per-GPU state
fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
    {
        return write_trace(path);
    }
    let mut fluid = FluidSim::new();
    let hw = NodeHw::install(&mut fluid, "node0", &NodeSpec::pcie_a100());
    // A stand-in for the NIC wire + peer (tree edge to the other node).
    let wire = fluid.add_resource("wire", 25e9);
    let mut dag = DagSim::new(fluid);

    let chunk_bytes = 16.0 * 1024.0 * 1024.0;
    let chunks = 4;
    let mut prev_d2h = [None; 8];
    let mut prev_red = None;
    let mut prev_net = None;
    let mut prev_h2d = [None; 8];
    for c in 0..chunks {
        let mut d2h_ids = Vec::new();
        for g in 0..8 {
            let deps: Vec<_> = prev_d2h[g].into_iter().collect();
            let id = dag.add_labeled(
                if g == 0 {
                    format!("chunk{c} D2H")
                } else {
                    String::new()
                },
                Work::Transfer {
                    work: chunk_bytes,
                    route: hw.d2h(g),
                },
                &deps,
            );
            prev_d2h[g] = Some(id);
            d2h_ids.push(id);
        }
        let mut deps = d2h_ids;
        deps.extend(prev_red);
        let red = dag.add_labeled(
            format!("chunk{c} CPU reduce"),
            Work::Transfer {
                work: chunk_bytes,
                route: hw.cpu_reduce(8),
            },
            &deps,
        );
        prev_red = Some(red);
        let mut deps = vec![red];
        deps.extend(prev_net);
        let mut net_route = hw.ib_send(0);
        net_route.push(wire, 1.0);
        let net = dag.add_labeled(
            format!("chunk{c} RDMA tree"),
            Work::Transfer {
                work: chunk_bytes,
                route: net_route,
            },
            &deps,
        );
        prev_net = Some(net);
        for g in 0..8 {
            let mut deps = vec![net];
            deps.extend(prev_h2d[g]);
            let id = dag.add_labeled(
                if g == 0 {
                    format!("chunk{c} H2D")
                } else {
                    String::new()
                },
                Work::Transfer {
                    work: chunk_bytes,
                    route: hw.h2d(g, TransferMethod::GdrCopy),
                },
                &deps,
            );
            prev_h2d[g] = Some(id);
        }
    }
    let makespan = dag.run();
    let timeline = dag.timeline();

    println!("HFReduce pipeline, 2 nodes × 8 GPUs, 4 chunks of 16 MiB (one node's view):\n");
    let total = makespan.as_secs_f64();
    let width = 64usize;
    let to_col = |t: SimTime| ((t.as_secs_f64() / total) * width as f64).round() as usize;
    for (label, start, finish) in &timeline {
        let s = to_col(*start).min(width);
        let f = to_col(*finish).clamp(s + 1, width);
        let bar: String = (0..width)
            .map(|i| if (s..f).contains(&i) { '#' } else { ' ' })
            .collect();
        println!("{label:>18} |{bar}|");
    }
    println!(
        "\nmakespan {:.3} ms — stage k of chunk c overlaps stage k−1 of chunk c+1 (Algorithm 1).",
        total * 1e3
    );
    Ok(())
}
