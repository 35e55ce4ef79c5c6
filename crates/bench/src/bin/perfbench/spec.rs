//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `--list` prints this, a test
//! holds it equal to `BENCHMARK.json`, and `compare` takes its bounds
//! from here.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the base's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hfreduce_large",
        why: "4 MiB x 4 GPU HFReduce, f32 and bf16 alternating, on a persistent 4-rank TCP world: bandwidth-bound, kernels and dtype codec do the work",
    },
    Workload {
        name: "allreduce_small",
        why: "1 KiB dbtree allreduce on the same kind of world over TCP and over InMem: per-message cost dominates, kernels idle; the latency side of the collective layer",
    },
    Workload {
        name: "sim_fig7a",
        why: "hfreduce_steady at 10,000 GPUs plus a seeded FluidSim schedule mix: pure simulator, bypasses executable collectives, scheduler and storage",
    },
    Workload {
        name: "platform_replay",
        why: "1,250-node fluid Platform with faults, serving, detector and gray plan in 60 s ticks, beside a training-only twin: the scheduler does most of the work",
    },
    Workload {
        name: "fs3_rw",
        why: "256 KiB chunk reads (90%) and overwrites (10%) through Fs3Client on 16 CRAQ chains: storage data path with writes beside reads",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Every workload reports every one of these. The bounds are the widest
/// a bound may be: on the 2-core reference sandbox the same binary on the
/// same seed moves 7 to 20 % between runs a few minutes apart (pure-CPU
/// `sim_fig7a` included), `hfreduce_large`'s peak RSS moves 14 % with
/// when its rank threads free their buffers, and a bound below the
/// spread would flag noise.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("alt_p50_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// A traced run reports every one of these; a layer the workload does
/// not reach reports 0.
pub const PER_LAYER: &[Metric] = &[
    hi("dtypes.bf16_widen_gelems_per_s", "Gelem/s"),
    hi("dtypes.bf16_narrow_gelems_per_s", "Gelem/s"),
    hi("reduce.kernels.add_f32_gbps", "GB/s"),
    hi("reduce.kernels.add_bf16_gbps", "GB/s"),
    hi("reduce.kernels.reduce_n4_f32_gbps", "GB/s"),
    hi("reduce.kernels.reduce_n4_bf16_gbps", "GB/s"),
    lo("reduce.fabric.tcp_latency_us", "us"),
    hi("reduce.fabric.tcp_bw_gbps", "GB/s"),
    lo("reduce.fabric.inmem_latency_us", "us"),
    hi("reduce.fabric.inmem_bw_gbps", "GB/s"),
    lo("reduce.fabric.tcp_world_setup_ms", "ms"),
    lo("reduce.fabric.msgs_per_op", "count"),
    lo("reduce.fabric.wire_bytes_per_op", "B"),
    lo("reduce.fabric.wire_amplification", "ratio"),
    lo("reduce.fabric.send_busy_share", "ratio"),
    lo("reduce.comm.f32_op_p50_us", "us"),
    lo("reduce.comm.bf16_op_p50_us", "us"),
    lo("reduce.comm.op_p90_us", "us"),
    lo("reduce.comm.op_p99_us", "us"),
    lo("reduce.comm.rank_skew_p50_us", "us"),
    lo("reduce.comm.inmem_op_p50_us", "us"),
    lo("reduce.comm.tcp_over_inmem", "ratio"),
    hi("reduce.comm.kernel_floor_share", "ratio"),
    lo("reduce.comm.codec_floor_share", "ratio"),
    lo("reduce.comm.rest_share", "ratio"),
    lo("reduce.comm.obs_attached_op_p50_us", "us"),
    hi("reduce.comm.algbw_gbps", "GB/s"),
    lo("reduce.exec.oneshot_op_ms", "ms"),
    lo("reduce.exec.oneshot_overhead_ms", "ms"),
    hi("reduce.model.loopback_predicted_gbps", "GB/s"),
    hi("reduce.model.loopback_ratio", "ratio"),
    hi("reduce.model.fig7a_algbw_gbps", "GB/s"),
    lo("reduce.model.hfreduce_time_c3_s", "s"),
    lo("reduce.model.hfreduce_time_c6_s", "s"),
    lo("reduce.cluster.build_s", "s"),
    lo("reduce.cluster.net_route_us", "us"),
    lo("topo.fattree_build_s", "s"),
    lo("topo.route_us", "us"),
    lo("desim.events", "count"),
    lo("desim.recomputes", "count"),
    lo("desim.components", "count"),
    lo("desim.flow_solves", "count"),
    lo("desim.fill_rounds", "count"),
    hi("desim.parallel_batches", "count"),
    lo("desim.us_per_event", "us"),
    hi("desim.threads", "count"),
    hi("desim.mix_events_per_s", "1/s"),
    lo("desim.start_flow_us", "us"),
    lo("desim.advance_us", "us"),
    lo("platform.build_s", "s"),
    lo("platform.submit_s", "s"),
    lo("platform.tick_p50_ms", "ms"),
    lo("platform.tick_max_ms", "ms"),
    lo("platform.declared_wall_s", "s"),
    lo("platform.fluid_share", "ratio"),
    lo("platform.serving_delta_s", "s"),
    lo("platform.detector_delta_s", "s"),
    hi("platform.utilization", "ratio"),
    lo("platform.failures", "count"),
    lo("platform.preemptions", "count"),
    lo("platform.lost_node_steps", "count"),
    hi("platform.serve_completed", "count"),
    lo("platform.serve_p99_ms", "ms"),
    lo("platform.detector_quarantines", "count"),
    lo("failures.plan_generate_ms", "ms"),
    lo("util.arrival_trace_ms", "ms"),
    lo("fs3.target.store_commit_us", "us"),
    lo("fs3.target.read_local_us", "us"),
    lo("fs3.chain.write_us", "us"),
    lo("fs3.chain.read_us", "us"),
    lo("fs3.meta.stat_us", "us"),
    lo("fs3.meta.grow_size_us", "us"),
    lo("fs3.client.self_read_us", "us"),
    lo("fs3.client.self_write_us", "us"),
    hi("fs3.client.batch_write_gibps", "GiB/s"),
    hi("fs3.client.batch_read_gibps", "GiB/s"),
    lo("fs3.bytes_stored_per_payload_byte", "ratio"),
    hi("platform.checkpoint.save_gibps", "GiB/s"),
    hi("platform.checkpoint.load_gibps", "GiB/s"),
    lo("obs.trace_overhead_pct", "%"),
    lo("obs.platform_recorder_delta_s", "s"),
    lo("obs.recorder_events", "count"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}
