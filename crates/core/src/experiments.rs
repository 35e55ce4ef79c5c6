//! Shape checks on the paper's experiment series, computed straight from
//! the models the `ff-bench` claims registry measures. Test-only: the
//! registry (`ff_bench::claims`) is the one place the series are produced.

#[cfg(test)]
mod tests {
    use ff_haiscale::ddp::{ddp_step, DdpBackend};
    use ff_haiscale::models::TrainModel;
    use ff_haiscale::moe::{moe_step, MoeConfig};
    use ff_haiscale::pipeline::{pipeline_step, PipelineConfig};
    use ff_reduce::model::{hfreduce_steady, HfReduceOptions, HfReduceVariant};
    use ff_reduce::ring::ring_analytic_bw;
    use ff_reduce::ClusterConfig;

    const MIB: f64 = 1024.0 * 1024.0;

    /// Plain HFReduce algorithm bandwidth on `gpus / 8` zone-local nodes.
    fn hfreduce_bps(gpus: usize, bytes: f64) -> f64 {
        let cfg = ClusterConfig::fire_flyer(gpus / 8);
        hfreduce_steady(&cfg, bytes, &HfReduceOptions::default()).algbw_bps
    }

    #[test]
    fn figure7a_series_shape() {
        let gpus = [16, 64, 128];
        let hf = gpus.map(|g| hfreduce_bps(g, 64.0 * MIB));
        let nccl = gpus.map(|g| ring_analytic_bw(g, 64.0 * MIB));
        for i in 0..gpus.len() {
            assert!(hf[i] > nccl[i], "{} GPUs", gpus[i]);
        }
        // NCCL declines; HFReduce roughly flat.
        assert!(nccl[2] < nccl[0]);
        assert!(hf[2] > hf[0] * 0.8);
    }

    #[test]
    fn figure7b_cross_zone_still_above_plain() {
        let cfg = ClusterConfig {
            two_zone: true,
            ..ClusterConfig::fire_flyer_nvlink(4)
        };
        let opts = HfReduceOptions {
            variant: HfReduceVariant::NvLink,
            ..Default::default()
        };
        let nvl = hfreduce_steady(&cfg, 64.0 * MIB, &opts).algbw_bps;
        let plain = hfreduce_bps(32, 64.0 * MIB);
        assert!(nvl > plain, "{nvl} vs {plain}");
    }

    #[test]
    fn training_series_monotone() {
        let (llama, pp) = (TrainModel::llama_13b(), PipelineConfig::llama_13b_paper());
        let s9a = [64, 128, 256, 512].map(|g| pipeline_step(&llama, &pp, g).total_s());
        assert!(s9a.windows(2).all(|w| w[1] < w[0]), "{s9a:?}");
        let (moe, ep) = (
            TrainModel::deepseek_moe_16b(),
            MoeConfig::deepseek_moe_16b_paper(),
        );
        let s9b = [40, 80, 320, 640].map(|g| moe_step(&moe, &ep, g).total_s());
        assert!(s9b.windows(2).all(|w| w[1] < w[0]), "{s9b:?}");
        let vgg = TrainModel::vgg16();
        let torch = ddp_step(&vgg, 32, 32, DdpBackend::TorchNccl).total_s();
        let haiscale = ddp_step(&vgg, 32, 32, DdpBackend::HaiScale).total_s();
        assert!(torch > haiscale, "{torch} vs {haiscale}");
    }
}
