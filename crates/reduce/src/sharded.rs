//! World-level drivers for allgather and reduce-scatter — the two
//! collectives FSDP/ZeRO-3 is built from (§II-B1: "FSDP performs an
//! allgather operation to assemble the complete parameters ... then
//! performs a reduce-scatter operation to synchronize gradients") — and
//! for the FSDP step itself.
//!
//! The ring code lives once, on [`Communicator::reduce_scatter`] and
//! [`Communicator::allgather`] (`Algo::Ring` is their composition); the
//! drivers here are closures over [`run_world`], so they run over any
//! [`FabricProvider`] — in-memory channels or real localhost TCP — with
//! the same typed [`CommError`] surface as every other collective.
//! [`fsdp_step`] is one rank's side of a real sharded-parameter training
//! step (allgather params → local grads → reduce-scatter → update the
//! rank's 1/n shard), proving the §II-B1 protocol end to end.

use crate::comm::Communicator;
use crate::exec::run_world;
use crate::fabric::{CommError, Fabric, FabricProvider};
use ff_dtypes::Element;

/// Ring allgather over `provider`'s fabric: rank `r` contributes
/// `shards[r]`; everyone ends with the concatenation
/// `shards[0] ++ shards[1] ++ …` (shards may differ in length, as FSDP's
/// trailing shards usually do).
pub fn run_allgather<E: Element, P: FabricProvider>(
    shards: Vec<Vec<E>>,
    provider: &P,
) -> Vec<Vec<E>> {
    run_world(provider, None, shards, |_, shard, comm| {
        comm.allgather(&shard)
            .expect("fault-free allgather must not fail")
    })
}

/// Ring reduce-scatter over `provider`'s fabric: every rank contributes a
/// full-length buffer; rank `r` ends with the *sum* of everyone's `r`-th
/// chunk (chunks from [`chunk_ranges`](crate::kernels::chunk_ranges)).
/// Returns each rank's reduced shard.
pub fn run_reduce_scatter<E: Element, P: FabricProvider>(
    inputs: Vec<Vec<E>>,
    provider: &P,
) -> Vec<Vec<E>> {
    let len = inputs.first().map_or(0, |v| v.len());
    assert!(inputs.iter().all(|v| v.len() == len), "unequal buffers");
    run_world(provider, None, inputs, |_, data, comm| {
        comm.reduce_scatter(data)
            .expect("fault-free reduce-scatter must not fail")
    })
}

/// One rank's side of a real FSDP/ZeRO-3 training step (§II-B1), with the
/// parameters sharded `1/n` per rank along
/// [`chunk_ranges`](crate::kernels::chunk_ranges):
///
/// 1. allgather the shards into full parameters;
/// 2. compute the local gradient via `grad_fn(rank, &params)`;
/// 3. reduce-scatter the gradients so this rank holds the summed gradient
///    for *its* shard (the reduce-scatter's chunk boundaries are the
///    shard boundaries);
/// 4. apply `lr` to `shard` only.
///
/// # Panics
/// If `grad_fn` returns a gradient of the wrong length, or the world's
/// shards do not follow `chunk_ranges(total_len, world)`.
pub fn fsdp_step<F: Fabric>(
    comm: &mut Communicator<F>,
    shard: &mut [f32],
    grad_fn: impl Fn(usize, &[f32]) -> Vec<f32>,
    lr: f32,
) -> Result<(), CommError> {
    let params = comm.allgather(shard)?;
    let grads = grad_fn(comm.rank(), &params);
    assert_eq!(grads.len(), params.len(), "gradient length mismatch");
    let grad_shard = comm.reduce_scatter(grads)?;
    assert_eq!(
        grad_shard.len(),
        shard.len(),
        "shards must follow chunk_ranges"
    );
    for (w, g) in shard.iter_mut().zip(&grad_shard) {
        *w -= lr * g;
    }
    Ok(())
}

/// One FSDP step over `provider`'s fabric: a single world whose rank `r`
/// runs [`fsdp_step`] on `shards[r]`. Returns the updated shards.
///
/// ```
/// use ff_reduce::{run_fsdp_step, TcpProvider};
/// // Two ranks, 3 parameters sharded 2 + 1; every rank's gradient is 1.
/// let shards = vec![vec![1.0f32, 2.0], vec![3.0]];
/// let out = run_fsdp_step(shards, |_, p| vec![1.0; p.len()], 0.5, &TcpProvider);
/// assert_eq!(out, vec![vec![0.0, 1.0], vec![2.0]]);
/// ```
pub fn run_fsdp_step<G, P>(
    shards: Vec<Vec<f32>>,
    grad_fn: G,
    lr: f32,
    provider: &P,
) -> Vec<Vec<f32>>
where
    G: Fn(usize, &[f32]) -> Vec<f32> + Sync,
    P: FabricProvider,
{
    run_world(provider, None, shards, |_, mut shard, comm| {
        fsdp_step(comm, &mut shard, &grad_fn, lr).expect("fault-free FSDP step must not fail");
        shard
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{InMemProvider, TcpProvider};
    use crate::kernels::{chunk_ranges, reference_sum};

    fn int_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| (0..len).map(|i| ((r * 11 + i) % 7) as f32).collect())
            .collect()
    }

    /// Shards of `0.0, 1.0, …` laid out along `chunk_ranges(len, n)`.
    fn iota_shards(len: usize, n: usize) -> Vec<Vec<f32>> {
        chunk_ranges(len, n)
            .into_iter()
            .map(|r| r.map(|i| i as f32).collect())
            .collect()
    }

    /// A rank-dependent integer-valued gradient, so every sum is exact.
    fn int_grad(rank: usize, params: &[f32]) -> Vec<f32> {
        params
            .iter()
            .enumerate()
            .map(|(i, w)| w + ((rank + i) % 3) as f32)
            .collect()
    }

    #[test]
    fn allgather_concatenates() {
        let shards: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0, 6.0]];
        for buf in run_allgather(shards, &InMemProvider) {
            assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        }
    }

    #[test]
    fn allgather_single_rank() {
        assert_eq!(
            run_allgather(vec![vec![7.0f32]], &InMemProvider),
            vec![vec![7.0]]
        );
    }

    #[test]
    fn reduce_scatter_matches_reference_chunks() {
        // Includes the short buffers the ring used to reject: len 0, 1
        // and world − 1 leave some (or all) ranks with an empty chunk.
        let n = 4usize;
        for len in [0usize, 1, n - 1, 37] {
            let inputs = int_inputs(n, len);
            let full = reference_sum(&inputs);
            let ranges = chunk_ranges(len, n);
            let out = run_reduce_scatter(inputs, &InMemProvider);
            for (r, shard) in out.iter().enumerate() {
                assert_eq!(shard.as_slice(), &full[ranges[r].clone()], "rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_allgather_is_allreduce() {
        let inputs = int_inputs(5, 50);
        let want = reference_sum(&inputs);
        let shards = run_reduce_scatter(inputs, &InMemProvider);
        for buf in run_allgather(shards, &InMemProvider) {
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn fsdp_step_trains_a_quadratic() {
        // Minimize ½‖w − t‖² with t known; gradient = w − t, identical on
        // every rank (data parallel summing n copies ⇒ scale lr by 1/n).
        let n = 4usize;
        let dim = 10usize;
        let target: Vec<f32> = (0..dim).map(|i| i as f32 / 2.0).collect();
        let mut shards: Vec<Vec<f32>> = chunk_ranges(dim, n)
            .iter()
            .map(|r| vec![0.0; r.len()])
            .collect();
        for _ in 0..100 {
            shards = run_fsdp_step(
                shards,
                |_rank, params| params.iter().zip(&target).map(|(w, t)| w - t).collect(),
                0.1 / n as f32,
                &InMemProvider,
            );
        }
        let learned: Vec<f32> = shards.into_iter().flatten().collect();
        for (w, t) in learned.iter().zip(&target) {
            assert!((w - t).abs() < 1e-3, "{w} vs {t}");
        }
    }

    #[test]
    fn uneven_shards_follow_chunk_ranges() {
        // 7 elements over 3 ranks: shards of 3, 2, 2.
        let shards = iota_shards(7, 3);
        assert_eq!(shards[0].len(), 3);
        let out = run_allgather(shards, &InMemProvider);
        assert_eq!(out[2], (0..7).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn fsdp_step_over_tcp_is_bit_identical_to_inmem() {
        let shards = iota_shards(23, 4);
        let mem = run_fsdp_step(shards.clone(), int_grad, 0.25, &InMemProvider);
        let tcp = run_fsdp_step(shards, int_grad, 0.25, &TcpProvider);
        let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
            v.iter()
                .map(|s| s.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mem), bits(&tcp));
    }

    #[test]
    fn two_fsdp_steps_share_one_world() {
        // Both steps reuse the same ring tags on one communicator; the
        // allgather/reduce-scatter alternation keeps every undelivered
        // frame's tag unique, so the second step neither trips the
        // duplicate check nor picks up a stale frame — it matches two
        // fresh worlds exactly.
        let shards = iota_shards(19, 5);
        let want = (0..2).fold(shards.clone(), |s, _| {
            run_fsdp_step(s, int_grad, 0.5, &InMemProvider)
        });
        let got = run_world(&InMemProvider, None, shards, |_, mut shard, comm| {
            for _ in 0..2 {
                fsdp_step(comm, &mut shard, int_grad, 0.5).expect("fault-free step");
            }
            shard
        });
        assert_eq!(got, want);
    }
}
