//! Randomized property tests: the executable collectives agree with the
//! serial reference reduction for arbitrary shapes and dtypes (seeded,
//! reproducible).

use ff_dtypes::{Bf16, Element, F16};
use ff_reduce::kernels::reference_sum;
use ff_reduce::{
    run_allgather, run_allreduce, run_hfreduce, run_reduce_scatter, Algo, InMemProvider,
};
use ff_util::rng::ChaCha8Rng;

const CASES: usize = 32;

// Integer-valued entries keep every summation order exact.
fn f32_inputs(rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
    let n = rng.gen_range(1usize..10);
    let len = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-50i32..50) as f32).collect())
        .collect()
}

#[test]
fn dbtree_equals_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA801);
    for _ in 0..CASES {
        let inputs = f32_inputs(&mut rng);
        let chunks = rng.gen_range(1usize..6);
        let want = reference_sum(&inputs);
        let out = run_allreduce(inputs, Algo::DbTree { chunks }, &InMemProvider, None);
        for buf in &out {
            assert_eq!(buf, &want);
        }
    }
}

/// The ring exists once: reduce-scatter then allgather *is* the ring
/// allreduce, and both equal the serial reference — for every world size,
/// for lengths that do not divide evenly (including `len < world`, where
/// some ranks own an empty shard), in f32 and bf16.
#[test]
fn ring_is_reduce_scatter_then_allgather() {
    fn check<E: Element>(ints: &[Vec<i32>]) {
        let inputs: Vec<Vec<E>> = ints
            .iter()
            .map(|v| v.iter().map(|&x| E::from_f32(x as f32)).collect())
            .collect();
        let want = reference_sum(&inputs);
        let shards = run_reduce_scatter(inputs.clone(), &InMemProvider);
        let composed = run_allgather(shards, &InMemProvider);
        let ring = run_allreduce(inputs, Algo::Ring, &InMemProvider, None);
        assert_eq!(composed, ring);
        for buf in &ring {
            assert_eq!(buf, &want);
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xA802);
    for world in 1usize..=8 {
        for _ in 0..4 {
            let len = rng.gen_range(0usize..61);
            // Integer entries in ±7: every partial sum over 8 ranks stays
            // within bf16's exact-integer range (|x| ≤ 256).
            let ints: Vec<Vec<i32>> = (0..world)
                .map(|_| (0..len).map(|_| rng.gen_range(-7i32..8)).collect())
                .collect();
            check::<f32>(&ints);
            check::<Bf16>(&ints);
        }
    }
}

#[test]
fn hfreduce_exec_equals_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA803);
    for _ in 0..CASES {
        let nodes = rng.gen_range(1usize..5);
        let gpus = rng.gen_range(1usize..5);
        let len = rng.gen_range(1usize..100);
        let chunks = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0i32..1000);
        let inputs: Vec<Vec<Vec<f32>>> = (0..nodes)
            .map(|v| {
                (0..gpus)
                    .map(|g| {
                        (0..len)
                            .map(|i| {
                                (((seed as usize + v * 31 + g * 7 + i) % 41) as i32 - 20) as f32
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let flat: Vec<Vec<f32>> = inputs.iter().flatten().cloned().collect();
        let want = reference_sum(&flat);
        let out = run_hfreduce(inputs, chunks, &InMemProvider, None);
        for node in &out {
            for buf in node {
                assert_eq!(buf, &want);
            }
        }
    }
}

/// Narrow dtypes: the tree result must be within the accumulated
/// rounding tolerance of the wide reference (each element is rounded
/// once per tree level at worst).
#[test]
fn f16_tree_close_to_wide_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA804);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..9);
        let len = rng.gen_range(1usize..64);
        let seed = rng.gen_range(0u32..500);
        let inputs: Vec<Vec<F16>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        F16::from_f32(
                            (((seed as usize + r * 13 + i * 3) % 200) as f32 - 100.0) / 16.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let wide: Vec<f32> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i].to_f32()).sum())
            .collect();
        let out = run_allreduce(inputs, Algo::DbTree { chunks: 2 }, &InMemProvider, None);
        for (i, v) in out[0].iter().enumerate() {
            let tol = wide[i].abs().max(1.0) * 0.01 * (n as f32).log2().ceil();
            assert!(
                (v.to_f32() - wide[i]).abs() <= tol,
                "elem {i}: tree {} vs wide {}",
                v.to_f32(),
                wide[i]
            );
        }
    }
}

/// All ranks end with bit-identical buffers (consistency), regardless
/// of dtype rounding.
#[test]
fn all_ranks_agree_bf16() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA805);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..8);
        let len = rng.gen_range(1usize..64);
        let seed = rng.gen_range(0u32..100);
        let inputs: Vec<Vec<Bf16>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| Bf16::from_f32(((seed + r as u32 * 17 + i as u32) % 97) as f32 / 7.0))
                    .collect()
            })
            .collect();
        let out = run_allreduce(inputs, Algo::DbTree { chunks: 3 }, &InMemProvider, None);
        for buf in &out[1..] {
            assert_eq!(buf, &out[0]);
        }
    }
}
