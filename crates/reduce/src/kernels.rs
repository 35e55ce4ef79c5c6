//! CPU reduction kernels (§IV-D1: "Intra-Node Reduction: CPU utilizes SIMD
//! instructions and supports FP32 / FP16 / BF16 / FP8 datatypes").
//!
//! Kernels are generic over [`Element`] and accumulate in `f32` — the
//! narrow types are widened once per input, summed in single precision,
//! and narrowed once on the store, matching what the AVX implementation
//! does with hardware convert instructions. Loops are written over fixed
//! blocks so LLVM auto-vectorizes them.

use ff_dtypes::Element;

/// Block size for the unrolled inner loops.
const BLOCK: usize = 64;

/// `dst[i] += src[i]` with f32 accumulation. Slices must be equal length.
pub fn reduce_add_into<E: Element>(dst: &mut [E], src: &[E]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    let mut d = dst.chunks_exact_mut(BLOCK);
    let mut s = src.chunks_exact(BLOCK);
    for (db, sb) in d.by_ref().zip(s.by_ref()) {
        for i in 0..BLOCK {
            db[i] = E::from_f32(db[i].to_f32() + sb[i].to_f32());
        }
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = E::from_f32(x.to_f32() + y.to_f32());
    }
}

/// Reduce `srcs` element-wise into `dst` (overwriting it), accumulating the
/// whole fan-in in `f32` before a single narrowing store — the multi-input
/// form HFReduce uses for the 8-GPU intra-node reduce. All slices must have
/// `dst`'s length; an empty `srcs` zeroes `dst`.
pub fn reduce_n_into<E: Element>(dst: &mut [E], srcs: &[&[E]]) {
    for s in srcs {
        assert_eq!(s.len(), dst.len(), "length mismatch");
    }
    for (i, d) in dst.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for s in srcs {
            acc += s[i].to_f32();
        }
        *d = E::from_f32(acc);
    }
}

/// [`reduce_n_into`] with the first input doubling as the destination:
/// `dst[i]` becomes the sum of `dst[i]` and every `rest[·][i]`, bit for bit
/// what `reduce_n_into(out, &[dst, rest…])` stores (same `f32` accumulation
/// order, from the same `0.0` — which is what turns a lone `-0.0` into
/// `+0.0` there), without the extra buffer. Written over blocks like
/// [`reduce_add_into`] so the fan-in vectorizes.
pub fn reduce_n_in_place<E: Element>(dst: &mut [E], rest: &[&[E]]) {
    for s in rest {
        assert_eq!(s.len(), dst.len(), "length mismatch");
    }
    for (b, db) in dst.chunks_mut(BLOCK).enumerate() {
        let mut acc = [0.0f32; BLOCK];
        let srcs = std::iter::once(&*db).chain(rest.iter().map(|s| &s[b * BLOCK..]));
        for s in srcs {
            for (a, x) in acc.iter_mut().zip(s) {
                *a += x.to_f32();
            }
        }
        for (d, a) in db.iter_mut().zip(acc) {
            *d = E::from_f32(a);
        }
    }
}

/// Split `len` elements into `chunks` contiguous ranges as evenly as
/// possible (the pipelining split of Algorithm 1). Every element is covered
/// exactly once; empty ranges occur only when `chunks > len`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunks >= 1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut at = 0;
    for c in 0..chunks {
        let sz = base + usize::from(c < extra);
        out.push(at..at + sz);
        at += sz;
    }
    debug_assert_eq!(at, len);
    out
}

/// Serial reference: the exact element-wise f32 sum of all inputs,
/// narrowed once (what any correct allreduce must produce, up to the
/// summation order of its internal tree).
pub fn reference_sum<E: Element>(inputs: &[Vec<E>]) -> Vec<E> {
    assert!(!inputs.is_empty());
    let len = inputs[0].len();
    let mut out = vec![E::ZERO; len];
    let refs: Vec<&[E]> = inputs.iter().map(|v| v.as_slice()).collect();
    reduce_n_into(&mut out, &refs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_dtypes::{Bf16, F16, F8E4M3};

    #[test]
    fn add_into_f32_exact() {
        let mut a: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..1000).map(|i| (2 * i) as f32).collect();
        reduce_add_into(&mut a, &b);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v, (3 * i) as f32);
        }
    }

    #[test]
    fn add_into_handles_non_block_multiple_lengths() {
        for len in [0usize, 1, 63, 64, 65, 127, 129] {
            let mut a = vec![1.0f32; len];
            let b = vec![2.0f32; len];
            reduce_add_into(&mut a, &b);
            assert!(a.iter().all(|&x| x == 3.0), "len {len}");
        }
    }

    #[test]
    fn add_into_f16() {
        let mut a: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let b: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        reduce_add_into(&mut a, &b);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v.to_f32(), (2 * i) as f32, "index {i}");
        }
    }

    #[test]
    fn n_way_single_rounding_beats_chained_rounding() {
        // 8 values of 0.1 in F8: chained adds round at every step; the
        // single-accumulation kernel rounds once. In f32 the sum is 0.8
        // whose nearest F8 neighbour must be returned.
        let srcs: Vec<Vec<F8E4M3>> = (0..8).map(|_| vec![F8E4M3::from_f32(0.1)]).collect();
        let refs: Vec<&[F8E4M3]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![F8E4M3::ZERO; 1];
        reduce_n_into(&mut out, &refs);
        let exact = 8.0 * F8E4M3::from_f32(0.1).to_f32();
        assert_eq!(out[0], F8E4M3::from_f32(exact));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn n_way_bf16_eight_sources() {
        let srcs: Vec<Vec<Bf16>> = (0..8)
            .map(|g| (0..50).map(|i| Bf16::from_f32((g + i) as f32)).collect())
            .collect();
        let refs: Vec<&[Bf16]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![Bf16::ZERO; 50];
        reduce_n_into(&mut out, &refs);
        for i in 0..50 {
            let want: f32 = (0..8)
                .map(|g| Bf16::from_f32((g + i) as f32).to_f32())
                .sum();
            assert_eq!(out[i], Bf16::from_f32(want), "index {i}");
        }
    }

    #[test]
    fn n_way_in_place_matches_n_way_into_bit_for_bit() {
        fn check<E: Element>(patterns: &[f32]) {
            for len in [0usize, 1, 63, 64, 65, 200] {
                let srcs: Vec<Vec<E>> = (0..4)
                    .map(|g| {
                        (0..len)
                            .map(|i| E::from_f32(patterns[(g * 7 + i) % patterns.len()]))
                            .collect()
                    })
                    .collect();
                for fan_in in 1..=srcs.len() {
                    let refs: Vec<&[E]> = srcs[..fan_in].iter().map(|v| v.as_slice()).collect();
                    let mut want = vec![E::ZERO; len];
                    reduce_n_into(&mut want, &refs);
                    let mut got = srcs[0].clone();
                    reduce_n_in_place(&mut got, &refs[1..]);
                    let bits = |v: &[E]| v.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "len {len} fan-in {fan_in}");
                }
            }
        }
        let patterns = [
            -0.0f32, 0.0, 1.5, -2.25, 0.1, 448.0, -448.0, 1e-3, 7.0, -0.0,
        ];
        check::<f32>(&patterns);
        check::<F16>(&patterns);
        check::<Bf16>(&patterns);
        check::<F8E4M3>(&patterns);
    }

    #[test]
    fn n_way_empty_sources_zeroes() {
        let mut out = vec![1.5f32; 4];
        reduce_n_into::<f32>(&mut out, &[]);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 13] {
                let rs = chunk_ranges(len, chunks);
                assert_eq!(rs.len(), chunks);
                assert_eq!(rs.first().unwrap().start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Sizes differ by at most 1.
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let mut a = vec![0.0f32; 3];
        reduce_add_into(&mut a, &[1.0, 2.0]);
    }

    #[test]
    fn reference_sum_matches_manual() {
        let inputs = vec![vec![1.0f32, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        assert_eq!(reference_sum(&inputs), vec![111.0, 222.0]);
    }
}
