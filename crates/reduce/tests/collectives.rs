//! Tests for the general reduce and broadcast collectives (§IV:
//! "HFReduce is versatile and can be applied to any scenario requiring
//! allreduce, as well as general reduce and broadcast operations").

use ff_reduce::kernels::reference_sum;
use ff_reduce::{
    run_broadcast, run_reduce_to_root, run_world, FabricProvider, InMemProvider, TcpProvider,
};

fn int_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|r| (0..len).map(|i| ((r * 13 + i * 5) % 40) as f32).collect())
        .collect()
}

#[test]
fn reduce_to_root_matches_reference() {
    for n in [1usize, 2, 3, 5, 8, 12] {
        let inputs = int_inputs(n, 333);
        let want = reference_sum(&inputs);
        let (root, sum) = run_reduce_to_root(inputs, 3, &InMemProvider);
        assert!(root < n);
        assert_eq!(sum, want, "n={n}");
    }
}

#[test]
fn reduce_root_is_the_tree_root() {
    use ff_topo::dbtree::DoubleBinaryTree;
    for n in [2usize, 4, 9] {
        let (root, _) = run_reduce_to_root(int_inputs(n, 16), 2, &InMemProvider);
        assert_eq!(root, DoubleBinaryTree::new(n).a.root);
    }
}

#[test]
fn broadcast_delivers_to_every_rank() {
    let data: Vec<f32> = (0..500).map(|i| (i % 23) as f32).collect();
    for n in [1usize, 2, 3, 7, 16] {
        let out = run_broadcast(data.clone(), n, 4, &InMemProvider);
        assert_eq!(out.len(), n);
        for (r, buf) in out.iter().enumerate() {
            assert_eq!(buf, &data, "rank {r}, n={n}");
        }
    }
}

#[test]
fn broadcast_then_reduce_roundtrip() {
    // Broadcasting x to n ranks then reducing gives n·x.
    let n = 6usize;
    let data: Vec<f32> = (0..100).map(|i| (i % 10) as f32).collect();
    let copies = run_broadcast(data.clone(), n, 2, &InMemProvider);
    let (_, sum) = run_reduce_to_root(copies, 2, &InMemProvider);
    for (i, &v) in sum.iter().enumerate() {
        assert_eq!(v, n as f32 * data[i]);
    }
}

#[test]
fn chunking_does_not_change_results() {
    let inputs = int_inputs(7, 97);
    let want = reference_sum(&inputs);
    for chunks in [1usize, 2, 5, 97] {
        let (_, sum) = run_reduce_to_root(inputs.clone(), chunks, &InMemProvider);
        assert_eq!(sum, want, "chunks={chunks}");
    }
}

#[test]
fn reduce_and_broadcast_transport_invariant() {
    // The same collectives over real TCP sockets produce byte-identical
    // results to the in-memory fabric.
    let inputs = int_inputs(4, 97);
    let (root_m, sum_m) = run_reduce_to_root(inputs.clone(), 3, &InMemProvider);
    let (root_t, sum_t) = run_reduce_to_root(inputs, 3, &TcpProvider);
    assert_eq!((root_m, sum_m), (root_t, sum_t));

    let data: Vec<f32> = (0..64).map(|i| (i % 23) as f32).collect();
    assert_eq!(
        run_broadcast(data.clone(), 5, 2, &InMemProvider),
        run_broadcast(data, 5, 2, &TcpProvider)
    );
}

#[test]
fn all2all_rows_larger_than_the_socket_buffers_match_in_memory() {
    // 4 ranks × 8 MiB rows: every rank sends all three before it receives
    // one, so over TCP the sends complete only because a stalled writer
    // reads ahead.
    fn exchange<P: FabricProvider>(p: &P) -> Vec<Vec<Vec<u64>>> {
        let row = |from: usize, to: usize| -> Vec<u64> {
            let seed = (from * 4 + to) as u64;
            (0..1u64 << 20)
                .map(|i| i.wrapping_mul(0x9E37) ^ seed)
                .collect()
        };
        run_world(p, None, vec![(); 4], |rank, (), comm| {
            let sends = (0..4).map(|to| row(rank, to)).collect();
            comm.all2all(sends, 0).expect("all2all")
        })
    }
    let tcp = exchange(&TcpProvider);
    assert!(tcp == exchange(&InMemProvider), "TCP and in-memory differ");
    assert_eq!(tcp[3][1][5], 5u64.wrapping_mul(0x9E37) ^ 7);
}
