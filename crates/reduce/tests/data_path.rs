//! The collective data path, held to counts: what crosses the fabric
//! (native-width bytes, message counts) and what happens to every frame
//! buffer that comes off it (handed back exactly once; the caller's own
//! allocations returned; nothing above the pool's bound retained).

use ff_dtypes::{Bf16, Element, F8E4M3};
use ff_reduce::fabric::{
    cal_sink, CalSink, CommError, RecvAnyError, FRAME_POOL_MAX_BYTES, PHASE_A2A,
};
use ff_reduce::kernels::{chunk_ranges, reference_sum};
use ff_reduce::{
    run_world, Algo, CalibratedFabric, Communicator, Fabric, FabricProvider, InMemFabric,
    InMemProvider, Op, RawMsg, Tag, TcpProvider, Wire,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const RANKS: usize = 4;

fn int_inputs<E: Element>(count: usize, len: usize) -> Vec<Vec<E>> {
    (0..count)
        .map(|r| {
            (0..len)
                .map(|i| E::from_f32(((r * 5 + i) % 4) as f32))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Byte accounting
// ---------------------------------------------------------------------------

/// In-memory worlds with every endpoint metered into one sink.
struct Metered(CalSink);

impl FabricProvider for Metered {
    type F = CalibratedFabric<InMemFabric>;

    fn name(&self) -> &'static str {
        "inmem+meter"
    }

    fn world(&self, n: usize) -> std::io::Result<Vec<Self::F>> {
        let world = InMemProvider.world(n)?;
        Ok(world
            .into_iter()
            .map(|f| CalibratedFabric::new(f, self.0.clone()))
            .collect())
    }
}

/// `(messages, payload bytes)` one world run put on the fabric.
fn metered(
    f: impl Fn(usize, &mut Communicator<CalibratedFabric<InMemFabric>>) + Sync,
) -> (u64, u64) {
    let sink = cal_sink();
    run_world(&Metered(sink.clone()), None, vec![(); RANKS], |r, (), c| {
        f(r, c)
    });
    let stats = *sink.lock();
    (stats.sends, stats.bytes)
}

fn hfreduce_wire<E: Element>(len: usize) -> (u64, u64) {
    let bufs = int_inputs::<E>(RANKS * 2, len);
    let want = reference_sum(&bufs);
    metered(|rank, comm| {
        let out = comm
            .hfreduce(bufs[rank * 2..rank * 2 + 2].to_vec(), 4)
            .expect("hfreduce");
        assert!(out.iter().all(|b| *b == want), "rank {rank}");
    })
}

#[test]
fn hfreduce_moves_each_element_at_its_own_width() {
    // Every one of the n − 1 tree edges carries the payload up once and
    // down once; 4 chunks × 2 trees × 3 edges × 2 directions = 48 frames.
    let len = 1000; // chunks of 250, halves of 125: nothing divides evenly by accident
    let edges = 2 * (RANKS as u64 - 1);
    assert_eq!(hfreduce_wire::<f32>(len), (48, edges * len as u64 * 4));
    assert_eq!(hfreduce_wire::<Bf16>(len), (48, edges * len as u64 * 2));
    assert_eq!(hfreduce_wire::<F8E4M3>(len), (48, edges * len as u64));
}

#[test]
fn small_dbtree_allreduce_is_twelve_messages() {
    let inputs = int_inputs::<f32>(RANKS, 256);
    let want = reference_sum(&inputs);
    let wire = metered(|rank, comm| {
        let mut data = inputs[rank].clone();
        comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: 1 })
            .expect("allreduce");
        assert_eq!(data, want);
    });
    assert_eq!(wire, (12, 6144));
}

// ---------------------------------------------------------------------------
// Buffer discipline
// ---------------------------------------------------------------------------

/// What became of the data frames a world's endpoints delivered.
#[derive(Default)]
struct Ledger {
    /// Delivered and not yet handed back, by `(rank, buffer address)`.
    /// Empty frames share one dangling address, hence the count.
    held: HashMap<(usize, usize), usize>,
    delivered: u64,
    returned: u64,
    /// Sender of each delivered frame, in delivery order.
    order: Vec<(usize, usize)>,
    /// Buffers handed back that were not held: returned twice, or never
    /// delivered.
    strays: u64,
}

impl Ledger {
    fn assert_settled(&self, what: &str) {
        assert!(self.delivered > 0, "{what}: nothing crossed the fabric");
        assert_eq!(self.strays, 0, "{what}: a buffer came back twice");
        assert_eq!(self.returned, self.delivered, "{what}: frames kept");
        assert!(self.held.is_empty(), "{what}: {:?} still held", self.held);
    }
}

type SharedLedger = Arc<Mutex<Ledger>>;

/// Fabric middleware that books every data frame out at `recv_any` and
/// back in at `recycle`.
struct Audited<F: Fabric> {
    inner: F,
    ledger: SharedLedger,
}

impl<F: Fabric> Fabric for Audited<F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        self.inner.send(to, tag, bytes)
    }
    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        let msg = self.inner.recv_any(timeout)?;
        if !msg.tag.is_ctrl() {
            let mut l = self.ledger.lock().expect("ledger");
            *l.held
                .entry((self.rank(), msg.bytes.as_ptr() as usize))
                .or_default() += 1;
            l.delivered += 1;
            l.order.push((self.rank(), msg.from));
        }
        Ok(msg)
    }
    fn recycle(&mut self, frame: Vec<u8>) {
        {
            let mut l = self.ledger.lock().expect("ledger");
            let key = (self.rank(), frame.as_ptr() as usize);
            match l.held.get_mut(&key) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => drop(l.held.remove(&key)),
                None => l.strays += 1,
            }
            l.returned += 1;
        }
        self.inner.recycle(frame);
    }
    fn set_silent_teardown(&mut self, silent: bool) {
        self.inner.set_silent_teardown(silent);
    }
}

struct AuditedProvider<P>(P, SharedLedger);

impl<P: FabricProvider> FabricProvider for AuditedProvider<P> {
    type F = Audited<P::F>;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn world(&self, n: usize) -> std::io::Result<Vec<Self::F>> {
        Ok(self
            .0
            .world(n)?
            .into_iter()
            .map(|inner| Audited {
                inner,
                ledger: self.1.clone(),
            })
            .collect())
    }
}

/// Run `f` on every rank of an audited world of `provider`'s fabric and
/// require every delivered frame back.
fn audited<P: FabricProvider>(
    what: &str,
    provider: P,
    f: impl Fn(usize, &mut Communicator<Audited<P::F>>) + Sync,
) {
    let ledger = SharedLedger::default();
    let provider = AuditedProvider(provider, ledger.clone());
    run_world(&provider, None, vec![(); RANKS], |r, (), c| f(r, c));
    ledger.lock().expect("ledger").assert_settled(what);
}

fn every_collective_returns_its_frames<P: FabricProvider + Copy>(p: P) {
    // 203 elements: ring chunks and tree halves of unequal sizes.
    let inputs = int_inputs::<f32>(RANKS, 203);
    let sum = reference_sum(&inputs);
    let shard = |rank: usize| chunk_ranges(203, RANKS)[rank].clone();
    for algo in [Algo::DbTree { chunks: 3 }, Algo::Ring] {
        audited(&format!("allreduce {algo:?}"), p, |rank, comm| {
            // Twice: the second op runs on frames the first handed back.
            for _ in 0..2 {
                let mut data = inputs[rank].clone();
                comm.allreduce(&mut data, Op::Sum, algo).expect("allreduce");
                assert_eq!(data, sum);
            }
        });
    }
    audited("reduce_scatter", p, |rank, comm| {
        let got = comm.reduce_scatter(inputs[rank].clone());
        assert_eq!(got.expect("reduce_scatter"), sum[shard(rank)]);
    });
    audited("allgather", p, |rank, comm| {
        let got = comm.allgather(&sum[shard(rank)]);
        assert_eq!(got.expect("allgather"), sum);
    });
    audited("reduce_to_root", p, |rank, comm| {
        let got = comm.reduce_to_root(inputs[rank].clone(), 3);
        if let Some(got) = got.expect("reduce_to_root") {
            assert_eq!(got, sum);
        }
    });
    audited("broadcast", p, |rank, comm| {
        // Only the root's buffer matters; it is the one nobody overwrites.
        let mut buf = sum.clone();
        comm.broadcast(&mut buf, 3).expect("broadcast");
        assert_eq!(buf, sum, "rank {rank}");
    });
    audited("hfreduce", p, |rank, comm| {
        let bufs = vec![inputs[rank].clone(), inputs[rank].clone()];
        let out = comm.hfreduce(bufs, 3).expect("hfreduce");
        assert_eq!(out[1][0], 2.0 * sum[0]);
    });
    audited("all2all", p, |rank, comm| {
        let sends: Vec<Vec<u32>> = (0..RANKS)
            .map(|dst| vec![(rank * 10 + dst) as u32])
            .collect();
        let got = comm.all2all(sends, 0).expect("all2all");
        for (src, row) in got.iter().enumerate() {
            assert_eq!(row, &[(src * 10 + rank) as u32]);
        }
    });
}

#[test]
fn every_collective_hands_back_every_frame_in_memory() {
    every_collective_returns_its_frames(InMemProvider);
}

#[test]
fn every_collective_hands_back_every_frame_over_tcp() {
    every_collective_returns_its_frames(TcpProvider);
}

#[test]
fn a_stashed_frame_is_handed_back_too() {
    // Rank 0 asks for rank 1's all2all row first, but rank 2's is already
    // at the head of its inbox: that frame waits in the stash. Ranks 1
    // and 2 are raw endpoints driven from this thread, so the order is
    // fixed.
    let ledger = SharedLedger::default();
    let mut world = InMemFabric::mesh(3);
    let mut r2 = world.pop().expect("three");
    let mut r1 = world.pop().expect("three");
    let inner = world.pop().expect("three");
    let tag = Tag::new(PHASE_A2A, 0, 0);
    for (peer, row) in [(&mut r2, vec![22u32, 23]), (&mut r1, vec![11u32])] {
        let mut bytes = Vec::new();
        row.wire_write(&mut bytes);
        peer.send(0, tag, &bytes).expect("send");
    }
    let mut comm = Communicator::new(Audited {
        inner,
        ledger: ledger.clone(),
    });
    let got = comm.all2all(vec![vec![0u32], vec![1], vec![2]], 0);
    assert_eq!(
        got.expect("all2all"),
        vec![vec![0u32], vec![11], vec![22, 23]]
    );
    let l = ledger.lock().expect("ledger");
    assert_eq!(l.order, vec![(0, 2), (0, 1)], "rank 2's frame came first");
    l.assert_settled("all2all through the stash");
}

#[test]
fn hfreduce_returns_the_buffers_it_was_given() {
    let inputs = int_inputs::<Bf16>(RANKS * 3, 500);
    let want = reference_sum(&inputs);
    run_world(&InMemProvider, None, vec![(); RANKS], |rank, (), comm| {
        let mut bufs = inputs[rank * 3..rank * 3 + 3].to_vec();
        bufs[1].reserve(77); // capacities that tell the buffers apart
        let before: Vec<_> = bufs.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        let out = comm.hfreduce(bufs, 4).expect("hfreduce");
        let after: Vec<_> = out.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        assert_eq!(after, before, "rank {rank}");
        assert!(out.iter().all(|b| *b == want), "rank {rank}");
    });
}

#[test]
fn a_returned_frame_is_refilled_unless_it_is_above_the_pool_bound() {
    let mut world = InMemFabric::mesh(2);
    let mut f1 = world.pop().expect("two");
    let mut f0 = world.pop().expect("two");
    let tag = Tag::new(PHASE_A2A, 0, 0);
    let wait = Duration::from_secs(5);
    // A modest buffer handed to rank 0 carries rank 0's next send.
    let modest = Vec::with_capacity(4096);
    let addr = modest.as_ptr();
    f0.recycle(modest);
    f0.send(1, tag, b"ping").expect("send");
    let got = f1.recv_any(wait).expect("recv");
    assert_eq!(got.bytes, b"ping");
    assert_eq!((got.bytes.as_ptr(), got.bytes.capacity()), (addr, 4096));
    // One above the byte bound is freed on the spot (reserved address
    // space only: its pages are never touched).
    f0.recycle(Vec::with_capacity(FRAME_POOL_MAX_BYTES + 1));
    f0.send(1, tag, b"pong").expect("send");
    let got = f1.recv_any(wait).expect("recv");
    assert_eq!(got.bytes, b"pong");
    assert!(got.bytes.capacity() < 4096);
}
