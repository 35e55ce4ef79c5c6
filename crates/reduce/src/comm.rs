//! The redesigned collectives API: one [`Communicator`] handle per rank.
//!
//! A `Communicator<F: Fabric>` wraps one rank's [`Fabric`] endpoint and
//! provides every executable collective as a method — `allreduce` (double
//! binary tree or ring), `reduce_scatter`, `allgather`, `reduce_to_root`,
//! `broadcast`, `hfreduce`, and `all2all` — plus the plumbing they share:
//! tag matching with an out-of-order stash, element serialization,
//! peer-death bookkeeping, and the per-rank logical-clock observability
//! discipline (a staged
//! [`TrackBuf`] whose clock counts *elements moved*). The world-level
//! drivers in [`exec`](crate::exec) spawn one thread per rank, hand each
//! a `Communicator`, and commit the staged observability buffers only for
//! clean executions.
//!
//! Elements travel the wire as little-endian `f32` (4 bytes each): every
//! dtype in `ff_dtypes` widens to `f32` exactly and rounds back to itself,
//! so the encoding is lossless while keeping one frame format across all
//! precisions. Arbitrary payloads (the MoE all2all routes structured
//! tokens) implement [`Wire`] instead.

use crate::fabric::{
    CommError, Fabric, RecvAnyError, Tag, DEFAULT_RECV_TIMEOUT, PHASE_A2A, PHASE_DOWN, PHASE_RING,
    PHASE_UP,
};
use crate::kernels::{chunk_ranges, reduce_add_into, reduce_n_into};
use ff_dtypes::Element;
use ff_obs::TrackBuf;
use ff_topo::dbtree::DoubleBinaryTree;
use std::collections::HashMap;
use std::time::Duration;

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// Elementwise sum — the gradient-accumulation operator HFReduce
    /// serves (§IV).
    Sum,
}

/// Which allreduce algorithm runs under [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Chunked double-binary-tree allreduce (Algorithm 2): tree A carries
    /// the lower half of each chunk, tree B the upper half.
    DbTree {
        /// Number of pipeline chunks (clamped to `1..=len`).
        chunks: usize,
    },
    /// Ring allreduce — the NCCL-style baseline: literally
    /// [`Communicator::reduce_scatter`] then [`Communicator::allgather`].
    Ring,
}

// ---------------------------------------------------------------------------
// Wire serialization for arbitrary all2all payloads
// ---------------------------------------------------------------------------

/// Read cursor over a received frame, consumed by [`Wire::wire_read`].
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireCursor<'a> {
        WireCursor { buf, pos: 0 }
    }

    /// Take the next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Self-describing byte serialization for all2all payloads — the typed
/// messages (routed MoE tokens, index pairs) that must cross a byte
/// transport. Collective element buffers do *not* go through `Wire`; they
/// use the fixed `f32` frame format directly.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decode one value, or `None` on malformed bytes.
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self>;
}

macro_rules! wire_le_bytes {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
                let b = cur.take(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}

wire_le_bytes!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        usize::try_from(u64::wire_read(cur)?).ok()
    }
}

impl Wire for bool {
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        match cur.take(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_read(cur)?, B::wire_read(cur)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
        self.2.wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_read(cur)?, B::wire_read(cur)?, C::wire_read(cur)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).wire_write(out);
        for x in self {
            x.wire_write(out);
        }
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        let n = u32::wire_read(cur)? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::wire_read(cur)?);
        }
        Some(v)
    }
}

impl Wire for String {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).wire_write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        let n = u32::wire_read(cur)? as usize;
        String::from_utf8(cur.take(n)?.to_vec()).ok()
    }
}

// ---------------------------------------------------------------------------
// Elements on the wire
// ---------------------------------------------------------------------------

/// Bytes per element on the wire: everything travels as little-endian
/// `f32`, which every `ff_dtypes` element widens to exactly.
const ELEM_WIRE_BYTES: usize = 4;

fn encode_elems<E: Element>(data: &[E]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * ELEM_WIRE_BYTES);
    for x in data {
        out.extend_from_slice(&x.to_f32().to_le_bytes());
    }
    out
}

fn decode_elems<E: Element>(bytes: &[u8]) -> Option<Vec<E>> {
    if !bytes.len().is_multiple_of(ELEM_WIRE_BYTES) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(ELEM_WIRE_BYTES)
            .map(|c| E::from_f32(f32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect(),
    )
}

fn phase_char(phase: u8) -> char {
    match phase {
        PHASE_UP => 'u',
        PHASE_DOWN => 'd',
        PHASE_A2A => 'a',
        _ => 'g', // ring
    }
}

// ---------------------------------------------------------------------------
// The Communicator
// ---------------------------------------------------------------------------

/// One rank's handle onto the collectives: the headline API every call
/// site uses (`comm.allreduce(..)`, `comm.hfreduce(..)`,
/// `comm.all2all(..)`). Generic over the transport; the algorithms above
/// it are transport-invariant by construction, which the trace-digest
/// harness verifies bit-for-bit across backends.
pub struct Communicator<F: Fabric> {
    fab: F,
    /// Out-of-order arrivals, keyed by `(sender, tag)`.
    stash: HashMap<(usize, Tag), Vec<u8>>,
    /// Peers that delivered a hangup control frame.
    dead: Vec<bool>,
    recv_timeout: Duration,
    /// Staged observability events; the world driver commits them only
    /// for clean executions (see [`ObsCtx`](crate::exec::ObsCtx)).
    obs: Option<TrackBuf>,
}

impl<F: Fabric> Communicator<F> {
    /// Wrap a fabric endpoint with the default receive timeout.
    pub fn new(fab: F) -> Communicator<F> {
        Self::with_timeout(fab, DEFAULT_RECV_TIMEOUT)
    }

    /// Wrap a fabric endpoint with a custom receive timeout — the
    /// liveness-detection latency for all collectives run through it.
    pub fn with_timeout(fab: F, recv_timeout: Duration) -> Communicator<F> {
        let n = fab.world_size();
        Communicator {
            fab,
            stash: HashMap::new(),
            dead: vec![false; n],
            recv_timeout,
            obs: None,
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.fab.rank()
    }

    /// Ranks in the world.
    pub fn world_size(&self) -> usize {
        self.fab.world_size()
    }

    /// The underlying fabric endpoint (e.g. to ask a
    /// [`FaultyFabric`](crate::fabric::FaultyFabric) whether its injected
    /// death fired).
    pub fn fabric(&self) -> &F {
        &self.fab
    }

    /// Attach a staged observability buffer; send/recv events accumulate
    /// there until the world driver commits or discards them.
    pub fn set_obs(&mut self, buf: TrackBuf) {
        self.obs = Some(buf);
    }

    /// Detach the staged observability buffer, if any.
    pub fn take_obs(&mut self) -> Option<TrackBuf> {
        self.obs.take()
    }

    /// Record a non-communication span (e.g. HFReduce's intra-node
    /// reduce) onto the staged observability buffer.
    pub fn note(&mut self, name: &str, ticks: u64, value: f64) {
        if let Some(buf) = &mut self.obs {
            buf.op(name, ticks, value);
        }
    }

    /// Send `data` to `to` under the collective leg `(tree, chunk, phase)`.
    pub fn send_elems<E: Element>(
        &mut self,
        to: usize,
        tree: u8,
        chunk: u32,
        phase: u8,
        data: &[E],
    ) -> Result<(), CommError> {
        if let Some(buf) = &mut self.obs {
            let len = data.len() as u64;
            let name = format!("send:{}:t{tree}:c{chunk}->r{to}", phase_char(phase));
            buf.op(&name, len, len as f64);
        }
        let tag = Tag { phase, tree, chunk };
        self.fab.send(to, tag, &encode_elems(data))
    }

    /// Receive the element buffer `from` sent under `(tree, chunk, phase)`,
    /// stashing any other traffic that arrives first.
    pub fn recv_elems<E: Element>(
        &mut self,
        from: usize,
        tree: u8,
        chunk: u32,
        phase: u8,
    ) -> Result<Vec<E>, CommError> {
        let tag = Tag { phase, tree, chunk };
        let bytes = self.recv_raw(from, tag)?;
        let data = decode_elems::<E>(&bytes).ok_or(CommError::Protocol { peer: from })?;
        if let Some(buf) = &mut self.obs {
            let len = data.len() as u64;
            let name = format!("recv:{}:t{tree}:c{chunk}<-r{from}", phase_char(tag.phase));
            buf.op(&name, len, len as f64);
        }
        Ok(data)
    }

    /// Tag-matched receive over the raw fabric. The stash is consulted
    /// before the dead-peer flag: a message sent before a hangup must
    /// still be deliverable after it (per-pair FIFO guarantees data
    /// frames precede the hangup frame).
    fn recv_raw(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>, CommError> {
        if let Some(b) = self.stash.remove(&(from, tag)) {
            return Ok(b);
        }
        if self.dead[from] {
            return Err(CommError::Disconnected { peer: from });
        }
        loop {
            let msg = match self.fab.recv_any(self.recv_timeout) {
                Ok(m) => m,
                Err(RecvAnyError::Timeout) => {
                    return Err(CommError::Timeout {
                        peer: from,
                        deadline: self.recv_timeout,
                    })
                }
                Err(RecvAnyError::Closed) => return Err(CommError::Disconnected { peer: from }),
            };
            if msg.tag.is_ctrl() {
                self.dead[msg.from] = true;
                if msg.from == from {
                    return Err(CommError::Disconnected { peer: from });
                }
                continue;
            }
            if msg.from == from && msg.tag == tag {
                return Ok(msg.bytes);
            }
            // Two undelivered frames under one `(from, tag)` is something
            // no in-tree collective sends: a misbehaving peer, not a bug
            // to panic over.
            let peer = msg.from;
            if self.stash.insert((peer, msg.tag), msg.bytes).is_some() {
                return Err(CommError::Protocol { peer });
            }
        }
    }

    // -- collectives ------------------------------------------------------

    /// Allreduce `data` in place across the world: every rank ends up
    /// holding the elementwise sum.
    pub fn allreduce<E: Element>(
        &mut self,
        data: &mut [E],
        _op: Op,
        algo: Algo,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        match algo {
            Algo::DbTree { chunks } => {
                let dt = DoubleBinaryTree::new(n);
                let chunks = chunks.clamp(1, data.len().max(1));
                self.dbtree_allreduce_rank(&dt, data, chunks)
            }
            Algo::Ring => {
                let shard = self.reduce_scatter(data.to_vec())?;
                let full = self.allgather(&shard)?;
                if full.len() != data.len() {
                    return Err(CommError::Protocol {
                        peer: self.ring_prev(),
                    });
                }
                data.copy_from_slice(&full);
                Ok(())
            }
        }
    }

    /// This rank's side of the chunked double-binary-tree allreduce:
    /// reduces `data` in place to the global sum. Tree A carries the
    /// lower half of each chunk, tree B the upper half.
    fn dbtree_allreduce_rank<E: Element>(
        &mut self,
        dt: &DoubleBinaryTree,
        data: &mut [E],
        chunks: usize,
    ) -> Result<(), CommError> {
        let rank = self.rank();
        let ranges = chunk_ranges(data.len(), chunks);
        for (c, range) in ranges.iter().enumerate() {
            let mid = range.start + range.len() / 2;
            let halves = [range.start..mid, mid..range.end];
            for (ti, tree) in [&dt.a, &dt.b].into_iter().enumerate() {
                let seg = halves[ti].clone();
                let mut acc: Vec<E> = data[seg.clone()].to_vec();
                for &child in &tree.children[rank] {
                    let got = self.recv_elems(child, ti as u8, c as u32, PHASE_UP)?;
                    reduce_add_into(&mut acc, &got);
                }
                let result = match tree.parent[rank] {
                    Some(parent) => {
                        self.send_elems(parent, ti as u8, c as u32, PHASE_UP, &acc)?;
                        self.recv_elems(parent, ti as u8, c as u32, PHASE_DOWN)?
                    }
                    None => acc,
                };
                for &child in &tree.children[rank] {
                    self.send_elems(child, ti as u8, c as u32, PHASE_DOWN, &result)?;
                }
                data[seg].copy_from_slice(&result);
            }
        }
        Ok(())
    }

    fn ring_prev(&self) -> usize {
        (self.rank() + self.world_size() - 1) % self.world_size()
    }

    /// This rank's ring reduce-scatter: `data` is this rank's full-length
    /// contribution; the result is the elementwise sum of every rank's
    /// chunk `rank` of `chunk_ranges(len, world)` — the FSDP shard layout
    /// (§II-B1). Chunks may be empty (`len < world`).
    ///
    /// Ring tags carry `tree = 0` here and `tree = 1` in
    /// [`allgather`](Self::allgather). The predecessor cannot send the
    /// first frame of its *next* reduce-scatter until this rank has
    /// entered the allgather in between (and vice versa), so alternating
    /// the two — a ring allreduce, an FSDP step, or any run of them —
    /// never has two undelivered frames under one tag. (Repeating one of
    /// them back to back needs only per-pair FIFO: a ring rank hears from
    /// its predecessor alone, in the order it asks.)
    pub fn reduce_scatter<E: Element>(&mut self, mut data: Vec<E>) -> Result<Vec<E>, CommError> {
        let n = self.world_size();
        let rank = self.rank();
        let ranges = chunk_ranges(data.len(), n);
        let (next, prev) = ((rank + 1) % n, self.ring_prev());
        // Step s forwards chunk (rank − s − 1) and folds this rank's
        // contribution into chunk (rank − s − 2) arriving from upstream;
        // the last chunk to arrive is `rank`, now fully reduced.
        for s in 0..n - 1 {
            let send_chunk = (rank + n - s - 1) % n;
            let recv_chunk = (send_chunk + n - 1) % n;
            let out = &data[ranges[send_chunk].clone()];
            self.send_elems(next, 0, s as u32, PHASE_RING, out)?;
            let got: Vec<E> = self.recv_elems(prev, 0, s as u32, PHASE_RING)?;
            let seg = &mut data[ranges[recv_chunk].clone()];
            if got.len() != seg.len() {
                return Err(CommError::Protocol { peer: prev });
            }
            reduce_add_into(seg, &got);
        }
        data.truncate(ranges[rank].end);
        data.drain(..ranges[rank].start);
        Ok(data)
    }

    /// This rank's ring allgather: contributes `shard`, returns the
    /// concatenation of every rank's shard in rank order. Shards may
    /// differ in length (FSDP's trailing shards usually do) — frames are
    /// self-sized, so no length exchange is needed.
    pub fn allgather<E: Element>(&mut self, shard: &[E]) -> Result<Vec<E>, CommError> {
        let n = self.world_size();
        let rank = self.rank();
        let (next, prev) = ((rank + 1) % n, self.ring_prev());
        let mut pieces: Vec<Vec<E>> = vec![Vec::new(); n];
        pieces[rank] = shard.to_vec();
        // Step s forwards the piece that originated at rank − s.
        for s in 0..n - 1 {
            let src = (rank + n - s) % n;
            self.send_elems(next, 1, s as u32, PHASE_RING, &pieces[src])?;
            pieces[(src + n - 1) % n] = self.recv_elems(prev, 1, s as u32, PHASE_RING)?;
        }
        Ok(pieces.concat())
    }

    /// This rank's side of a single-tree (tree A) reduce with no
    /// broadcast-down pass — the "general reduce" operation HFReduce also
    /// serves (§IV). Returns `Some(sum)` on the tree root, `None`
    /// elsewhere.
    pub fn reduce_to_root<E: Element>(
        &mut self,
        mut data: Vec<E>,
        chunks: usize,
    ) -> Result<Option<Vec<E>>, CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(Some(data));
        }
        let dt = DoubleBinaryTree::new(n);
        let tree = &dt.a;
        let rank = self.rank();
        let chunks = chunks.clamp(1, data.len().max(1));
        let ranges = chunk_ranges(data.len(), chunks);
        for (c, range) in ranges.iter().enumerate() {
            let mut acc: Vec<E> = data[range.clone()].to_vec();
            for &child in &tree.children[rank] {
                let got = self.recv_elems(child, 0, c as u32, PHASE_UP)?;
                reduce_add_into(&mut acc, &got);
            }
            if let Some(parent) = tree.parent[rank] {
                self.send_elems(parent, 0, c as u32, PHASE_UP, &acc)?;
            } else {
                data[range.clone()].copy_from_slice(&acc);
            }
        }
        Ok(if tree.parent[rank].is_none() {
            Some(data)
        } else {
            None
        })
    }

    /// This rank's side of a tree-A broadcast from the root: the root's
    /// `buf` holds the payload, every other rank's `buf` is overwritten
    /// with it chunk by chunk.
    pub fn broadcast<E: Element>(&mut self, buf: &mut [E], chunks: usize) -> Result<(), CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let dt = DoubleBinaryTree::new(n);
        let rank = self.rank();
        let chunks = chunks.clamp(1, buf.len().max(1));
        let ranges = chunk_ranges(buf.len(), chunks);
        for (c, range) in ranges.iter().enumerate() {
            if let Some(parent) = dt.a.parent[rank] {
                let got = self.recv_elems(parent, 0, c as u32, PHASE_DOWN)?;
                buf[range.clone()].copy_from_slice(&got);
            }
            for &child in &dt.a.children[rank] {
                let out = buf[range.clone()].to_vec();
                self.send_elems(child, 0, c as u32, PHASE_DOWN, &out)?;
            }
        }
        Ok(())
    }

    /// This node's full HFReduce data path: reduce the GPU buffers on the
    /// "CPU" (one fused multi-input reduction), allreduce the node sum
    /// across nodes with the double binary tree, and broadcast the result
    /// back to every GPU buffer.
    pub fn hfreduce<E: Element>(
        &mut self,
        gpu_bufs: Vec<Vec<E>>,
        chunks: usize,
    ) -> Result<Vec<Vec<E>>, CommError> {
        let len = gpu_bufs
            .first()
            .map(|b| b.len())
            .expect("nodes must have at least one GPU buffer");
        assert!(gpu_bufs.iter().all(|b| b.len() == len), "unequal buffers");
        // Intra-node reduce (Algorithm 1): one widened pass.
        let mut node_sum = vec![E::ZERO; len];
        let refs: Vec<&[E]> = gpu_bufs.iter().map(|b| b.as_slice()).collect();
        reduce_n_into(&mut node_sum, &refs);
        let gpus = gpu_bufs.len();
        self.note("reduce:intra", len as u64, (len * gpus) as f64);
        // Inter-node allreduce (Algorithm 2).
        if self.world_size() > 1 {
            let dt = DoubleBinaryTree::new(self.world_size());
            let chunks = chunks.clamp(1, len.max(1));
            self.dbtree_allreduce_rank(&dt, &mut node_sum, chunks)?;
        }
        self.note("bcast:h2d", len as u64, (len * gpus) as f64);
        // H2D broadcast: every GPU buffer gets the result.
        Ok(vec![node_sum; gpus])
    }

    /// This rank's all2all: `sends[dst]` goes to rank `dst`, the result's
    /// `out[src]` is what rank `src` sent here. The self-row never touches
    /// the fabric. `seq` disambiguates successive all2alls on one
    /// communicator (e.g. MoE dispatch vs combine).
    ///
    /// Send failures toward already-dead peers are tolerated — survivors
    /// still need this rank's data — but a missing *inbound* payload is a
    /// typed [`CommError::Disconnected`] naming the dead peer.
    pub fn all2all<T: Wire>(
        &mut self,
        sends: Vec<Vec<T>>,
        seq: u32,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let n = self.world_size();
        let me = self.rank();
        assert_eq!(sends.len(), n, "all2all needs one send row per rank");
        let mut out: Vec<Option<Vec<T>>> = (0..n).map(|_| None).collect();
        for (dst, payload) in sends.into_iter().enumerate() {
            if dst == me {
                out[dst] = Some(payload);
                continue;
            }
            let mut bytes = Vec::new();
            payload.wire_write(&mut bytes);
            if let Some(buf) = &mut self.obs {
                let len = payload.len() as u64;
                let name = format!("send:a:t0:c{seq}->r{dst}");
                buf.op(&name, len, len as f64);
            }
            let tag = Tag {
                phase: PHASE_A2A,
                tree: 0,
                chunk: seq,
            };
            // A dead destination cannot abort the exchange: the survivors
            // still complete theirs. Its silence surfaces below when this
            // rank waits for the dead peer's payload.
            let _ = self.fab.send(dst, tag, &bytes);
        }
        for (src, slot) in out.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            let tag = Tag {
                phase: PHASE_A2A,
                tree: 0,
                chunk: seq,
            };
            let bytes = self.recv_raw(src, tag)?;
            let mut cur = WireCursor::new(&bytes);
            let payload = Vec::<T>::wire_read(&mut cur).ok_or(CommError::Protocol { peer: src })?;
            if !cur.is_done() {
                return Err(CommError::Protocol { peer: src });
            }
            if let Some(buf) = &mut self.obs {
                let len = payload.len() as u64;
                let name = format!("recv:a:t0:c{seq}<-r{src}");
                buf.op(&name, len, len as f64);
            }
            *slot = Some(payload);
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every peer delivered"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::InMemFabric;

    #[test]
    fn wire_roundtrips() {
        fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut b = Vec::new();
            v.wire_write(&mut b);
            let mut cur = WireCursor::new(&b);
            assert_eq!(T::wire_read(&mut cur), Some(v));
            assert!(cur.is_done());
        }
        rt(42i32);
        rt(7u32);
        rt(-9i64);
        rt(1.5f64);
        rt(usize::MAX);
        rt((3usize, 4usize));
        rt(vec![1i32, 2, 3]);
        rt(Vec::<i64>::new());
        rt((1u32, vec![2.0f32, 3.0], true));
        rt("héllo".to_string());
    }

    #[test]
    fn truncated_wire_bytes_decode_to_none() {
        let mut b = Vec::new();
        vec![1i64, 2, 3].wire_write(&mut b);
        b.truncate(b.len() - 1);
        let mut cur = WireCursor::new(&b);
        assert_eq!(Vec::<i64>::wire_read(&mut cur), None);
    }

    #[test]
    fn element_wire_format_is_exact_for_all_dtypes() {
        use ff_dtypes::{Bf16, F16, F8E4M3};
        let f16s: Vec<F16> = (0..64).map(|i| F16::from_f32(i as f32 * 0.25)).collect();
        assert_eq!(decode_elems::<F16>(&encode_elems(&f16s)), Some(f16s));
        let bf16s: Vec<Bf16> = (0..64).map(|i| Bf16::from_f32(i as f32 * 2.0)).collect();
        assert_eq!(decode_elems::<Bf16>(&encode_elems(&bf16s)), Some(bf16s));
        let f8s: Vec<F8E4M3> = (0..16).map(|i| F8E4M3::from_f32(i as f32)).collect();
        assert_eq!(decode_elems::<F8E4M3>(&encode_elems(&f8s)), Some(f8s));
        let f32s = vec![1.0f32, -2.5, 3.25e-8, f32::MAX];
        assert_eq!(decode_elems::<f32>(&encode_elems(&f32s)), Some(f32s));
    }

    #[test]
    fn duplicate_undelivered_tag_is_a_protocol_error() {
        // A raw fabric endpoint stands in for a misbehaving rank 1: the
        // same tag twice while rank 0 is waiting for something else.
        let mut world = InMemFabric::mesh(2);
        let mut rogue = world.pop().expect("two");
        let mut comm = Communicator::new(world.pop().expect("two"));
        let tag = Tag {
            phase: PHASE_UP,
            tree: 0,
            chunk: 7,
        };
        rogue.send(0, tag, &[0u8; 4]).expect("send");
        rogue.send(0, tag, &[0u8; 4]).expect("send");
        assert_eq!(
            comm.recv_elems::<f32>(1, 0, 0, PHASE_UP),
            Err(CommError::Protocol { peer: 1 })
        );
    }

    #[test]
    fn ring_frame_of_the_wrong_length_is_a_protocol_error() {
        // Rank 0 expects rank 1's half of a 4-element buffer (2 elements)
        // in the reduce-scatter; the rogue endpoint delivers 3.
        let mut world = InMemFabric::mesh(2);
        let mut rogue = world.pop().expect("two");
        let mut comm = Communicator::new(world.pop().expect("two"));
        let tag = Tag {
            phase: PHASE_RING,
            tree: 0,
            chunk: 0,
        };
        rogue.send(0, tag, &[0u8; 12]).expect("send");
        assert_eq!(
            comm.reduce_scatter(vec![1.0f32; 4]),
            Err(CommError::Protocol { peer: 1 })
        );
    }

    #[test]
    fn two_rank_allreduce_over_raw_communicators() {
        let mut world = InMemFabric::mesh(2);
        let c1 = Communicator::new(world.pop().expect("two"));
        let c0 = Communicator::new(world.pop().expect("two"));
        let h = std::thread::spawn(move || {
            let mut comm = c1;
            let mut data = vec![10.0f32, 20.0];
            comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: 1 })
                .expect("allreduce");
            data
        });
        let mut comm = c0;
        let mut data = vec![1.0f32, 2.0];
        comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: 1 })
            .expect("allreduce");
        assert_eq!(data, vec![11.0, 22.0]);
        assert_eq!(h.join().expect("rank 1"), vec![11.0, 22.0]);
    }
}
