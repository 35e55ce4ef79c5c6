//! The redesigned collectives API: one [`Communicator`] handle per rank.
//!
//! A `Communicator<F: Fabric>` wraps one rank's [`Fabric`] endpoint and
//! provides every executable collective as a method — `allreduce` (double
//! binary tree or ring), `reduce_scatter`, `allgather`, `reduce_to_root`,
//! `broadcast`, `hfreduce`, and `all2all` — plus the plumbing they share:
//! tag matching with an out-of-order stash, element serialization, one
//! deadline per awaited frame, and the per-rank logical-clock
//! observability discipline (a staged
//! [`TrackBuf`] whose clock counts *elements moved*). The world-level
//! drivers in [`exec`](crate::exec) spawn one thread per rank, hand each
//! a `Communicator`, and commit the staged observability buffers only for
//! clean executions.
//!
//! Elements travel the wire at their own width — the little-endian bit
//! pattern, 4/2/2/1 bytes for `f32`/`F16`/`Bf16`/`F8E4M3`
//! ([`Element::write_le`]) — which is the identity on bits and makes a
//! frame's length the element count times a constant. The data path
//! allocates nothing per message: a send encodes into one buffer the
//! communicator keeps, a received frame is folded or copied straight
//! into the caller's slice, a frame travelling down a tree is passed on
//! as the bytes it arrived in, and every consumed frame goes back to the
//! fabric ([`Fabric::recycle`]). Arbitrary payloads (the MoE all2all
//! routes structured tokens) implement [`Wire`] instead.

use crate::fabric::{
    CommError, Fabric, Tag, DEFAULT_RECV_TIMEOUT, PHASE_A2A, PHASE_DOWN, PHASE_RING, PHASE_UP,
};
use crate::kernels::{chunk_ranges, reduce_n_in_place};
use ff_dtypes::Element;
use ff_obs::TrackBuf;
use ff_topo::dbtree::{DoubleBinaryTree, Tree};
use std::collections::HashMap;
use std::time::{Duration, Instant};

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
/// travel as native-width [`Element`] bytes.
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

/// Encode `data` at native width ([`Element::write_le`] per element) into
/// the front of `wire` and return the encoding's length. `wire` only ever
/// grows, so a segment no longer than one sent before touches no allocator
/// and zeroes nothing.
fn encode_into<E: Element>(wire: &mut Vec<u8>, data: &[E]) -> usize {
    let need = data.len() * E::WIRE_BYTES;
    if wire.len() < need {
        wire.resize(need, 0);
    }
    for (x, b) in data
        .iter()
        .zip(wire[..need].chunks_exact_mut(E::WIRE_BYTES))
    {
        x.write_le(b);
    }
    need
}

/// What a received frame does to the slice it lands in.
#[derive(Clone, Copy)]
enum Land {
    /// `dst[i] += frame[i]`, accumulated in `f32` as
    /// [`reduce_add_into`](crate::kernels::reduce_add_into) does.
    Fold,
    /// `dst[i] = frame[i]`.
    Copy,
}

/// Decode `frame` straight into `dst`. `false` — and `dst` untouched —
/// unless the frame holds exactly `dst.len()` elements: the length check
/// every collective needs of bytes a peer chose is the decode's own.
#[must_use]
fn land_frame<E: Element>(dst: &mut [E], frame: &[u8], how: Land) -> bool {
    if dst.len().checked_mul(E::WIRE_BYTES) != Some(frame.len()) {
        return false;
    }
    let src = frame.chunks_exact(E::WIRE_BYTES);
    match how {
        Land::Fold => {
            for (d, b) in dst.iter_mut().zip(src) {
                *d = E::from_f32(d.to_f32() + E::read_le(b).to_f32());
            }
        }
        Land::Copy => {
            for (d, b) in dst.iter_mut().zip(src) {
                *d = E::read_le(b);
            }
        }
    }
    true
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
    /// Frames that arrived from the awaited peer ahead of the one awaited,
    /// keyed by `(sender, tag)`.
    stash: HashMap<(usize, Tag), Vec<u8>>,
    /// How long a receive waits for its frame, and a send for progress.
    recv_timeout: Duration,
    /// Staged observability events; the world driver commits them only
    /// for clean executions (see [`ObsCtx`](crate::exec::ObsCtx)).
    obs: Option<TrackBuf>,
    /// Every outbound payload is encoded here, reused from send to send.
    wire: Vec<u8>,
}

impl<F: Fabric> Communicator<F> {
    /// Wrap a fabric endpoint with the default receive timeout.
    pub fn new(fab: F) -> Communicator<F> {
        Self::with_timeout(fab, DEFAULT_RECV_TIMEOUT)
    }

    /// Wrap a fabric endpoint with a custom receive timeout — the
    /// liveness-detection latency for all collectives run through it. A
    /// send that moves no byte for as long fails the same way.
    pub fn with_timeout(fab: F, recv_timeout: Duration) -> Communicator<F> {
        Communicator {
            fab,
            stash: HashMap::new(),
            recv_timeout,
            obs: None,
            wire: Vec::new(),
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

    fn note_send(&mut self, to: usize, tag: Tag, elems: usize) {
        if let Some(buf) = &mut self.obs {
            let Tag { phase, tree, chunk } = tag;
            let name = format!("send:{}:t{tree}:c{chunk}->r{to}", phase_char(phase));
            buf.op(&name, elems as u64, elems as f64);
        }
    }

    fn note_recv(&mut self, from: usize, tag: Tag, elems: usize) {
        if let Some(buf) = &mut self.obs {
            let Tag { phase, tree, chunk } = tag;
            let name = format!("recv:{}:t{tree}:c{chunk}<-r{from}", phase_char(phase));
            buf.op(&name, elems as u64, elems as f64);
        }
    }

    /// Send `data` under `tag` to each of `to` in turn, encoded once (and
    /// not at all for nobody: a tree root has no parent to send up to).
    fn send_elems<E: Element>(
        &mut self,
        to: &[usize],
        tag: Tag,
        data: &[E],
    ) -> Result<(), CommError> {
        if to.is_empty() {
            return Ok(());
        }
        let len = encode_into(&mut self.wire, data);
        for &peer in to {
            self.note_send(peer, tag, data.len());
            self.fab
                .send(peer, tag, &self.wire[..len], self.recv_timeout)?;
        }
        Ok(())
    }

    /// Pass a received frame of `elems` elements on to each of `to`, as
    /// the bytes it arrived in.
    fn relay(
        &mut self,
        to: &[usize],
        tag: Tag,
        elems: usize,
        frame: &[u8],
    ) -> Result<(), CommError> {
        for &peer in to {
            self.note_send(peer, tag, elems);
            self.fab.send(peer, tag, frame, self.recv_timeout)?;
        }
        Ok(())
    }

    /// Receive the frame `from` sent under `tag` straight into `dst` —
    /// folded or copied, as `how` says — stashing any other frame of
    /// `from`'s that arrives first. The frame comes back still owned by
    /// the caller, to relay or [`recycle`](Fabric::recycle); one that does
    /// not hold exactly `dst.len()` elements is a [`CommError::Protocol`].
    fn recv_elems<E: Element>(
        &mut self,
        from: usize,
        tag: Tag,
        dst: &mut [E],
        how: Land,
    ) -> Result<Vec<u8>, CommError> {
        let frame = self.recv_raw(from, tag)?;
        if !land_frame(dst, &frame, how) {
            return Err(CommError::Protocol { peer: from });
        }
        self.note_recv(from, tag, dst.len());
        Ok(frame)
    }

    /// Tag-matched receive over the raw fabric: `from`'s frames arrive in
    /// the order it sent them, and any under another tag wait in the stash
    /// for the receive that names them. The stash is consulted first: a
    /// frame sent before a hangup stays deliverable after it. One deadline
    /// covers the whole wait, however many other frames arrive meanwhile.
    fn recv_raw(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>, CommError> {
        if let Some(b) = self.stash.remove(&(from, tag)) {
            return Ok(b);
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let msg = self.fab.recv(from, left).map_err(|e| match e {
                CommError::Timeout { .. } => CommError::Timeout {
                    peer: from,
                    deadline: self.recv_timeout,
                },
                e => e,
            })?;
            if msg.tag == tag {
                return Ok(msg.bytes);
            }
            // Two undelivered frames under one `(from, tag)` is something
            // no in-tree collective sends: a misbehaving peer, not a bug
            // to panic over.
            if self.stash.insert((from, msg.tag), msg.bytes).is_some() {
                return Err(CommError::Protocol { peer: from });
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
                let rank = self.rank();
                let ranges = chunk_ranges(data.len(), n);
                self.ring_reduce_scatter(data, &ranges)?;
                let frames = self.ring_allgather(&data[ranges[rank].clone()])?;
                for (k, frame) in frames.into_iter().enumerate() {
                    let origin = (rank + n - 1 - k) % n;
                    if !land_frame(&mut data[ranges[origin].clone()], &frame, Land::Copy) {
                        return Err(CommError::Protocol {
                            peer: self.ring_prev(),
                        });
                    }
                    self.fab.recycle(frame);
                }
                Ok(())
            }
        }
    }

    /// Reduce-up leg of a tree collective on one segment: fold each
    /// child's frame into `seg`, in the tree's fixed child order, and pass
    /// the partial sum to the parent. On the root `seg` is then the sum.
    fn tree_up<E: Element>(
        &mut self,
        tree: &Tree,
        tag: Tag,
        seg: &mut [E],
    ) -> Result<(), CommError> {
        let rank = self.rank();
        for &child in &tree.children[rank] {
            let frame = self.recv_elems(child, tag, seg, Land::Fold)?;
            self.fab.recycle(frame);
        }
        self.send_elems(tree.parent[rank].as_slice(), tag, seg)
    }

    /// Broadcast-down leg of a tree collective on one segment: the root
    /// sends `seg` to its children; every other rank overwrites `seg` with
    /// its parent's frame and passes that frame on untouched.
    fn tree_down<E: Element>(
        &mut self,
        tree: &Tree,
        tag: Tag,
        seg: &mut [E],
    ) -> Result<(), CommError> {
        let rank = self.rank();
        let children = &tree.children[rank];
        match tree.parent[rank] {
            Some(parent) => {
                let frame = self.recv_elems(parent, tag, seg, Land::Copy)?;
                self.relay(children, tag, seg.len(), &frame)?;
                self.fab.recycle(frame);
                Ok(())
            }
            None => self.send_elems(children, tag, seg),
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
        for (c, range) in chunk_ranges(data.len(), chunks).into_iter().enumerate() {
            let mid = range.start + range.len() / 2;
            let halves = [range.start..mid, mid..range.end];
            for (ti, (tree, half)) in [&dt.a, &dt.b].into_iter().zip(halves).enumerate() {
                let (tree_id, chunk) = (ti as u8, c as u32);
                let seg = &mut data[half];
                self.tree_up(tree, Tag::new(PHASE_UP, tree_id, chunk), seg)?;
                self.tree_down(tree, Tag::new(PHASE_DOWN, tree_id, chunk), seg)?;
            }
        }
        Ok(())
    }

    fn ring_prev(&self) -> usize {
        (self.rank() + self.world_size() - 1) % self.world_size()
    }

    fn ring_next(&self) -> usize {
        (self.rank() + 1) % self.world_size()
    }

    /// The ring reduce-scatter, in place: afterwards `data[ranges[rank]]`
    /// is the elementwise sum of every rank's chunk `rank`; the other
    /// chunks hold partial sums.
    fn ring_reduce_scatter<E: Element>(
        &mut self,
        data: &mut [E],
        ranges: &[std::ops::Range<usize>],
    ) -> Result<(), CommError> {
        let n = self.world_size();
        let rank = self.rank();
        let (next, prev) = (self.ring_next(), self.ring_prev());
        // Step s forwards chunk (rank − s − 1) and folds this rank's
        // contribution into chunk (rank − s − 2) arriving from upstream;
        // the last chunk to arrive is `rank`, now fully reduced.
        for s in 0..n - 1 {
            let send_chunk = (rank + n - s - 1) % n;
            let recv_chunk = (send_chunk + n - 1) % n;
            let tag = Tag::new(PHASE_RING, 0, s as u32);
            self.send_elems(&[next], tag, &data[ranges[send_chunk].clone()])?;
            let seg = &mut data[ranges[recv_chunk].clone()];
            let frame = self.recv_elems(prev, tag, seg, Land::Fold)?;
            self.fab.recycle(frame);
        }
        Ok(())
    }

    /// The ring allgather's schedule: step `s` forwards the piece that
    /// originated at rank `− s` — `own`, then each frame as it arrived —
    /// and receives the one from rank `− s − 1`. Returns the `n − 1`
    /// frames in arrival order, each a whole number of elements, for the
    /// caller to decode and [`recycle`](Fabric::recycle).
    fn ring_allgather<E: Element>(&mut self, own: &[E]) -> Result<Vec<Vec<u8>>, CommError> {
        let n = self.world_size();
        let (next, prev) = (self.ring_next(), self.ring_prev());
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(n - 1);
        for s in 0..n - 1 {
            let tag = Tag::new(PHASE_RING, 1, s as u32);
            match frames.last() {
                None => self.send_elems(&[next], tag, own)?,
                Some(last) => self.relay(&[next], tag, last.len() / E::WIRE_BYTES, last)?,
            }
            let frame = self.recv_raw(prev, tag)?;
            if !frame.len().is_multiple_of(E::WIRE_BYTES) {
                return Err(CommError::Protocol { peer: prev });
            }
            self.note_recv(prev, tag, frame.len() / E::WIRE_BYTES);
            frames.push(frame);
        }
        Ok(frames)
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
        let rank = self.rank();
        let ranges = chunk_ranges(data.len(), self.world_size());
        self.ring_reduce_scatter(&mut data, &ranges)?;
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
        let frames = self.ring_allgather(shard)?;
        let arrived: usize = frames.iter().map(|f| f.len() / E::WIRE_BYTES).sum();
        let mut out = Vec::with_capacity(shard.len() + arrived);
        for origin in 0..n {
            if origin == rank {
                out.extend_from_slice(shard);
            } else {
                let frame = &frames[(rank + n - 1 - origin) % n];
                out.extend(frame.chunks_exact(E::WIRE_BYTES).map(E::read_le));
            }
        }
        for frame in frames {
            self.fab.recycle(frame);
        }
        Ok(out)
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
        let chunks = chunks.clamp(1, data.len().max(1));
        for (c, range) in chunk_ranges(data.len(), chunks).into_iter().enumerate() {
            self.tree_up(&dt.a, Tag::new(PHASE_UP, 0, c as u32), &mut data[range])?;
        }
        Ok((dt.a.root == self.rank()).then_some(data))
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
        let chunks = chunks.clamp(1, buf.len().max(1));
        for (c, range) in chunk_ranges(buf.len(), chunks).into_iter().enumerate() {
            self.tree_down(&dt.a, Tag::new(PHASE_DOWN, 0, c as u32), &mut buf[range])?;
        }
        Ok(())
    }

    /// This node's full HFReduce data path: reduce the GPU buffers on the
    /// "CPU" (one fused multi-input reduction, into the first of them),
    /// allreduce the node sum across nodes with the double binary tree,
    /// and broadcast the result back to every GPU buffer. The buffers
    /// returned are the ones passed in.
    pub fn hfreduce<E: Element>(
        &mut self,
        mut gpu_bufs: Vec<Vec<E>>,
        chunks: usize,
    ) -> Result<Vec<Vec<E>>, CommError> {
        let gpus = gpu_bufs.len();
        let (node_sum, rest) = gpu_bufs
            .split_first_mut()
            .expect("nodes must have at least one GPU buffer");
        let len = node_sum.len();
        // Intra-node reduce (Algorithm 1): one widened pass.
        let refs: Vec<&[E]> = rest.iter().map(|b| b.as_slice()).collect();
        reduce_n_in_place(node_sum, &refs);
        self.note("reduce:intra", len as u64, (len * gpus) as f64);
        // Inter-node allreduce (Algorithm 2).
        if self.world_size() > 1 {
            let dt = DoubleBinaryTree::new(self.world_size());
            let chunks = chunks.clamp(1, len.max(1));
            self.dbtree_allreduce_rank(&dt, node_sum, chunks)?;
        }
        self.note("bcast:h2d", len as u64, (len * gpus) as f64);
        // H2D broadcast: every GPU buffer gets the result.
        for buf in rest {
            buf.copy_from_slice(node_sum);
        }
        Ok(gpu_bufs)
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
        let tag = Tag::new(PHASE_A2A, 0, seq);
        let mut out: Vec<Option<Vec<T>>> = (0..n).map(|_| None).collect();
        for (dst, payload) in sends.into_iter().enumerate() {
            if dst == me {
                out[dst] = Some(payload);
                continue;
            }
            self.wire.clear();
            payload.wire_write(&mut self.wire);
            self.note_send(dst, tag, payload.len());
            // A dead destination cannot abort the exchange: the survivors
            // still complete theirs. Its silence surfaces below when this
            // rank waits for the dead peer's payload.
            let _ = self.fab.send(dst, tag, &self.wire, self.recv_timeout);
        }
        for (src, slot) in out.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            let frame = self.recv_raw(src, tag)?;
            let mut cur = WireCursor::new(&frame);
            let payload = Vec::<T>::wire_read(&mut cur).ok_or(CommError::Protocol { peer: src })?;
            if !cur.is_done() {
                return Err(CommError::Protocol { peer: src });
            }
            self.fab.recycle(frame);
            self.note_recv(src, tag, payload.len());
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
    fn native_width_wire_is_the_identity_on_every_bit_pattern() {
        use crate::exec::run_broadcast;
        use crate::fabric::InMemProvider;
        use ff_dtypes::{Bf16, F16, F8E4M3};
        use ff_util::rng::ChaCha8Rng;
        // Through a real collective, compared by bits: a round trip
        // through `f32` would quiet every signalling bf16/f16 NaN.
        fn check<E: Element, B: PartialEq + std::fmt::Debug>(sent: Vec<E>, bits: fn(E) -> B) {
            let want: Vec<B> = sent.iter().map(|&x| bits(x)).collect();
            for got in run_broadcast(sent, 2, 3, &InMemProvider) {
                assert_eq!(got.into_iter().map(bits).collect::<Vec<B>>(), want);
            }
        }
        check((0..=u16::MAX).map(Bf16::from_bits).collect(), Bf16::to_bits);
        check((0..=u16::MAX).map(F16::from_bits).collect(), F16::to_bits);
        check(
            (0..=u8::MAX).map(F8E4M3::from_bits).collect(),
            F8E4M3::to_bits,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0xB175);
        let mut words: Vec<u32> = vec![
            0x0000_0000, // +0
            0x8000_0000, // −0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest subnormal, negative
            0x7f80_0000, // +∞
            0xff80_0000, // −∞
            0x7f80_0001, // signalling NaN
            0xffc0_0000, // quiet NaN, negative
            0x7fff_ffff, // NaN, full payload
        ];
        words.extend((0..4096).map(|_| rng.next_u64() as u32));
        check(
            words.into_iter().map(f32::from_bits).collect(),
            f32::to_bits,
        );
    }

    /// Rank `me` of a two-rank world as a communicator, the other rank as
    /// a raw endpoint that has already put `frames` (tag, payload length)
    /// on the wire — a peer that sends what it likes.
    fn with_rogue_peer(
        me: usize,
        frames: &[(Tag, usize)],
    ) -> (Communicator<InMemFabric>, InMemFabric) {
        let mut world = InMemFabric::mesh(2);
        let mut rogue = world.remove(1 - me);
        for &(tag, len) in frames {
            rogue
                .send(me, tag, &vec![0u8; len], DEFAULT_RECV_TIMEOUT)
                .expect("send");
        }
        (Communicator::new(world.remove(0)), rogue)
    }

    /// Lengths no two-element `f32` segment (8 bytes) decodes from: an
    /// element too many, an element too few, not whole elements, nothing.
    const BAD_LENGTHS: [usize; 4] = [12, 4, 7, 0];
    const ROGUE: CommError = CommError::Protocol { peer: 1 };

    #[test]
    fn duplicate_undelivered_tag_is_a_protocol_error() {
        // The same tag twice while rank 0 is waiting for something else.
        let queued = Tag::new(PHASE_UP, 0, 7);
        let (mut comm, _rogue) = with_rogue_peer(0, &[(queued, 4), (queued, 4)]);
        let awaited = Tag::new(PHASE_UP, 0, 0);
        assert_eq!(
            comm.recv_elems::<f32>(1, awaited, &mut [], Land::Copy),
            Err(ROGUE)
        );
    }

    #[test]
    fn ring_frame_of_the_wrong_length_is_a_protocol_error() {
        // Rank 0 expects rank 1's half of a 4-element buffer (2 elements)
        // in the reduce-scatter.
        for bad in BAD_LENGTHS {
            let (mut comm, _rogue) = with_rogue_peer(0, &[(Tag::new(PHASE_RING, 0, 0), bad)]);
            assert_eq!(comm.reduce_scatter(vec![1.0f32; 4]), Err(ROGUE), "{bad}");
        }
        // The allgather takes a shard of any length, but only whole elements.
        let (mut comm, _rogue) = with_rogue_peer(0, &[(Tag::new(PHASE_RING, 1, 0), 7)]);
        assert_eq!(comm.allgather(&[1.0f32; 2]), Err(ROGUE));
    }

    // In the two-rank double tree rank 1 is the root of tree A and rank 0
    // the root of tree B, so rank 0's allreduce of 4 elements in one chunk
    // hears `down` on tree 0 and then `up` on tree 1, 2 elements each.

    #[test]
    fn dbtree_down_frame_of_the_wrong_length_is_a_protocol_error() {
        for bad in BAD_LENGTHS {
            let (mut comm, _rogue) = with_rogue_peer(0, &[(Tag::new(PHASE_DOWN, 0, 0), bad)]);
            let res = comm.allreduce(&mut [1.0f32; 4], Op::Sum, Algo::DbTree { chunks: 1 });
            assert_eq!(res, Err(ROGUE), "{bad}");
        }
    }

    #[test]
    fn dbtree_up_frame_of_the_wrong_length_is_a_protocol_error() {
        for bad in BAD_LENGTHS {
            let frames = [
                (Tag::new(PHASE_DOWN, 0, 0), 8),
                (Tag::new(PHASE_UP, 1, 0), bad),
            ];
            let (mut comm, _rogue) = with_rogue_peer(0, &frames);
            let res = comm.allreduce(&mut [1.0f32; 4], Op::Sum, Algo::DbTree { chunks: 1 });
            assert_eq!(res, Err(ROGUE), "{bad}");
        }
    }

    #[test]
    fn reduce_to_root_frame_of_the_wrong_length_is_a_protocol_error() {
        for bad in BAD_LENGTHS {
            let (mut comm, _rogue) = with_rogue_peer(1, &[(Tag::new(PHASE_UP, 0, 0), bad)]);
            let res = comm.reduce_to_root(vec![1.0f32; 2], 1);
            assert_eq!(res, Err(CommError::Protocol { peer: 0 }), "{bad}");
        }
    }

    #[test]
    fn broadcast_frame_of_the_wrong_length_is_a_protocol_error() {
        for bad in BAD_LENGTHS {
            let (mut comm, _rogue) = with_rogue_peer(0, &[(Tag::new(PHASE_DOWN, 0, 0), bad)]);
            assert_eq!(comm.broadcast(&mut [1.0f32; 2], 1), Err(ROGUE), "{bad}");
        }
    }

    /// Rank 0 waits on rank 1, the broadcast root of a two-rank world,
    /// while rank 1 — a bare endpoint — sends a frame under a fresh tag
    /// every 40 ms for 800 ms and never the awaited one: the trickle must
    /// not stretch rank 0's 150 ms deadline.
    fn trickle_cannot_stretch_the_deadline<F: Fabric + 'static>(mut world: Vec<F>) {
        let mut rogue = world.pop().expect("two");
        let timeout = Duration::from_millis(150);
        let mut comm = Communicator::with_timeout(world.pop().expect("two"), timeout);
        let trickle = std::thread::spawn(move || {
            for chunk in 0..20 {
                // Rank 0 stops listening long before the trickle ends.
                let _ = rogue.send(0, Tag::new(PHASE_UP, 0, chunk), &[0u8; 4], timeout);
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let t0 = Instant::now();
        let res = comm.broadcast(&mut [0.0f32; 2], 1);
        let took = t0.elapsed();
        assert_eq!(
            res,
            Err(CommError::Timeout {
                peer: 1,
                deadline: timeout
            })
        );
        assert!(took < Duration::from_millis(400), "took {took:?}");
        drop(comm);
        trickle.join().expect("trickle");
    }

    #[test]
    fn a_trickle_of_other_tags_cannot_stretch_the_deadline_in_memory() {
        trickle_cannot_stretch_the_deadline(InMemFabric::mesh(2));
    }

    #[test]
    fn a_trickle_of_other_tags_cannot_stretch_the_deadline_over_tcp() {
        trickle_cannot_stretch_the_deadline(crate::fabric::TcpFabric::mesh(2).expect("sockets"));
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
