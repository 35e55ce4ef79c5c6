//! The pluggable transport under every executable collective.
//!
//! A [`Fabric`] is one rank's endpoint into an ordered, reliable,
//! tag-addressed message transport — the role RDMA plays under the real
//! HFReduce (DESIGN.md's substitution table). Algorithms never talk to a
//! fabric directly; they go through
//! [`Communicator`](crate::comm::Communicator), which adds tag matching,
//! out-of-order stashing, element serialization, and the per-rank
//! logical-clock observability discipline. Three backends ship:
//!
//! * [`InMemFabric`] — the default: one `std::sync::mpsc` queue per
//!   ordered rank pair; a receive waits on the queue of the peer it names.
//! * [`TcpFabric`] — ranks as OS threads exchanging length-prefixed
//!   frames over real localhost TCP sockets (one full-duplex stream per
//!   rank pair, `TCP_NODELAY`). A rank reads the stream of the peer it
//!   waits on, on its own thread: no reader threads, no inbox, so a frame
//!   crosses no thread hand-off between the wire and its rank (RDMA
//!   lands it in the waiting rank's buffer the same way). Teardown is
//!   reconnect-free: a peer that goes away surfaces as
//!   [`CommError::Disconnected`], never a hang.
//! * [`FaultyFabric`] — middleware wrapping any backend: the rank's
//!   endpoint goes silent after a configured number of sends, which is
//!   how [`ExecFaultPlan`](crate::exec::ExecFaultPlan) injections reach
//!   the transport without any algorithm-side plumbing.
//!
//! [`CalibratedFabric`] wraps any backend and meters per-message latency
//! and bytes; [`calibrate`](crate::calibration::calibrate) turns ping-pong
//! runs over a backend into `(latency, bandwidth)` constants for
//! `ff_hw::LinkParams`.
//!
//! A frame's buffer belongs to whoever holds the [`RawMsg`]; once its bytes
//! are consumed the holder gives it back through [`Fabric::recycle`], and
//! the backend fills it again — [`TcpFabric::recv`] with the next inbound
//! frame, [`InMemFabric::send`] with the next outbound one — so a steady
//! run of collectives allocates no frames. What a backend keeps is capped
//! ([`FRAME_POOL_MAX_FRAMES`], [`FRAME_POOL_MAX_BYTES`]): a length a peer
//! chose is never memory a peer pins.
//!
//! Every receive names its peer ([`Fabric::recv`]), and the TCP backend
//! keeps one progress rule so that no schedule the in-memory backend
//! completes can deadlock on full socket buffers: a rank whose write or
//! read has waited `TCP_STALL` (1 ms) reads ahead, without blocking, on
//! every inbound stream into per-peer queues, then tries again.
//!
//! Both concrete backends share one liveness rule, the one RDMA gives the
//! real collectives: a *dropped* endpoint hangs up — its queue or stream
//! ends, so once every frame it sent before is delivered each peer
//! observes [`CommError::Disconnected`] — while a *held* endpoint that
//! stops talking is silence, which peers detect only by their receive
//! timeout. An injected death ([`FaultyFabric`]) is silent because the
//! orchestrator holds the dead endpoint until the attempt is over, so one
//! fault plan behaves the same on every backend. A send that moves no
//! byte for its timeout is a [`CommError::Timeout`], and over TCP it
//! shuts the stream, so the peer sees a hangup rather than a torn frame.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default receive timeout for fault-free collectives: generous enough
/// that scheduler hiccups never fire it.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Communication failure observed by one rank. The process survives; the
/// caller decides whether to retry, shrink, or abort.
///
/// The fabric layer attaches peer context itself: `peer` is always the
/// *logical rank* the operation concerned (the rank being sent to or
/// awaited), never a transport-internal endpoint, so every backend
/// reports the same rank for the same failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The peer's endpoint is gone: dropped, its stream closed or its
    /// queue ended.
    Disconnected {
        /// The peer rank that hung up.
        peer: usize,
    },
    /// No message from the peer within the receive timeout, or a send to
    /// it that moved no byte for as long — the liveness signal a real
    /// collective gets from a transport-level timeout. Always carries the
    /// deadline that was configured, so "how long did we wait" never has
    /// to be reconstructed from context.
    Timeout {
        /// The peer rank that went silent.
        peer: usize,
        /// The configured deadline that expired.
        deadline: Duration,
    },
    /// The peer delivered bytes that do not decode as the expected
    /// message type — a framing or serialization bug, never expected
    /// in-tree.
    Protocol {
        /// The peer rank whose message failed to decode.
        peer: usize,
    },
}

impl CommError {
    /// The logical peer rank this error concerns.
    pub fn peer(&self) -> usize {
        match *self {
            CommError::Disconnected { peer }
            | CommError::Timeout { peer, .. }
            | CommError::Protocol { peer } => peer,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            CommError::Timeout { peer, deadline } => write!(
                f,
                "timed out after {:?} waiting for peer rank {peer}",
                deadline
            ),
            CommError::Protocol { peer } => {
                write!(f, "undecodable message from peer rank {peer}")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for ff_util::FfError {
    fn from(e: CommError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Comm, e.to_string(), e)
    }
}

/// Phase byte: reduce-up leg of a tree collective.
pub const PHASE_UP: u8 = 0;
/// Phase byte: broadcast-down leg of a tree collective.
pub const PHASE_DOWN: u8 = 1;
/// Phase byte: ring step.
pub const PHASE_RING: u8 = 2;
/// Phase byte: all2all exchange.
pub const PHASE_A2A: u8 = 3;

/// Message tag: which collective leg a payload belongs to. The sending
/// rank is not part of the tag: a receive names its peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// One of the `PHASE_*` constants.
    pub phase: u8,
    /// Tree index (double binary tree: 0 = A, 1 = B).
    pub tree: u8,
    /// Chunk / step / sequence number within the phase.
    pub chunk: u32,
}

impl Tag {
    /// The tag of leg `(phase, tree, chunk)`.
    pub const fn new(phase: u8, tree: u8, chunk: u32) -> Tag {
        Tag { phase, tree, chunk }
    }
}

/// One framed message as delivered by a fabric: its tag and its payload
/// bytes. The sender is the peer the receive named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMsg {
    /// Message tag.
    pub tag: Tag,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// One rank's endpoint into the transport: send bytes to a peer by rank,
/// receive the next frame from a named peer. Ordered and reliable per
/// peer pair — which is all the collectives assume of RDMA.
pub trait Fabric: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Total ranks in the world.
    fn world_size(&self) -> usize;
    /// Short backend name for diagnostics ("inmem", "tcp", ...).
    fn backend(&self) -> &'static str;
    /// Send `bytes` under `tag` to `to`. Self-sends are a caller bug. A
    /// send that moves no byte for `timeout` is a
    /// [`CommError::Timeout`] naming `to`.
    fn send(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: &[u8],
        timeout: Duration,
    ) -> Result<(), CommError>;
    /// The next data frame from `from`, in per-pair FIFO order, waiting at
    /// most `timeout` ([`CommError::Timeout`] with `deadline: timeout`).
    /// Once `from` has hung up and every frame it sent before is
    /// delivered, this is [`CommError::Disconnected`], and stays so.
    fn recv(&mut self, from: usize, timeout: Duration) -> Result<RawMsg, CommError>;
    /// Give back the buffer of a frame [`recv`](Self::recv) delivered,
    /// once its bytes are consumed, for the backend to fill again. A
    /// frame that is never returned is merely freed, and a backend with
    /// no use for it frees it here.
    fn recycle(&mut self, _frame: Vec<u8>) {}
}

// ---------------------------------------------------------------------------
// Recycled frame buffers
// ---------------------------------------------------------------------------

/// Most buffers one endpoint keeps for reuse.
pub const FRAME_POOL_MAX_FRAMES: usize = 32;

/// Most bytes of capacity one endpoint keeps for reuse; a single buffer
/// above this is freed on return. Collectives chunk long buffers, so
/// in-tree frames sit far below it.
pub const FRAME_POOL_MAX_BYTES: usize = 64 << 20;

/// Returned frame buffers awaiting their next fill, capped in count and
/// in bytes so that frame lengths chosen by a peer bound nothing.
#[derive(Default)]
struct FramePool {
    frames: Vec<Vec<u8>>,
    /// Σ capacity over `frames`.
    bytes: usize,
}

impl FramePool {
    fn put(&mut self, frame: Vec<u8>) {
        let cap = frame.capacity();
        if cap > 0
            && self.frames.len() < FRAME_POOL_MAX_FRAMES
            && self.bytes + cap <= FRAME_POOL_MAX_BYTES
        {
            self.bytes += cap;
            self.frames.push(frame);
        }
    }

    /// An empty buffer: the most recently returned one, or a fresh one.
    fn take(&mut self) -> Vec<u8> {
        let mut frame = self.frames.pop().unwrap_or_default();
        self.bytes -= frame.capacity();
        frame.clear();
        frame
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The default backend: one `std::sync::mpsc` queue per ordered rank
/// pair. A receive waits on the queue of the peer it names; a peer has
/// hung up once its endpoint is dropped and its queue is drained.
pub struct InMemFabric {
    rank: usize,
    /// Per peer: the sending end of the queue into it, `None` at this
    /// rank's own index.
    txs: Vec<Option<Sender<RawMsg>>>,
    /// Per peer: the receiving end of the queue out of it.
    rxs: Vec<Option<Receiver<RawMsg>>>,
    /// Frames this rank consumed, refilled by its own sends.
    pool: FramePool,
}

impl InMemFabric {
    /// A fully-connected world of `n` endpoints.
    pub fn mesh(n: usize) -> Vec<InMemFabric> {
        let mut fabrics: Vec<InMemFabric> = (0..n)
            .map(|rank| InMemFabric {
                rank,
                txs: (0..n).map(|_| None).collect(),
                rxs: (0..n).map(|_| None).collect(),
                pool: FramePool::default(),
            })
            .collect();
        for from in 0..n {
            for to in (0..n).filter(|&to| to != from) {
                let (tx, rx) = channel();
                fabrics[from].txs[to] = Some(tx);
                fabrics[to].rxs[from] = Some(rx);
            }
        }
        fabrics
    }
}

impl Fabric for InMemFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.txs.len()
    }

    fn backend(&self) -> &'static str {
        "inmem"
    }

    /// Never waits: the queue is unbounded, so `_timeout` cannot expire.
    fn send(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: &[u8],
        _timeout: Duration,
    ) -> Result<(), CommError> {
        debug_assert_ne!(to, self.rank, "self-sends never reach the fabric");
        let hangup = CommError::Disconnected { peer: to };
        let tx = self.txs[to].as_ref().ok_or(hangup)?;
        let mut frame = self.pool.take();
        frame.extend_from_slice(bytes);
        tx.send(RawMsg { tag, bytes: frame }).map_err(|_| hangup)
    }

    fn recv(&mut self, from: usize, timeout: Duration) -> Result<RawMsg, CommError> {
        debug_assert_ne!(from, self.rank, "self-receives never reach the fabric");
        let rx = self.rxs[from]
            .as_ref()
            .ok_or(CommError::Disconnected { peer: from })?;
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => CommError::Timeout {
                peer: from,
                deadline: timeout,
            },
            RecvTimeoutError::Disconnected => CommError::Disconnected { peer: from },
        })
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.pool.put(frame);
    }
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// Wire frame header: phase, tree, chunk, payload length.
const TCP_HEADER_LEN: usize = 1 + 1 + 4 + 4;

/// Largest payload one TCP frame may carry. The length field is four
/// bytes a peer controls, so a receive refuses anything above this
/// before sizing a buffer for it; 1 GiB is far beyond any in-tree message
/// (collectives chunk long buffers) yet bounds what a bad header costs.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// How long one blocking read or write on a TCP stream may wait before
/// the fabric reads ahead on its other inbound streams and tries again
/// (`SO_RCVTIMEO` and `SO_SNDTIMEO` of every stream). It bounds how long a
/// peer that fills this rank's socket buffers waits for them to drain; a
/// frame that arrives wakes the waiting read at once.
const TCP_STALL: Duration = Duration::from_millis(1);

fn encode_header(tag: Tag, len: usize) -> [u8; TCP_HEADER_LEN] {
    let mut h = [0u8; TCP_HEADER_LEN];
    h[0] = tag.phase;
    h[1] = tag.tree;
    h[2..6].copy_from_slice(&tag.chunk.to_le_bytes());
    h[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// A read or write that gave up after [`TCP_STALL`], or found nothing to
/// do on a nonblocking stream.
fn stalled(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One peer's full-duplex stream and the inbound frame being reassembled
/// off it.
struct TcpPeer {
    stream: TcpStream,
    /// Header bytes of the next inbound frame read so far.
    header: [u8; TCP_HEADER_LEN],
    header_len: usize,
    /// Payload bytes read so far, once the header is whole.
    payload: Option<Vec<u8>>,
    /// Whole frames read ahead of a receive naming this peer.
    ready: VecDeque<RawMsg>,
    /// The stream is over (EOF, a read error, a header no frame can
    /// follow): once `ready` drains, every receive is a hangup.
    hung: bool,
    /// A send failed or timed out: nothing more goes out.
    send_closed: bool,
}

impl TcpPeer {
    fn new(stream: TcpStream) -> std::io::Result<TcpPeer> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TCP_STALL))?;
        stream.set_write_timeout(Some(TCP_STALL))?;
        Ok(TcpPeer {
            stream,
            header: [0; TCP_HEADER_LEN],
            header_len: 0,
            payload: None,
            ready: VecDeque::new(),
            hung: false,
            send_closed: false,
        })
    }

    /// Read on until one more frame is whole and queued on `ready`
    /// (`Ok(true)`) or the stream is over (`Ok(false)`); `Err` is a read
    /// that stalled, with whatever it read kept for the next call.
    fn read_frame(&mut self, pool: &mut FramePool) -> std::io::Result<bool> {
        if self.hung {
            return Ok(false);
        }
        match self.try_read_frame(pool) {
            Err(e) if stalled(&e) => Err(e),
            Ok(true) => Ok(true),
            Ok(false) | Err(_) => {
                self.hung = true;
                self.payload = None;
                Ok(false)
            }
        }
    }

    fn try_read_frame(&mut self, pool: &mut FramePool) -> std::io::Result<bool> {
        while self.header_len < TCP_HEADER_LEN {
            match self.stream.read(&mut self.header[self.header_len..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.header_len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let [phase, tree, c0, c1, c2, c3, l0, l1, l2, l3] = self.header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_FRAME_BYTES {
            // Nothing after a bad header can be framed: close the stream
            // so the peer's writes fail too.
            let _ = self.stream.shutdown(Shutdown::Both);
            return Ok(false);
        }
        // Appending through `take` fills spare capacity as it is: a reused
        // buffer is neither reallocated nor zeroed first. A stalled read
        // keeps what it appended.
        let bytes = self.payload.get_or_insert_with(|| {
            let mut bytes = pool.take();
            bytes.reserve_exact(len);
            bytes
        });
        let want = len - bytes.len();
        if (&self.stream).take(want as u64).read_to_end(bytes)? < want {
            return Ok(false); // the peer died mid-frame
        }
        self.header_len = 0;
        self.ready.push_back(RawMsg {
            tag: Tag::new(phase, tree, u32::from_le_bytes([c0, c1, c2, c3])),
            bytes: self.payload.take().unwrap_or_default(),
        });
        Ok(true)
    }
}

/// The real-network backend: a full-duplex localhost TCP stream per rank
/// pair and length-prefixed frames. Ranks run as OS threads in one
/// process; the bytes cross the kernel loopback path for real, and each
/// rank reads its own streams.
pub struct TcpFabric {
    rank: usize,
    /// One entry per rank, `None` at this rank's own index.
    peers: Vec<Option<TcpPeer>>,
    /// Frames this rank consumed, refilled by its next reads.
    pool: FramePool,
}

impl TcpFabric {
    /// A fully-connected world of `n` endpoints over ephemeral localhost
    /// ports. Connection setup is sequential and deterministic; dropping
    /// the fabrics closes the streams, which is the whole teardown.
    pub fn mesh(n: usize) -> std::io::Result<Vec<TcpFabric>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let mut fabrics: Vec<TcpFabric> = (0..n)
            .map(|rank| TcpFabric {
                rank,
                peers: (0..n).map(|_| None).collect(),
                pool: FramePool::default(),
            })
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                // connect() completes via the listen backlog, so the
                // matching accept() can follow sequentially.
                let a = TcpStream::connect(listeners[j].local_addr()?)?;
                let (b, _) = listeners[j].accept()?;
                fabrics[i].peers[j] = Some(TcpPeer::new(a)?);
                fabrics[j].peers[i] = Some(TcpPeer::new(b)?);
            }
        }
        Ok(fabrics)
    }

    /// Read every inbound stream, without blocking, into its peer's queue:
    /// what a rank does whenever one of its own reads or writes stalls,
    /// so that a peer blocked on this rank's full socket buffer moves on.
    fn read_ahead(&mut self) {
        for peer in self.peers.iter_mut().flatten().filter(|p| !p.hung) {
            if peer.stream.set_nonblocking(true).is_ok() {
                while let Ok(true) = peer.read_frame(&mut self.pool) {}
                let _ = peer.stream.set_nonblocking(false);
            }
        }
    }
}

impl Fabric for TcpFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.peers.len()
    }

    fn backend(&self) -> &'static str {
        "tcp"
    }

    /// Header and payload as one vectored write, so a frame that fits the
    /// socket buffer is one syscall and — with `TCP_NODELAY` — one segment
    /// train instead of a lone 10-byte header followed by its payload.
    fn send(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: &[u8],
        timeout: Duration,
    ) -> Result<(), CommError> {
        debug_assert_ne!(to, self.rank, "self-sends never reach the fabric");
        assert!(
            bytes.len() <= MAX_FRAME_BYTES,
            "frame of {} bytes exceeds MAX_FRAME_BYTES; chunk the collective",
            bytes.len()
        );
        let header = encode_header(tag, bytes.len());
        let (mut sent, mut moved) = (0, Instant::now());
        while sent < TCP_HEADER_LEN + bytes.len() {
            let Some(peer) = self.peers[to].as_mut().filter(|p| !p.send_closed) else {
                return Err(CommError::Disconnected { peer: to });
            };
            let wrote = if sent < TCP_HEADER_LEN {
                let bufs = [IoSlice::new(&header[sent..]), IoSlice::new(bytes)];
                peer.stream.write_vectored(&bufs)
            } else {
                peer.stream.write(&bytes[sent - TCP_HEADER_LEN..])
            };
            match wrote {
                Ok(n) if n > 0 => (sent, moved) = (sent + n, Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if stalled(&e) && moved.elapsed() < timeout => self.read_ahead(),
                Err(e) if stalled(&e) => {
                    // The peer sees the stream end mid-frame: a hangup.
                    let _ = peer.stream.shutdown(Shutdown::Both);
                    peer.send_closed = true;
                    return Err(CommError::Timeout {
                        peer: to,
                        deadline: timeout,
                    });
                }
                _ => {
                    peer.send_closed = true;
                    return Err(CommError::Disconnected { peer: to });
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self, from: usize, timeout: Duration) -> Result<RawMsg, CommError> {
        debug_assert_ne!(from, self.rank, "self-receives never reach the fabric");
        let start = Instant::now();
        loop {
            let Some(peer) = self.peers[from].as_mut() else {
                return Err(CommError::Disconnected { peer: from });
            };
            if let Some(msg) = peer.ready.pop_front() {
                return Ok(msg);
            }
            match peer.read_frame(&mut self.pool) {
                Ok(true) => {}
                Ok(false) => return Err(CommError::Disconnected { peer: from }),
                Err(_) if start.elapsed() >= timeout => {
                    return Err(CommError::Timeout {
                        peer: from,
                        deadline: timeout,
                    })
                }
                Err(_) => self.read_ahead(),
            }
        }
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.pool.put(frame);
    }
}

// ---------------------------------------------------------------------------
// Fault-injection middleware
// ---------------------------------------------------------------------------

/// Transport middleware that kills the rank after a configured number of
/// sends — the single place `ExecFaultPlan` deaths are realized, for any
/// backend. A fired death sends nothing more; whoever holds the dead
/// endpoint decides what peers see: silence while it is held (a host that
/// went down — survivors detect the loss by timeout), a hangup once it is
/// dropped (a process that exited).
pub struct FaultyFabric<F: Fabric> {
    inner: F,
    die_after_sends: usize,
    sends: usize,
    died: bool,
}

impl<F: Fabric> FaultyFabric<F> {
    /// Wrap `inner`; the rank dies once it has issued `die_after_sends`
    /// messages (`usize::MAX` = never).
    pub fn new(inner: F, die_after_sends: usize) -> FaultyFabric<F> {
        FaultyFabric {
            inner,
            die_after_sends,
            sends: 0,
            died: false,
        }
    }

    /// True once the injected death has fired.
    pub fn died(&self) -> bool {
        self.died
    }
}

impl<F: Fabric> Fabric for FaultyFabric<F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn send(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: &[u8],
        timeout: Duration,
    ) -> Result<(), CommError> {
        if self.died || self.sends >= self.die_after_sends {
            // The injected Xid fires here: this rank's endpoint goes
            // silent. Reported as a self-disconnect so the rank's own
            // stack unwinds without touching any peer.
            self.died = true;
            return Err(CommError::Disconnected {
                peer: self.inner.rank(),
            });
        }
        self.sends += 1;
        self.inner.send(to, tag, bytes, timeout)
    }

    fn recv(&mut self, from: usize, timeout: Duration) -> Result<RawMsg, CommError> {
        self.inner.recv(from, timeout)
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }
}

// ---------------------------------------------------------------------------
// Calibration middleware
// ---------------------------------------------------------------------------

/// Wall-clock transport meters accumulated by [`CalibratedFabric`],
/// shared across the ranks of a world via `Arc`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CalStats {
    /// Messages sent.
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent inside `send` calls.
    pub send_ns: u64,
    /// Messages received (data frames only).
    pub recvs: u64,
}

impl CalStats {
    /// Mean wall-clock microseconds per sent message.
    pub fn latency_us_per_msg(&self) -> f64 {
        if self.sends == 0 {
            return 0.0;
        }
        self.send_ns as f64 / 1e3 / self.sends as f64
    }

    /// Send-side goodput in GB/s (payload bytes over time inside `send`).
    pub fn send_gbps(&self) -> f64 {
        if self.send_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.send_ns as f64 // bytes/ns == GB/s
    }
}

/// Shared handle to a world's calibration meters.
pub type CalSink = Arc<ff_util::sync::Mutex<CalStats>>;

/// A fresh, zeroed [`CalSink`].
pub fn cal_sink() -> CalSink {
    Arc::new(ff_util::sync::Mutex::new(CalStats::default()))
}

/// Transport middleware that meters every message: per-send wall-clock
/// latency and bytes into a shared [`CalSink`]. Wrap any backend to turn
/// a run into measured constants (see `ff_reduce::calibration`).
pub struct CalibratedFabric<F: Fabric> {
    inner: F,
    sink: CalSink,
}

impl<F: Fabric> CalibratedFabric<F> {
    /// Wrap `inner`, metering into `sink`.
    pub fn new(inner: F, sink: CalSink) -> CalibratedFabric<F> {
        CalibratedFabric { inner, sink }
    }
}

impl<F: Fabric> Fabric for CalibratedFabric<F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn send(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: &[u8],
        timeout: Duration,
    ) -> Result<(), CommError> {
        let t0 = Instant::now();
        let res = self.inner.send(to, tag, bytes, timeout);
        let dt = t0.elapsed().as_nanos() as u64;
        let mut s = self.sink.lock();
        s.sends += 1;
        s.bytes += bytes.len() as u64;
        s.send_ns += dt;
        res
    }

    fn recv(&mut self, from: usize, timeout: Duration) -> Result<RawMsg, CommError> {
        let res = self.inner.recv(from, timeout);
        if res.is_ok() {
            self.sink.lock().recvs += 1;
        }
        res
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }
}

// ---------------------------------------------------------------------------
// Providers
// ---------------------------------------------------------------------------

/// Builds whole worlds of one fabric backend — what the orchestration
/// layer (world runners, the fault-tolerant allreduce's per-attempt
/// re-mesh) is generic over.
pub trait FabricProvider: Sync {
    /// The fabric type this provider builds.
    type F: Fabric;
    /// Short backend name ("inmem", "tcp").
    fn name(&self) -> &'static str;
    /// A fully-connected world of `n` endpoints.
    fn world(&self, n: usize) -> std::io::Result<Vec<Self::F>>;
}

/// Provider for [`InMemFabric`] worlds — the default transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct InMemProvider;

impl FabricProvider for InMemProvider {
    type F = InMemFabric;

    fn name(&self) -> &'static str {
        "inmem"
    }

    fn world(&self, n: usize) -> std::io::Result<Vec<InMemFabric>> {
        Ok(InMemFabric::mesh(n))
    }
}

/// Provider for [`TcpFabric`] worlds over ephemeral localhost ports.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpProvider;

impl FabricProvider for TcpProvider {
    type F = TcpFabric;

    fn name(&self) -> &'static str {
        "tcp"
    }

    fn world(&self, n: usize) -> std::io::Result<Vec<TcpFabric>> {
        TcpFabric::mesh(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(5);

    fn roundtrip<F: Fabric + 'static>(mut world: Vec<F>) {
        let mut f1 = world.pop().expect("two endpoints");
        let mut f0 = world.pop().expect("two endpoints");
        let tag = Tag {
            phase: PHASE_UP,
            tree: 1,
            chunk: 7,
        };
        let h = std::thread::spawn(move || {
            f1.send(0, tag, b"pong", WAIT).expect("send");
            f1
        });
        f0.send(1, tag, b"ping", WAIT).expect("send");
        let got = f0.recv(1, WAIT).expect("recv");
        assert_eq!(got.tag, tag);
        assert_eq!(got.bytes, b"pong");
        let f1 = h.join().expect("peer thread");
        drop(f1);
        // Teardown surfaces as a hangup, not a hang — and stays one.
        let hangup = Err(CommError::Disconnected { peer: 1 });
        assert_eq!(f0.recv(1, WAIT), hangup);
        assert_eq!(f0.recv(1, WAIT), hangup);
    }

    #[test]
    fn inmem_roundtrip_and_hangup() {
        roundtrip(InMemFabric::mesh(2));
    }

    #[test]
    fn tcp_roundtrip_and_hangup() {
        roundtrip(TcpFabric::mesh(2).expect("localhost sockets"));
    }

    #[test]
    fn tcp_frames_preserve_order_and_tags() {
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        for chunk in 0..32u32 {
            let tag = Tag {
                phase: PHASE_RING,
                tree: 0,
                chunk,
            };
            f0.send(1, tag, &chunk.to_le_bytes(), WAIT).expect("send");
        }
        for chunk in 0..32u32 {
            let m = f1.recv(0, WAIT).expect("recv");
            assert_eq!(m.tag.chunk, chunk, "per-pair FIFO order");
            assert_eq!(m.bytes, chunk.to_le_bytes());
        }
    }

    #[test]
    fn inmem_recv_files_other_senders_frames_in_order() {
        let mut world = InMemFabric::mesh(3);
        let mut f2 = world.pop().expect("three");
        let mut f1 = world.pop().expect("three");
        let mut f0 = world.pop().expect("three");
        let tag = |chunk| Tag::new(PHASE_A2A, 0, chunk);
        f2.send(0, tag(0), b"a", WAIT).expect("send");
        f2.send(0, tag(1), b"b", WAIT).expect("send");
        drop(f2);
        f1.send(0, tag(2), b"c", WAIT).expect("send");
        assert_eq!(f0.recv(1, WAIT).expect("recv").bytes, b"c");
        assert_eq!(f0.recv(2, WAIT).expect("recv").bytes, b"a");
        assert_eq!(f0.recv(2, WAIT).expect("recv").bytes, b"b");
        assert_eq!(f0.recv(2, WAIT), Err(CommError::Disconnected { peer: 2 }));
    }

    fn pattern(len: usize, seed: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + seed * 7) >> 3) as u8).collect()
    }

    #[test]
    fn tcp_frame_larger_than_the_socket_buffers_arrives_whole() {
        // 8 MiB cannot leave in one write: the vectored write's
        // continuation after a partial header-plus-payload write runs,
        // while the receiver reads on a thread of its own.
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let big = pattern(8 << 20, 0);
        let tag = Tag::new(PHASE_RING, 1, 3);
        let receiver = std::thread::spawn(move || {
            let long = f1.recv(0, WAIT).expect("recv");
            let next = f1.recv(0, WAIT).expect("recv");
            (long, next)
        });
        f0.send(1, tag, &big, WAIT).expect("send");
        f0.send(1, tag, b"next", WAIT).expect("send");
        let (got, next) = receiver.join().expect("receiver");
        assert_eq!(got.tag, tag);
        assert!(got.bytes == big, "payload differs");
        assert_eq!(next.bytes, b"next", "framing intact after the long frame");
    }

    #[test]
    fn large_sends_in_a_cycle_complete() {
        // Every rank sends 8 MiB to every other rank before it receives
        // anything: no write can finish unless stalled writers read ahead.
        for n in 2..=4 {
            let world = TcpFabric::mesh(n).expect("sockets");
            let len = 8 << 20;
            std::thread::scope(|s| {
                for mut fab in world {
                    s.spawn(move || {
                        let me = fab.rank();
                        for k in 1..n {
                            let to = (me + k) % n;
                            let tag = Tag::new(PHASE_A2A, 0, to as u32);
                            fab.send(to, tag, &pattern(len, me * n + to), WAIT)
                                .expect("send");
                        }
                        for from in (0..n).filter(|&r| r != me) {
                            let got = fab.recv(from, WAIT).expect("recv");
                            assert_eq!(got.tag, Tag::new(PHASE_A2A, 0, me as u32));
                            assert!(got.bytes == pattern(len, from * n + me), "{from}→{me}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn a_waiting_receive_reads_ahead_so_a_blocked_sender_moves_on() {
        // Rank 0 sends 8 MiB to rank 1 and then a word to rank 2; rank 2
        // passes that word on to rank 1, which first waits on rank 2. In
        // memory every send returns at once. Over TCP rank 0's long write
        // completes only if rank 1 reads rank 0's stream while it waits on
        // rank 2.
        let mut world = TcpFabric::mesh(3).expect("sockets");
        let mut f2 = world.pop().expect("three");
        let mut f1 = world.pop().expect("three");
        let mut f0 = world.pop().expect("three");
        let big = pattern(8 << 20, 1);
        let tag = Tag::new(PHASE_A2A, 0, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                f0.send(1, tag, &big, WAIT).expect("send");
                f0.send(2, tag, b"go", WAIT).expect("send");
            });
            s.spawn(|| {
                let go = f2.recv(0, WAIT).expect("recv");
                f2.send(1, tag, &go.bytes, WAIT).expect("send");
            });
            assert_eq!(f1.recv(2, WAIT).expect("recv").bytes, b"go");
            assert!(f1.recv(0, WAIT).expect("recv").bytes == big);
        });
    }

    #[test]
    fn frame_pool_is_bounded_in_frames_and_in_bytes() {
        let mut pool = FramePool::default();
        for _ in 0..FRAME_POOL_MAX_FRAMES + 5 {
            pool.put(Vec::with_capacity(64));
        }
        assert_eq!(pool.frames.len(), FRAME_POOL_MAX_FRAMES);
        assert_eq!(pool.bytes, FRAME_POOL_MAX_FRAMES * 64);
        // Three buffers that together exceed the byte bound: two stay.
        // (Address space only; the pages are never touched.)
        let mut pool = FramePool::default();
        for _ in 0..3 {
            pool.put(Vec::with_capacity(FRAME_POOL_MAX_BYTES / 3 + 1));
        }
        assert_eq!(pool.frames.len(), 2);
        assert!(pool.bytes <= FRAME_POOL_MAX_BYTES);
        pool.put(vec![1, 2, 3]);
        assert_eq!(pool.take(), Vec::<u8>::new(), "handed out empty");
        pool.take();
        pool.take();
        assert_eq!((pool.frames.len(), pool.bytes), (0, 0));
        assert_eq!(pool.take().capacity(), 0, "an empty pool allocates nothing");
    }

    #[test]
    fn tcp_recv_refills_a_returned_frame() {
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let tag = Tag::new(PHASE_UP, 0, 0);
        f1.send(0, tag, &[7u8; 1000], WAIT).expect("send");
        let first = f0.recv(1, WAIT).expect("recv");
        assert_eq!(first.bytes, [7u8; 1000]);
        let addr = first.bytes.as_ptr();
        // Back before the next frame is read, so the read finds it.
        f0.recycle(first.bytes);
        f1.send(0, tag, &[9u8; 600], WAIT).expect("send");
        let second = f0.recv(1, WAIT).expect("recv");
        assert_eq!(second.bytes, [9u8; 600]);
        assert_eq!(second.bytes.as_ptr(), addr, "same buffer, no allocation");
    }

    /// Rank 0 of a two-rank TCP world whose rank 1 is a raw socket this
    /// thread drives: a peer that sends (or reads) only what it is told.
    fn tcp_rank0_with_raw_peer() -> (TcpFabric, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let raw = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let fab = TcpFabric {
            rank: 0,
            peers: vec![None, Some(TcpPeer::new(accepted).expect("stream options"))],
            pool: FramePool::default(),
        };
        (fab, raw)
    }

    #[test]
    fn oversized_tcp_header_is_a_hangup_not_an_allocation() {
        // The raw peer declares a 4 GiB payload and then keeps the
        // connection open. Rank 0's read must give up on the header alone
        // — waiting for (or allocating) the payload would never deliver
        // the hangup.
        let (fab, mut raw) = tcp_rank0_with_raw_peer();
        let mut header = [0u8; TCP_HEADER_LEN]; // phase 0 = PHASE_UP, tree 0, chunk 0
        header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        raw.write_all(&header).expect("write header");
        let mut comm = crate::comm::Communicator::with_timeout(fab, WAIT);
        assert_eq!(
            // Rank 1 is the broadcast root of a two-rank world: rank 0 waits on it.
            comm.broadcast(&mut [0.0f32], 1),
            Err(CommError::Disconnected { peer: 1 })
        );
        // And the teardown reached the peer: its stream is closed.
        let mut byte = [0u8; 1];
        assert_eq!(raw.read(&mut byte).expect("EOF, not an error"), 0);
    }

    #[test]
    fn a_send_that_cannot_progress_times_out_within_its_deadline() {
        // The raw peer never reads: 64 MiB fills both socket buffers long
        // before it is out.
        let (mut fab, mut raw) = tcp_rank0_with_raw_peer();
        let deadline = Duration::from_millis(200);
        let t0 = Instant::now();
        let res = fab.send(1, Tag::new(PHASE_A2A, 0, 0), &vec![5u8; 64 << 20], deadline);
        let took = t0.elapsed();
        assert_eq!(res, Err(CommError::Timeout { peer: 1, deadline }));
        assert!(took < Duration::from_secs(2), "took {took:?}");
        // The stream is shut: the peer reads what arrived, then EOF — a
        // frame cut short, which a fabric reports as a hangup.
        let mut got = Vec::new();
        raw.read_to_end(&mut got).expect("EOF, not an error");
        assert!(got.len() < TCP_HEADER_LEN + (64 << 20), "{}", got.len());
        assert_eq!(
            fab.send(1, Tag::new(PHASE_A2A, 0, 1), b"x", deadline),
            Err(CommError::Disconnected { peer: 1 })
        );
    }

    #[test]
    fn a_timed_out_send_reaches_the_peer_as_a_hangup_not_a_torn_frame() {
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let deadline = Duration::from_millis(100);
        let tag = Tag::new(PHASE_A2A, 0, 0);
        f0.send(1, tag, b"whole", deadline).expect("send");
        // Rank 1 reads nothing until the long send has given up.
        assert_eq!(
            f0.send(1, tag, &vec![1u8; 64 << 20], deadline),
            Err(CommError::Timeout { peer: 1, deadline })
        );
        assert_eq!(f1.recv(0, WAIT).expect("recv").bytes, b"whole");
        assert_eq!(f1.recv(0, WAIT), Err(CommError::Disconnected { peer: 0 }));
    }

    #[test]
    fn faulty_fabric_dies_after_n_sends() {
        let mut world = InMemFabric::mesh(2);
        let f1 = world.pop().expect("two");
        let mut faulty = FaultyFabric::new(f1, 2);
        let tag = Tag {
            phase: PHASE_UP,
            tree: 0,
            chunk: 0,
        };
        assert!(faulty.send(0, tag, b"a", WAIT).is_ok());
        assert!(faulty.send(0, tag, b"b", WAIT).is_ok());
        assert!(!faulty.died());
        assert_eq!(
            faulty.send(0, tag, b"c", WAIT),
            Err(CommError::Disconnected { peer: 1 })
        );
        assert!(faulty.died());
        // Dead stays dead.
        assert_eq!(
            faulty.send(0, tag, b"d", WAIT),
            Err(CommError::Disconnected { peer: 1 })
        );
    }

    /// Rank 1 of `world` dies before its first send: while the dead
    /// endpoint is held, rank 0 hears silence; once it is dropped, a hangup
    /// on every receive.
    fn held_death_is_silent_and_dropped_death_hangs_up<F: Fabric>(mut world: Vec<F>) {
        let f1 = world.pop().expect("two endpoints");
        let mut f0 = world.pop().expect("two endpoints");
        let mut dead = FaultyFabric::new(f1, 0);
        assert_eq!(
            dead.send(0, Tag::new(PHASE_UP, 0, 0), b"x", WAIT),
            Err(CommError::Disconnected { peer: 1 })
        );
        assert!(dead.died());
        let deadline = Duration::from_millis(50);
        let silence = Err(CommError::Timeout { peer: 1, deadline });
        assert_eq!(f0.recv(1, deadline), silence);
        assert_eq!(f0.recv(1, deadline), silence);
        drop(dead);
        let hangup = Err(CommError::Disconnected { peer: 1 });
        assert_eq!(f0.recv(1, deadline), hangup);
        assert_eq!(f0.recv(1, deadline), hangup);
    }

    #[test]
    fn inmem_held_death_is_silent_and_dropped_death_hangs_up() {
        held_death_is_silent_and_dropped_death_hangs_up(InMemFabric::mesh(2));
    }

    #[test]
    fn tcp_held_death_is_silent_and_dropped_death_hangs_up() {
        held_death_is_silent_and_dropped_death_hangs_up(TcpFabric::mesh(2).expect("sockets"));
    }

    #[test]
    fn calibrated_fabric_meters_bytes_and_messages() {
        let sink = cal_sink();
        let mut world = InMemFabric::mesh(2);
        let f1 = world.pop().expect("two");
        let mut f0 = CalibratedFabric::new(world.pop().expect("two"), sink.clone());
        let tag = Tag {
            phase: PHASE_A2A,
            tree: 0,
            chunk: 0,
        };
        f0.send(1, tag, &[0u8; 100], WAIT).expect("send");
        f0.send(1, tag, &[0u8; 28], WAIT).expect("send");
        drop(f1);
        let s = *sink.lock();
        assert_eq!(s.sends, 2);
        assert_eq!(s.bytes, 128);
        assert!(s.latency_us_per_msg() >= 0.0);
    }
}
