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
//! * [`InMemFabric`] — the default: `ff_util::channel` mpmc queues, one
//!   inbox per rank, exactly the behaviour the collectives always had.
//! * [`TcpFabric`] — ranks as OS threads exchanging length-prefixed
//!   frames over real localhost TCP sockets (one full-duplex stream per
//!   rank pair, `TCP_NODELAY`). Teardown is reconnect-free: a peer that
//!   goes away surfaces as [`CommError::Disconnected`], never a hang.
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
//! the backend fills it again — the TCP reader threads for the next
//! inbound frame, [`InMemFabric::send`] for the next outbound one — so a
//! steady run of collectives allocates no frames. What a backend keeps is
//! capped ([`FRAME_POOL_MAX_FRAMES`], [`FRAME_POOL_MAX_BYTES`]): a length
//! a peer chose is never memory a peer pins.
//!
//! Both concrete backends share one liveness protocol: a fabric that is
//! dropped (cleanly or because its rank died) delivers a *hangup* control
//! frame to every peer — explicitly for in-memory channels, via FIN/EOF
//! for TCP — so survivors observe [`CommError::Disconnected`] rather than
//! waiting out their receive timeout. [`Fabric::set_silent_teardown`]
//! suppresses the explicit hangup for injected deaths, which must look
//! like a host falling silent (liveness then comes from the timeout, as
//! on real hardware).

use ff_util::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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
    /// The peer's endpoint is gone (hangup frame, closed socket, or
    /// dropped channel).
    Disconnected {
        /// The peer rank that hung up.
        peer: usize,
    },
    /// No message from the peer within the receive timeout — the liveness
    /// signal a real collective gets from a transport-level timeout.
    /// Always carries the deadline that was configured, so "how long did
    /// we wait" never has to be reconstructed from context.
    Timeout {
        /// The peer rank that went silent.
        peer: usize,
        /// The configured receive deadline that expired.
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
/// Phase byte: hangup control frame (fabric-internal, never user data).
pub const PHASE_CTRL: u8 = 0xFF;

/// Message tag: which collective leg a payload belongs to. The sending
/// rank is not part of the tag — the fabric attaches it.
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

    /// The hangup control tag.
    pub const fn ctrl() -> Tag {
        Tag {
            phase: PHASE_CTRL,
            tree: 0,
            chunk: 0,
        }
    }

    /// True for fabric-internal control frames.
    pub fn is_ctrl(&self) -> bool {
        self.phase == PHASE_CTRL
    }
}

/// One framed message as delivered by a fabric: who sent it, its tag, and
/// its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMsg {
    /// Sending rank.
    pub from: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload (empty for control frames).
    pub bytes: Vec<u8>,
}

/// Why [`Fabric::recv_any`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvAnyError {
    /// The deadline passed without any inbound frame.
    Timeout,
    /// Every peer endpoint is gone and the inbox is drained.
    Closed,
}

/// One rank's endpoint into the transport: send bytes to a peer by rank,
/// receive the next inbound frame from anyone. Ordered and reliable per
/// peer pair — which is all the collectives assume of RDMA.
pub trait Fabric: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Total ranks in the world.
    fn world_size(&self) -> usize;
    /// Short backend name for diagnostics ("inmem", "tcp", ...).
    fn backend(&self) -> &'static str;
    /// Send `bytes` under `tag` to `to`. Self-sends are a caller bug.
    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError>;
    /// Next inbound frame from any peer, waiting at most `timeout`.
    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError>;
    /// Give back the buffer of a frame [`recv_any`](Self::recv_any)
    /// delivered, once its bytes are consumed, for the backend to fill
    /// again. A frame that is never returned is merely freed, and a
    /// backend with no use for it frees it here.
    fn recycle(&mut self, _frame: Vec<u8>) {}
    /// Suppress the explicit goodbye on drop: an injected death must look
    /// like silence, not a polite hangup. Backends whose teardown is
    /// inherently visible (TCP FIN) may ignore this.
    fn set_silent_teardown(&mut self, _silent: bool) {}
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

/// The default backend: one mpmc inbox per rank over `ff_util::channel`,
/// exactly the transport the collectives were originally wired to.
pub struct InMemFabric {
    rank: usize,
    txs: Vec<Sender<RawMsg>>,
    rx: Receiver<RawMsg>,
    /// Frames this rank consumed, refilled by its own sends.
    pool: FramePool,
    silent: bool,
}

impl InMemFabric {
    /// A fully-connected world of `n` endpoints.
    pub fn mesh(n: usize) -> Vec<InMemFabric> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| InMemFabric {
                rank,
                txs: txs.clone(),
                rx,
                pool: FramePool::default(),
                silent: false,
            })
            .collect()
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

    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        debug_assert_ne!(to, self.rank, "self-sends never reach the fabric");
        let mut frame = self.pool.take();
        frame.extend_from_slice(bytes);
        self.txs[to]
            .send(RawMsg {
                from: self.rank,
                tag,
                bytes: frame,
            })
            .map_err(|_| CommError::Disconnected { peer: to })
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvAnyError::Timeout,
            RecvTimeoutError::Disconnected => RecvAnyError::Closed,
        })
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.pool.put(frame);
    }

    fn set_silent_teardown(&mut self, silent: bool) {
        self.silent = silent;
    }
}

impl Drop for InMemFabric {
    fn drop(&mut self) {
        if self.silent {
            return;
        }
        // Goodbye to every peer: survivors observe a hangup frame instead
        // of waiting out their receive timeout. Peers already gone are
        // fine — the send just fails.
        for (to, tx) in self.txs.iter().enumerate() {
            if to != self.rank {
                let _ = tx.send(RawMsg {
                    from: self.rank,
                    tag: Tag::ctrl(),
                    bytes: Vec::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// Wire frame header: phase, tree, chunk, payload length.
const TCP_HEADER_LEN: usize = 1 + 1 + 4 + 4;

/// Largest payload one TCP frame may carry. The length field is four
/// bytes a peer controls, so the reader refuses anything above this
/// before sizing a buffer for it; 1 GiB is far beyond any in-tree message
/// (collectives chunk long buffers) yet bounds what a bad header costs.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// A rank's returned frames, shared with the reader threads that refill
/// them.
type SharedPool = Arc<ff_util::sync::Mutex<FramePool>>;

fn encode_header(tag: Tag, len: usize) -> [u8; TCP_HEADER_LEN] {
    let mut h = [0u8; TCP_HEADER_LEN];
    h[0] = tag.phase;
    h[1] = tag.tree;
    h[2..6].copy_from_slice(&tag.chunk.to_le_bytes());
    h[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// The real-network backend: a full-duplex localhost TCP stream per rank
/// pair, length-prefixed frames, one demux reader thread per inbound
/// stream feeding the rank's inbox. Ranks run as OS threads in one
/// process; the bytes cross the kernel loopback path for real.
pub struct TcpFabric {
    rank: usize,
    world: usize,
    writers: Vec<Option<TcpStream>>,
    rx: Receiver<RawMsg>,
    pool: SharedPool,
}

impl TcpFabric {
    /// A fully-connected world of `n` endpoints over ephemeral localhost
    /// ports. Connection setup is sequential and deterministic; reader
    /// threads exit on peer EOF, so no explicit shutdown choreography is
    /// needed beyond dropping the fabrics.
    pub fn mesh(n: usize) -> std::io::Result<Vec<TcpFabric>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<std::net::SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        let (txs, rxs): (Vec<Sender<RawMsg>>, Vec<Receiver<RawMsg>>) =
            (0..n).map(|_| unbounded()).unzip();
        let pools: Vec<SharedPool> = (0..n).map(|_| SharedPool::default()).collect();
        let mut writers: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                // connect() completes via the listen backlog, so the
                // matching accept() can follow sequentially.
                let a = TcpStream::connect(addrs[j])?;
                let (b, _) = listeners[j].accept()?;
                a.set_nodelay(true)?;
                b.set_nodelay(true)?;
                spawn_reader(a.try_clone()?, j, txs[i].clone(), pools[i].clone());
                spawn_reader(b.try_clone()?, i, txs[j].clone(), pools[j].clone());
                writers[i][j] = Some(a);
                writers[j][i] = Some(b);
            }
        }
        drop(txs); // inboxes close once every reader thread exits
        Ok(writers
            .into_iter()
            .zip(rxs.into_iter().zip(pools))
            .enumerate()
            .map(|(rank, (w, (rx, pool)))| TcpFabric {
                rank,
                world: n,
                writers: w,
                rx,
                pool,
            })
            .collect())
    }
}

/// Demux thread: read frames from one peer's stream into the inbox until
/// EOF, error or an oversized frame, then deliver the hangup frame. Each
/// payload lands in a buffer from `pool` when one is waiting there.
fn spawn_reader(mut stream: TcpStream, from: usize, tx: Sender<RawMsg>, pool: SharedPool) {
    std::thread::spawn(move || {
        loop {
            let mut header = [0u8; TCP_HEADER_LEN];
            if stream.read_exact(&mut header).is_err() {
                break;
            }
            let [phase, tree, c0, c1, c2, c3, l0, l1, l2, l3] = header;
            let tag = Tag::new(phase, tree, u32::from_le_bytes([c0, c1, c2, c3]));
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            if len > MAX_FRAME_BYTES {
                // Nothing after a bad header can be framed: close the
                // stream so the peer's writes fail too.
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            // Appending through `take` fills spare capacity as it is: a
            // reused buffer is neither reallocated nor zeroed first.
            let mut bytes = pool.lock().take();
            bytes.reserve_exact(len);
            let payload = (&stream).take(len as u64).read_to_end(&mut bytes);
            if !matches!(payload, Ok(n) if n == len) {
                break;
            }
            if tx.send(RawMsg { from, tag, bytes }).is_err() {
                return; // local fabric gone; no hangup needed
            }
        }
        // Peer closed (or died mid-frame): reconnect-free teardown — the
        // hangup frame is what survivors see as `Disconnected`.
        let _ = tx.send(RawMsg {
            from,
            tag: Tag::ctrl(),
            bytes: Vec::new(),
        });
    });
}

/// Header and payload as one vectored write, so a frame that fits the
/// socket buffer is one syscall and — with `TCP_NODELAY` — one segment
/// train instead of a lone 10-byte header followed by its payload.
fn write_frame(
    stream: &mut TcpStream,
    header: &[u8; TCP_HEADER_LEN],
    payload: &[u8],
) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < TCP_HEADER_LEN + payload.len() {
        let wrote = if sent < TCP_HEADER_LEN {
            stream.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            stream.write(&payload[sent - TCP_HEADER_LEN..])
        };
        match wrote {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Fabric for TcpFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        debug_assert_ne!(to, self.rank, "self-sends never reach the fabric");
        let stream = self.writers[to]
            .as_mut()
            .ok_or(CommError::Disconnected { peer: to })?;
        assert!(
            bytes.len() <= MAX_FRAME_BYTES,
            "frame of {} bytes exceeds MAX_FRAME_BYTES; chunk the collective",
            bytes.len()
        );
        let header = encode_header(tag, bytes.len());
        if write_frame(stream, &header, bytes).is_err() {
            self.writers[to] = None;
            return Err(CommError::Disconnected { peer: to });
        }
        Ok(())
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvAnyError::Timeout,
            RecvTimeoutError::Disconnected => RecvAnyError::Closed,
        })
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.pool.lock().put(frame);
    }
    // TCP teardown is inherently visible (FIN → reader EOF → hangup), so
    // `set_silent_teardown` keeps its no-op default: injected deaths over
    // TCP are detected fast rather than by timeout. Documented on
    // `FaultyFabric`.
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        // Reader threads hold fd clones, so dropping the writers alone
        // would not close the sockets; shutdown() terminates the socket
        // itself and unblocks every clone.
        for w in self.writers.iter().flatten() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection middleware
// ---------------------------------------------------------------------------

/// Transport middleware that kills the rank after a configured number of
/// sends — the single place `ExecFaultPlan` deaths are realized, for any
/// backend. A fired death turns the endpoint silent (`silent = true`,
/// the in-memory default used by the fault-tolerant allreduce: survivors
/// must detect the loss by timeout, as with a real dead host) or into an
/// abrupt hangup (`silent = false`, how a process crash looks to TCP
/// peers — and the only mode a TCP backend can express, since closing a
/// socket always emits FIN).
pub struct FaultyFabric<F: Fabric> {
    inner: F,
    die_after_sends: usize,
    silent_death: bool,
    sends: usize,
    died: bool,
}

impl<F: Fabric> FaultyFabric<F> {
    /// Wrap `inner`; the rank dies once it has issued `die_after_sends`
    /// messages (`usize::MAX` = never).
    pub fn new(inner: F, die_after_sends: usize, silent_death: bool) -> FaultyFabric<F> {
        FaultyFabric {
            inner,
            die_after_sends,
            silent_death,
            sends: 0,
            died: false,
        }
    }

    /// A wrapper that never fires — useful to keep one fabric type across
    /// faulted and unfaulted ranks.
    pub fn immortal(inner: F) -> FaultyFabric<F> {
        Self::new(inner, usize::MAX, true)
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

    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        if self.died || self.sends >= self.die_after_sends {
            // The injected Xid fires here: this rank's endpoint goes
            // silent. Reported as a self-disconnect so the rank's own
            // stack unwinds without touching any peer.
            if !self.died {
                self.died = true;
                if self.silent_death {
                    self.inner.set_silent_teardown(true);
                }
            }
            return Err(CommError::Disconnected {
                peer: self.inner.rank(),
            });
        }
        self.sends += 1;
        self.inner.send(to, tag, bytes)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        self.inner.recv_any(timeout)
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }

    fn set_silent_teardown(&mut self, silent: bool) {
        self.inner.set_silent_teardown(silent);
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

    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        let t0 = std::time::Instant::now();
        let res = self.inner.send(to, tag, bytes);
        let dt = t0.elapsed().as_nanos() as u64;
        let mut s = self.sink.lock();
        s.sends += 1;
        s.bytes += bytes.len() as u64;
        s.send_ns += dt;
        res
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        let res = self.inner.recv_any(timeout);
        if let Ok(m) = &res {
            if !m.tag.is_ctrl() {
                self.sink.lock().recvs += 1;
            }
        }
        res
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }

    fn set_silent_teardown(&mut self, silent: bool) {
        self.inner.set_silent_teardown(silent);
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

    fn roundtrip<F: Fabric + 'static>(mut world: Vec<F>) {
        let mut f1 = world.pop().expect("two endpoints");
        let mut f0 = world.pop().expect("two endpoints");
        let tag = Tag {
            phase: PHASE_UP,
            tree: 1,
            chunk: 7,
        };
        let h = std::thread::spawn(move || {
            f1.send(0, tag, b"pong").expect("send");
            f1
        });
        f0.send(1, tag, b"ping").expect("send");
        let got = f0.recv_any(Duration::from_secs(5)).expect("recv");
        assert_eq!(got.from, 1);
        assert_eq!(got.tag, tag);
        assert_eq!(got.bytes, b"pong");
        let f1 = h.join().expect("peer thread");
        drop(f1);
        // Teardown surfaces as a hangup frame, not a hang.
        let bye = f0.recv_any(Duration::from_secs(5)).expect("hangup");
        assert!(bye.tag.is_ctrl());
        assert_eq!(bye.from, 1);
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
            f0.send(1, tag, &chunk.to_le_bytes()).expect("send");
        }
        for chunk in 0..32u32 {
            let m = f1.recv_any(Duration::from_secs(5)).expect("recv");
            assert_eq!(m.tag.chunk, chunk, "per-pair FIFO order");
            assert_eq!(m.bytes, chunk.to_le_bytes());
        }
    }

    #[test]
    fn tcp_frame_larger_than_the_socket_buffers_arrives_whole() {
        // 8 MiB cannot leave in one write: the vectored write's
        // continuation after a partial header-plus-payload write runs.
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let big: Vec<u8> = (0..8usize << 20).map(|i| ((i * 31) >> 3) as u8).collect();
        let tag = Tag::new(PHASE_RING, 1, 3);
        f0.send(1, tag, &big).expect("send");
        f0.send(1, tag, b"next").expect("send");
        let got = f1.recv_any(Duration::from_secs(5)).expect("recv");
        assert_eq!(got.tag, tag);
        assert!(got.bytes == big, "payload differs");
        let got = f1.recv_any(Duration::from_secs(5)).expect("recv");
        assert_eq!(got.bytes, b"next", "framing intact after the long frame");
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
    fn tcp_reader_refills_a_returned_frame() {
        let mut world = TcpFabric::mesh(2).expect("sockets");
        let mut f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let tag = Tag::new(PHASE_UP, 0, 0);
        f1.send(0, tag, &[7u8; 1000]).expect("send");
        let first = f0.recv_any(Duration::from_secs(5)).expect("recv");
        assert_eq!(first.bytes, [7u8; 1000]);
        let addr = first.bytes.as_ptr();
        // Back before the next frame is on the wire, so the reader finds it.
        f0.recycle(first.bytes);
        f1.send(0, tag, &[9u8; 600]).expect("send");
        let second = f0.recv_any(Duration::from_secs(5)).expect("recv");
        assert_eq!(second.bytes, [9u8; 600]);
        assert_eq!(second.bytes.as_ptr(), addr, "same buffer, no allocation");
    }

    #[test]
    fn oversized_tcp_header_is_a_hangup_not_an_allocation() {
        // A raw socket stands in for a misbehaving rank 1: it declares a
        // 4 GiB payload and then keeps the connection open. Rank 0's
        // reader must give up on the header alone — waiting for (or
        // allocating) the payload would never deliver the hangup.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut raw = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let (tx, rx) = unbounded();
        let pool = SharedPool::default();
        spawn_reader(accepted.try_clone().expect("clone"), 1, tx, pool.clone());
        let fab = TcpFabric {
            rank: 0,
            world: 2,
            writers: vec![None, Some(accepted)],
            rx,
            pool,
        };
        let mut header = [0u8; TCP_HEADER_LEN]; // phase 0 = PHASE_UP, tree 0, chunk 0
        header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        raw.write_all(&header).expect("write header");
        let mut comm = crate::comm::Communicator::with_timeout(fab, Duration::from_secs(5));
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
    fn faulty_fabric_dies_after_n_sends() {
        let mut world = InMemFabric::mesh(2);
        let f1 = world.pop().expect("two");
        let mut faulty = FaultyFabric::new(f1, 2, true);
        let tag = Tag {
            phase: PHASE_UP,
            tree: 0,
            chunk: 0,
        };
        assert!(faulty.send(0, tag, b"a").is_ok());
        assert!(faulty.send(0, tag, b"b").is_ok());
        assert!(!faulty.died());
        assert_eq!(
            faulty.send(0, tag, b"c"),
            Err(CommError::Disconnected { peer: 1 })
        );
        assert!(faulty.died());
        // Dead stays dead.
        assert_eq!(
            faulty.send(0, tag, b"d"),
            Err(CommError::Disconnected { peer: 1 })
        );
    }

    #[test]
    fn silent_death_sends_no_hangup() {
        let mut world = InMemFabric::mesh(2);
        let f1 = world.pop().expect("two");
        let mut f0 = world.pop().expect("two");
        let mut faulty = FaultyFabric::new(f1, 0, true);
        let tag = Tag {
            phase: PHASE_UP,
            tree: 0,
            chunk: 0,
        };
        assert!(faulty.send(0, tag, b"x").is_err());
        drop(faulty); // silent: no ctrl frame may arrive
        assert_eq!(
            f0.recv_any(Duration::from_millis(50)),
            Err(RecvAnyError::Timeout)
        );
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
        f0.send(1, tag, &[0u8; 100]).expect("send");
        f0.send(1, tag, &[0u8; 28]).expect("send");
        drop(f1);
        let s = *sink.lock();
        assert_eq!(s.sends, 2);
        assert_eq!(s.bytes, 128);
        assert!(s.latency_us_per_msg() >= 0.0);
    }
}
