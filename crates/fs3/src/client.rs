//! The 3FS client: striped chunk I/O over the chain table, with the batch
//! APIs the checkpoint manager builds on (§VII-A) and request-to-send
//! admission on reads (§VI-B3).

use crate::chain::{ChainError, ChainTable};
use crate::meta::{FileAttr, MetaError, MetaService};
use crate::target::ChunkId;
use ff_util::bytes::Bytes;
use ff_util::sync::{Mutex, RwLock};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// Client-visible errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Metadata failure.
    Meta(MetaError),
    /// Storage failure.
    Chain(ChainError),
    /// Read past end of file.
    Eof,
}

impl From<MetaError> for FsError {
    fn from(e: MetaError) -> Self {
        FsError::Meta(e)
    }
}
impl From<ChainError> for FsError {
    fn from(e: ChainError) -> Self {
        FsError::Chain(e)
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Meta(e) => write!(f, "metadata: {e}"),
            FsError::Chain(e) => write!(f, "storage chain: {e}"),
            FsError::Eof => write!(f, "read past end of file"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Meta(e) => Some(e),
            FsError::Chain(e) => Some(e),
            FsError::Eof => None,
        }
    }
}

impl From<FsError> for ff_util::FfError {
    fn from(e: FsError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Storage, e.to_string(), e)
    }
}

/// A counting semaphore: the client-side sender limit of the
/// request-to-send control ("the client limits the number of concurrent
/// senders").
struct Semaphore {
    state: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            state: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut free = self
            .cv
            .wait_while(self.state.lock(), |n| *n == 0)
            .unwrap_or_else(|e| e.into_inner());
        *free -= 1;
    }

    fn release(&self) {
        *self.state.lock() += 1;
        self.cv.notify_one();
    }
}

/// Bounded exponential backoff for chain operations failing with a
/// *transient* error ([`ChainError::Unavailable`] /
/// [`ChainError::Reconfiguring`]): the client rides through a chain
/// failover instead of surfacing it.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts before the error surfaces (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Called with the failing chain's id when the client sees a transient
/// chain error — the hook the cluster manager uses to trigger repair
/// (remove dead members, recruit a spare) before the client retries.
pub type FailoverHandler = Arc<dyn Fn(usize) + Send + Sync>;

/// A 3FS client bound to a meta service and a chain table.
pub struct Fs3Client {
    meta: MetaService,
    table: Arc<ChainTable>,
    read_permits: Semaphore,
    retry: RetryPolicy,
    failover: RwLock<Option<FailoverHandler>>,
}

impl Fs3Client {
    /// Connect with a read-concurrency limit (the RTS sender cap) and the
    /// default retry policy.
    pub fn new(meta: MetaService, table: Arc<ChainTable>, read_concurrency: usize) -> Arc<Self> {
        Self::with_retry_policy(meta, table, read_concurrency, RetryPolicy::default())
    }

    /// Connect with an explicit retry policy.
    pub fn with_retry_policy(
        meta: MetaService,
        table: Arc<ChainTable>,
        read_concurrency: usize,
        retry: RetryPolicy,
    ) -> Arc<Self> {
        Arc::new(Fs3Client {
            meta,
            table,
            read_permits: Semaphore::new(read_concurrency.max(1)),
            retry,
            failover: RwLock::new(None),
        })
    }

    /// Install the failover hook invoked (with the chain id) before each
    /// retry of a transient chain error.
    pub fn set_failover_handler(&self, handler: FailoverHandler) {
        *self.failover.write() = Some(handler);
    }

    /// Run `op` with bounded-exponential-backoff retry on transient chain
    /// errors, poking the failover handler between attempts.
    fn with_chain_retry<T>(
        &self,
        chain_id: usize,
        mut op: impl FnMut() -> Result<T, ChainError>,
    ) -> Result<T, ChainError> {
        let mut delay = self.retry.base_delay;
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e @ (ChainError::Unavailable | ChainError::Reconfiguring)) => {
                    attempt += 1;
                    if attempt >= self.retry.max_attempts {
                        return Err(e);
                    }
                    let handler = self.failover.read().clone();
                    if let Some(h) = handler {
                        h(chain_id);
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(self.retry.max_delay);
                }
                other => return other,
            }
        }
    }

    /// The metadata service handle.
    pub fn meta(&self) -> &MetaService {
        &self.meta
    }

    fn chain_of(&self, attr: &FileAttr, chunk_idx: u64) -> &Arc<crate::chain::Chain> {
        self.table
            .chain_for(attr.chain_offset as usize, attr.stripe as usize, chunk_idx)
    }

    /// Write `data` at `offset`, replacing or read-modify-writing the
    /// affected chunks and growing the file size. Returns bytes written.
    pub fn write_at(&self, attr: &FileAttr, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        let written = self.write_extent(attr, offset, data)?;
        self.meta.grow_size(attr.ino, offset + data.len() as u64)?;
        Ok(written)
    }

    /// Zero-copy fast path: write a `Bytes` payload that covers exactly
    /// one whole chunk (offset chunk-aligned, length = chunk size or the
    /// payload ends the write). Falls back to the general path otherwise.
    pub fn write_chunk(&self, attr: &FileAttr, offset: u64, data: Bytes) -> Result<usize, FsError> {
        let cs = attr.chunk_size;
        if offset.is_multiple_of(cs) && data.len() as u64 <= cs {
            let id = ChunkId {
                ino: attr.ino.0,
                idx: offset / cs,
            };
            let n = data.len();
            if n as u64 == cs {
                let chain = self.chain_of(attr, id.idx);
                self.with_chain_retry(chain.id(), || chain.write(id, data.clone()))?;
                return Ok(n);
            }
        }
        self.write_extent(attr, offset, &data)
    }

    /// The data path of `write_at`, without the size update — lets
    /// `batch_write` update the inode once instead of per part (256
    /// parallel CAS loops on one inode record otherwise).
    fn write_extent(&self, attr: &FileAttr, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        let cs = attr.chunk_size;
        assert!(cs > 0, "not a file");
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let chunk_idx = pos / cs;
            let in_chunk = (pos % cs) as usize;
            let n = ((cs as usize) - in_chunk).min(data.len() - written);
            let chain = self.chain_of(attr, chunk_idx);
            let id = ChunkId {
                ino: attr.ino.0,
                idx: chunk_idx,
            };
            if in_chunk == 0 && n == cs as usize {
                // Full-chunk replace: no read needed.
                let payload = Bytes::copy_from_slice(&data[written..written + n]);
                self.with_chain_retry(chain.id(), || chain.write(id, payload.clone()))?;
            } else {
                // Partial write: read-modify-write atomically under the
                // chain's per-object lock, so two concurrent partial
                // writers to the same chunk cannot lose each other.
                let patch = &data[written..written + n];
                self.with_chain_retry(chain.id(), || {
                    chain.update(id, |current| {
                        let mut buf = current.map(|b| b.to_vec()).unwrap_or_default();
                        if buf.len() < in_chunk + n {
                            buf.resize(in_chunk + n, 0);
                        }
                        buf[in_chunk..in_chunk + n].copy_from_slice(patch);
                        Bytes::from(buf)
                    })
                })?;
            }
            written += n;
        }
        Ok(written)
    }

    /// Read up to `len` bytes at `offset`. Short reads happen only at EOF.
    pub fn read_at(&self, attr: &FileAttr, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let size = self.meta.stat(attr.ino)?.size;
        if offset >= size {
            return Err(FsError::Eof);
        }
        let len = len.min((size - offset) as usize);
        let cs = attr.chunk_size;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let pos = offset + out.len() as u64;
            let chunk_idx = pos / cs;
            let in_chunk = (pos % cs) as usize;
            let n = ((cs as usize) - in_chunk).min(len - out.len());
            let id = ChunkId {
                ino: attr.ino.0,
                idx: chunk_idx,
            };
            self.read_permits.acquire();
            let chain = self.chain_of(attr, chunk_idx);
            let res = self.with_chain_retry(chain.id(), || chain.read(id));
            self.read_permits.release();
            match res {
                Ok(b) => {
                    let end = (in_chunk + n).min(b.len());
                    if in_chunk < b.len() {
                        out.extend_from_slice(&b[in_chunk..end]);
                    }
                    // Sparse tail within the chunk: zero-fill.
                    out.resize(out.len() + (n - end.saturating_sub(in_chunk)), 0);
                }
                Err(ChainError::NotFound) => out.resize(out.len() + n, 0), // hole
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    /// Remove a file: unlink its metadata and delete every chunk from its
    /// chains (space reclamation).
    pub fn remove(&self, parent: crate::meta::InodeId, name: &str) -> Result<(), FsError> {
        let attr = self.meta.unlink(parent, name)?;
        if attr.chunk_size > 0 && attr.size > 0 {
            let chunks = attr.size.div_ceil(attr.chunk_size);
            for idx in 0..chunks {
                let id = ChunkId {
                    ino: attr.ino.0,
                    idx,
                };
                self.chain_of(&attr, idx).delete(id);
            }
        }
        Ok(())
    }

    /// The batch-write API (§VII-A): writes issued in parallel across
    /// chunks/chains — "significantly faster than normal writes".
    pub fn batch_write(
        self: &Arc<Self>,
        attr: &FileAttr,
        parts: Vec<(u64, Bytes)>,
    ) -> Result<usize, FsError> {
        let results: Vec<Result<usize, FsError>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|(off, data)| {
                    let client = Arc::clone(self);
                    let attr = attr.clone();
                    let off = *off;
                    let data = data.clone();
                    s.spawn(move || client.write_chunk(&attr, off, data))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer panicked"))
                .collect()
        });
        let mut total = 0;
        for r in results {
            total += r?;
        }
        let end = parts
            .iter()
            .map(|(off, data)| off + data.len() as u64)
            .max()
            .unwrap_or(0);
        self.meta.grow_size(attr.ino, end)?;
        Ok(total)
    }

    /// The batch-read API: parallel reads under the RTS sender cap.
    pub fn batch_read(
        self: &Arc<Self>,
        attr: &FileAttr,
        parts: Vec<(u64, usize)>,
    ) -> Result<Vec<Vec<u8>>, FsError> {
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|(off, len)| {
                    let client = Arc::clone(self);
                    let attr = attr.clone();
                    let (off, len) = (*off, *len);
                    s.spawn(move || client.read_at(&attr, off, len))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use crate::kvstore::KvStore;
    use crate::meta::ROOT;
    use crate::target::{Disk, StorageTarget};

    fn setup(chunk_size: u64, stripe: u64) -> (Arc<Fs3Client>, FileAttr) {
        // 6 chains × 2 replicas over 4 disks (each disk serves targets of
        // multiple chains, like SSDs serving multiple storage targets).
        let disks: Vec<_> = (0..4).map(|_| Disk::new(64 << 20)).collect();
        let chains: Vec<_> = (0..6)
            .map(|c| {
                let reps = (0..2)
                    .map(|r| StorageTarget::new(format!("c{c}r{r}"), disks[(c + r) % 4].clone()))
                    .collect();
                Chain::new(c, reps)
            })
            .collect();
        let table = Arc::new(ChainTable::new(chains));
        let meta = MetaService::new(KvStore::new(8, 2), table.len());
        let client = Fs3Client::new(meta, table, 8);
        let attr = client
            .meta()
            .create(ROOT, "file", chunk_size, stripe)
            .unwrap();
        (client, attr)
    }

    #[test]
    fn write_read_roundtrip_across_chunks() {
        let (c, attr) = setup(16, 3);
        let data: Vec<u8> = (0..100u8).collect();
        assert_eq!(c.write_at(&attr, 0, &data).unwrap(), 100);
        assert_eq!(c.read_at(&attr, 0, 100).unwrap(), data);
        assert_eq!(c.meta().stat(attr.ino).unwrap().size, 100);
    }

    #[test]
    fn unaligned_offsets() {
        let (c, attr) = setup(16, 2);
        c.write_at(&attr, 0, &[0xAA; 64]).unwrap();
        c.write_at(&attr, 10, &[0xBB; 20]).unwrap();
        let got = c.read_at(&attr, 0, 64).unwrap();
        assert!(got[..10].iter().all(|&b| b == 0xAA));
        assert!(got[10..30].iter().all(|&b| b == 0xBB));
        assert!(got[30..].iter().all(|&b| b == 0xAA));
        // Partial mid-file read.
        assert_eq!(
            c.read_at(&attr, 25, 10).unwrap(),
            vec![0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA]
        );
    }

    #[test]
    fn holes_read_as_zeros() {
        let (c, attr) = setup(16, 2);
        c.write_at(&attr, 40, &[7u8; 8]).unwrap();
        let got = c.read_at(&attr, 0, 48).unwrap();
        assert!(got[..40].iter().all(|&b| b == 0));
        assert!(got[40..].iter().all(|&b| b == 7));
    }

    #[test]
    fn eof_and_short_reads() {
        let (c, attr) = setup(16, 2);
        c.write_at(&attr, 0, &[1u8; 20]).unwrap();
        assert_eq!(c.read_at(&attr, 20, 1), Err(FsError::Eof));
        assert_eq!(c.read_at(&attr, 15, 100).unwrap(), vec![1u8; 5]);
    }

    #[test]
    fn chunks_spread_over_stripe_chains() {
        let (c, attr) = setup(16, 3);
        c.write_at(&attr, 0, &[5u8; 16 * 6]).unwrap();
        // Chunks 0..6 with stripe 3 → exactly 3 distinct chains used.
        let mut used: Vec<usize> = (0..6).map(|i| c.chain_of(&attr, i).id()).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn batch_write_then_batch_read() {
        let (c, attr) = setup(1 << 10, 4);
        let parts: Vec<(u64, Bytes)> = (0..8u64)
            .map(|i| (i * 1024, Bytes::from(vec![i as u8; 1024])))
            .collect();
        assert_eq!(c.batch_write(&attr, parts).unwrap(), 8 * 1024);
        let reads = c
            .batch_read(&attr, (0..8u64).map(|i| (i * 1024, 1024)).collect())
            .unwrap();
        for (i, r) in reads.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 1024]);
        }
    }

    #[test]
    fn concurrent_partial_writes_to_one_chunk_do_not_lose_updates() {
        // Regression: the read-modify-write of partial chunk writes runs
        // under the chain's per-object lock, so concurrent writers to
        // disjoint ranges of the same chunk both land.
        let (c, attr) = setup(1 << 10, 2);
        c.write_at(&attr, 0, &[0u8; 1 << 10]).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let c = Arc::clone(&c);
                let attr = attr.clone();
                s.spawn(move || {
                    // Each writer owns a disjoint 128-byte range, written
                    // many times to stretch the race window.
                    for _ in 0..50 {
                        c.write_at(&attr, t as u64 * 128, &[t + 1; 128]).unwrap();
                    }
                });
            }
        });
        let got = c.read_at(&attr, 0, 1 << 10).unwrap();
        for t in 0..8u8 {
            let seg = &got[t as usize * 128..(t as usize + 1) * 128];
            assert!(
                seg.iter().all(|&b| b == t + 1),
                "writer {t}'s range was clobbered"
            );
        }
    }

    fn setup_with_targets(
        chunk_size: u64,
    ) -> (Arc<Fs3Client>, FileAttr, Vec<Vec<Arc<StorageTarget>>>) {
        let chains_targets: Vec<Vec<Arc<StorageTarget>>> = (0..2)
            .map(|c| {
                (0..2)
                    .map(|r| StorageTarget::new(format!("c{c}r{r}"), Disk::new(64 << 20)))
                    .collect()
            })
            .collect();
        let chains: Vec<_> = chains_targets
            .iter()
            .enumerate()
            .map(|(c, reps)| Chain::new(c, reps.clone()))
            .collect();
        let table = Arc::new(ChainTable::new(chains));
        let meta = MetaService::new(KvStore::new(8, 2), table.len());
        let client = Fs3Client::new(meta, table, 8);
        let attr = client.meta().create(ROOT, "file", chunk_size, 2).unwrap();
        (client, attr, chains_targets)
    }

    #[test]
    fn writes_ride_through_failover_via_retry_hook() {
        let (c, attr, targets) = setup_with_targets(64);
        c.write_at(&attr, 0, &[1u8; 128]).unwrap();
        // Kill one replica of chain 0: the next write to it bounces with
        // Unavailable, the failover hook repairs the chain (drops the dead
        // member), and the retry succeeds.
        targets[0][1].fail();
        let table = Arc::clone(&c.table);
        let repairs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let repairs_hook = Arc::clone(&repairs);
        c.set_failover_handler(Arc::new(move |chain_id| {
            table.chains()[chain_id].remove_dead();
            repairs_hook.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        c.write_at(&attr, 0, &[2u8; 128]).unwrap();
        assert!(repairs.load(std::sync::atomic::Ordering::Relaxed) >= 1);
        assert_eq!(c.read_at(&attr, 0, 128).unwrap(), vec![2u8; 128]);
    }

    #[test]
    fn retry_is_bounded_without_a_repair() {
        let (c, attr, targets) = setup_with_targets(64);
        c.write_at(&attr, 0, &[1u8; 64]).unwrap();
        for reps in &targets {
            for t in reps {
                t.fail();
            }
        }
        // No failover handler: the error surfaces after max_attempts.
        assert_eq!(
            c.write_at(&attr, 0, &[2u8; 64]),
            Err(FsError::Chain(ChainError::Unavailable))
        );
    }

    #[test]
    fn concurrent_clients_distinct_files() {
        let (c, _) = setup(256, 2);
        std::thread::scope(|s| {
            for t in 0..6 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let attr = c.meta().create(ROOT, &format!("t{t}"), 256, 2).unwrap();
                    let data = vec![t as u8; 1000];
                    c.write_at(&attr, 0, &data).unwrap();
                    assert_eq!(c.read_at(&attr, 0, 1000).unwrap(), data);
                });
            }
        });
    }
}
