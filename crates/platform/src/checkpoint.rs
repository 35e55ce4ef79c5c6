//! The checkpoint manager (§VII-A), on top of the real 3FS client.
//!
//! "Parameters and optimization states are divided into chunks and written
//! to 3FS using the 3FS batch write API ... During the saving process,
//! each tensor is recorded with its index and the offset within the
//! checkpoint, which makes the location of tensors more convenient during
//! the loading process." Saves run on a background thread so training is
//! never blocked; loads verify per-tensor checksums.

use ff_3fs::client::{Fs3Client, FsError};
use ff_3fs::meta::{FileAttr, MetaError, ROOT};
use ff_obs::{Recorder, TrackId};
use ff_util::bytes::Bytes;
use ff_util::sync::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One tensor's location inside a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorIndex {
    /// Tensor name.
    pub name: String,
    /// Byte offset within the checkpoint file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// FNV-1a checksum of the bytes.
    pub checksum: u64,
}

/// A saved checkpoint's metadata: the step and the tensor index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Training step the checkpoint captures.
    pub step: u64,
    /// Per-tensor locations.
    pub tensors: Vec<TensorIndex>,
}

/// Errors from checkpoint operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying file-system failure.
    Fs(FsError),
    /// A tensor's checksum did not match on load (§VII-C's silent data
    /// corruption made visible).
    Corrupt(String),
    /// No checkpoint found.
    Missing,
}

impl From<FsError> for CkptError {
    fn from(e: FsError) -> Self {
        CkptError::Fs(e)
    }
}
impl From<MetaError> for CkptError {
    fn from(e: MetaError) -> Self {
        CkptError::Fs(FsError::Meta(e))
    }
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Fs(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CkptError::Missing => write!(f, "no checkpoint found"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for ff_util::FfError {
    fn from(e: CkptError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Checkpoint, e.to_string(), e)
    }
}

/// FNV-1a over 8-byte words (plus a byte-wise tail and a length fold):
/// the same error-detection role as byte-wise FNV at ~8× the speed —
/// checksumming must not be the checkpoint bottleneck.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let (words, tail) = data.as_chunks::<8>();
    for &w in words {
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(0x100000001b3);
    }
    for &b in tail {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ (data.len() as u64)
}

/// The checkpoint manager: a directory of `step-N.bin` + `step-N.idx`
/// pairs on 3FS.
pub struct CheckpointManager {
    client: Arc<Fs3Client>,
    dir: FileAttr,
    chunk_bytes: u64,
    /// In-flight background saves, reaped opportunistically.
    pending: Mutex<Vec<JoinHandle<Result<CheckpointMeta, CkptError>>>>,
    /// First background-save failure not yet reported to a caller. A
    /// failed async save must never vanish silently: the next `save`,
    /// `load` or [`wait_saves`](Self::wait_saves) returns it, and `Drop`
    /// complains about anything still unclaimed.
    async_error: Mutex<Option<CkptError>>,
    /// Observability sink: saves/loads become spans keyed to the *step*
    /// (a logical clock — wall time would ruin trace determinism).
    obs: Mutex<Option<(Arc<Recorder>, TrackId)>>,
}

impl CheckpointManager {
    /// Create (or reopen) the checkpoint directory `name`.
    pub fn new(
        client: Arc<Fs3Client>,
        name: &str,
        chunk_bytes: u64,
    ) -> Result<Arc<Self>, CkptError> {
        let dir = match client.meta().mkdir(ROOT, name) {
            Ok(d) => d,
            Err(MetaError::Exists) => {
                let ino = client.meta().lookup(ROOT, name)?;
                client.meta().stat(ino)?
            }
            Err(e) => return Err(e.into()),
        };
        Ok(Arc::new(CheckpointManager {
            client,
            dir,
            chunk_bytes: chunk_bytes.max(1),
            pending: Mutex::new(Vec::new()),
            async_error: Mutex::new(None),
            obs: Mutex::new(None),
        }))
    }

    /// Attach an observability recorder: each save/load becomes a span on
    /// `track` at `ts = step × 1s` (matching the per-step timeline the
    /// training loop records), with the byte volume as the span value.
    pub fn attach_recorder(&self, rec: &Arc<Recorder>, track: &str) {
        let id = rec.track(track);
        *self.obs.lock() = Some((Arc::clone(rec), id));
    }

    fn note(&self, name: &str, step: u64, bytes: u64, instant: bool) {
        if let Some((rec, track)) = self.obs.lock().as_ref() {
            let ts = step.saturating_mul(1_000_000_000);
            if instant {
                rec.instant(*track, name, ts, bytes as f64);
            } else {
                rec.span(*track, name, ts, bytes.max(1), bytes as f64);
            }
        }
    }

    /// The 3FS client the manager writes through.
    pub fn client(&self) -> &Arc<Fs3Client> {
        &self.client
    }

    /// Join completed background saves, stashing the first failure.
    /// With `block`, wait for every in-flight save.
    fn reap(&self, block: bool) {
        let handles: Vec<_> = {
            let mut pending = self.pending.lock();
            if block {
                pending.drain(..).collect()
            } else {
                let mut done = Vec::new();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].is_finished() {
                        done.push(pending.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                done
            }
        };
        for h in handles {
            let result = h.join().unwrap_or(Err(CkptError::Corrupt(
                "background save thread panicked".into(),
            )));
            if let Err(e) = result {
                self.async_error.lock().get_or_insert(e);
            }
        }
    }

    /// The stashed background-save failure, if any, clearing it.
    fn take_async_error(&self) -> Option<CkptError> {
        self.reap(false);
        self.async_error.lock().take()
    }

    /// Block until all background saves land; the first failure (from
    /// these or any earlier async save) is returned exactly once.
    pub fn wait_saves(&self) -> Result<(), CkptError> {
        self.reap(true);
        match self.async_error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Save `tensors` as checkpoint `step` via the batch-write API.
    /// Returns the metadata (also persisted as the `.idx` file).
    ///
    /// Steps are write-once: saving a step that already exists returns
    /// `CkptError::Fs(FsError::Meta(MetaError::Exists))` — never a silent
    /// overwrite of a checkpoint a recovery might be reading. Re-saving
    /// after a rollback requires pruning or a fresh step number.
    pub fn save(
        &self,
        step: u64,
        tensors: &[(String, Vec<u8>)],
    ) -> Result<CheckpointMeta, CkptError> {
        if let Some(e) = self.take_async_error() {
            return Err(e);
        }
        self.save_inner(step, tensors)
    }

    fn save_inner(
        &self,
        step: u64,
        tensors: &[(String, Vec<u8>)],
    ) -> Result<CheckpointMeta, CkptError> {
        let file = self.client.meta().create(
            self.dir.ino,
            &format!("step-{step:012}.bin"),
            self.chunk_bytes,
            4,
        )?;
        // Lay tensors out chunk-aligned: parallel batch writers then never
        // share a file chunk, so no read-modify-write races between the
        // writer threads (and chunk-replace writes skip the read entirely).
        let mut index = Vec::with_capacity(tensors.len());
        let mut parts: Vec<(u64, Bytes)> = Vec::new();
        let mut offset = 0u64;
        for (name, data) in tensors {
            offset = offset.div_ceil(self.chunk_bytes) * self.chunk_bytes;
            index.push(TensorIndex {
                name: name.clone(),
                offset,
                len: data.len() as u64,
                checksum: fnv1a(data),
            });
            // One copy into a refcounted buffer; chunk parts are zero-copy
            // slices of it, and chunk-aligned parts go down the chain
            // without further copies.
            let shared = Bytes::copy_from_slice(data);
            let mut at = 0usize;
            while at < data.len() {
                let n = (self.chunk_bytes as usize).min(data.len() - at);
                parts.push((offset + at as u64, shared.slice(at..at + n)));
                at += n;
            }
            offset += data.len() as u64;
        }
        let client = Arc::clone(&self.client);
        client.batch_write(&file, parts)?;
        // Persist the index.
        let meta = CheckpointMeta {
            step,
            tensors: index,
        };
        let idx_bytes = encode_meta(&meta);
        let idx = self.client.meta().create(
            self.dir.ino,
            &format!("step-{step:012}.idx"),
            self.chunk_bytes,
            1,
        )?;
        self.client.write_at(&idx, 0, &idx_bytes)?;
        let total: u64 = meta.tensors.iter().map(|t| t.len).sum();
        self.note(&format!("ckpt save step {step}"), step, total, false);
        Ok(meta)
    }

    /// Save on a background thread ("asynchronously transferred ... with
    /// checkpoint saving performed periodically"): the training loop keeps
    /// going while 3FS absorbs the write. A failure is *not* lost with the
    /// thread: it resurfaces from the next `save`/`load`/
    /// [`wait_saves`](Self::wait_saves) call, and a failed save is never
    /// visible through [`latest_step`](Self::latest_step).
    pub fn save_async(self: &Arc<Self>, step: u64, tensors: Vec<(String, Vec<u8>)>) {
        self.reap(false);
        let mgr = Arc::clone(self);
        let handle = std::thread::spawn(move || mgr.save_inner(step, &tensors));
        self.pending.lock().push(handle);
    }

    /// All fully-written checkpoint steps, ascending. A step counts only
    /// once its index file exists *and* is non-empty — the index is
    /// written last, so interrupted or failed saves never appear.
    pub fn steps(&self) -> Result<Vec<u64>, CkptError> {
        let entries = self.client.meta().readdir(self.dir.ino)?;
        let mut steps = Vec::new();
        for (name, ino) in &entries {
            let step = match name
                .strip_prefix("step-")
                .and_then(|s| s.strip_suffix(".idx"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                Some(s) => s,
                None => continue,
            };
            if self.client.meta().stat(*ino)?.size > 0 {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// The most recent checkpoint step, if any.
    pub fn latest_step(&self) -> Result<Option<u64>, CkptError> {
        Ok(self.steps()?.pop())
    }

    /// Delete checkpoint `step` (index first, so a concurrent
    /// [`latest_step`](Self::latest_step) never selects a half-deleted
    /// checkpoint). Used to discard a checkpoint that failed its checksum
    /// so the step number can be written again after a rollback.
    pub fn remove_step(&self, step: u64) -> Result<(), CkptError> {
        self.client
            .meta()
            .unlink(self.dir.ino, &format!("step-{step:012}.idx"))?;
        self.client
            .meta()
            .unlink(self.dir.ino, &format!("step-{step:012}.bin"))?;
        Ok(())
    }

    /// Load checkpoint `step` via the batch-read API, verifying checksums.
    pub fn load(&self, step: u64) -> Result<Vec<(String, Vec<u8>)>, CkptError> {
        if let Some(e) = self.take_async_error() {
            return Err(e);
        }
        let idx_ino = self
            .client
            .meta()
            .lookup(self.dir.ino, &format!("step-{step:012}.idx"))
            .map_err(|_| CkptError::Missing)?;
        let idx_attr = self.client.meta().stat(idx_ino)?;
        let idx_bytes = self.client.read_at(&idx_attr, 0, idx_attr.size as usize)?;
        let meta =
            decode_meta(&idx_bytes).ok_or_else(|| CkptError::Corrupt("checkpoint index".into()))?;
        let bin_ino = self
            .client
            .meta()
            .lookup(self.dir.ino, &format!("step-{step:012}.bin"))
            .map_err(|_| CkptError::Missing)?;
        let bin_attr = self.client.meta().stat(bin_ino)?;
        let parts: Vec<(u64, usize)> = meta
            .tensors
            .iter()
            .map(|t| (t.offset, t.len as usize))
            .collect();
        let blobs = self.client.batch_read(&bin_attr, parts)?;
        let mut out = Vec::with_capacity(meta.tensors.len());
        for (t, blob) in meta.tensors.iter().zip(blobs) {
            if fnv1a(&blob) != t.checksum {
                self.note(&format!("ckpt corrupt step {step}"), step, t.len, true);
                return Err(CkptError::Corrupt(t.name.clone()));
            }
            out.push((t.name.clone(), blob));
        }
        let total: u64 = meta.tensors.iter().map(|t| t.len).sum();
        self.note(&format!("ckpt load step {step}"), step, total, false);
        Ok(out)
    }

    /// Delete old checkpoints, keeping the newest `keep`.
    pub fn prune(&self, keep: usize) -> Result<usize, CkptError> {
        let entries = self.client.meta().readdir(self.dir.ino)?;
        let mut steps: Vec<u64> = entries
            .iter()
            .filter_map(|(n, _)| {
                n.strip_prefix("step-")
                    .and_then(|s| s.strip_suffix(".idx"))
                    .and_then(|s| s.parse().ok())
            })
            .collect();
        steps.sort_unstable();
        let evict = steps.len().saturating_sub(keep);
        for &s in &steps[..evict] {
            let _ = self
                .client
                .meta()
                .unlink(self.dir.ino, &format!("step-{s:012}.idx"));
            let _ = self
                .client
                .meta()
                .unlink(self.dir.ino, &format!("step-{s:012}.bin"));
        }
        Ok(evict)
    }
}

impl Drop for CheckpointManager {
    fn drop(&mut self) {
        // Background threads hold an Arc to the manager, so by the time
        // Drop runs they have all finished; joining cannot block.
        self.reap(true);
        if let Some(e) = self.async_error.lock().take() {
            eprintln!(
                "CheckpointManager dropped with an unreported background save failure: {e:?}"
            );
        }
    }
}

fn encode_meta(meta: &CheckpointMeta) -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&meta.step.to_be_bytes());
    v.extend_from_slice(&(meta.tensors.len() as u64).to_be_bytes());
    for t in &meta.tensors {
        v.extend_from_slice(&(t.name.len() as u32).to_be_bytes());
        v.extend_from_slice(t.name.as_bytes());
        v.extend_from_slice(&t.offset.to_be_bytes());
        v.extend_from_slice(&t.len.to_be_bytes());
        v.extend_from_slice(&t.checksum.to_be_bytes());
    }
    v
}

/// Decode an index file; `None` on any truncation or malformed field, so
/// a partially written index surfaces as corruption instead of a panic.
fn decode_meta(b: &[u8]) -> Option<CheckpointMeta> {
    let u64at = |at: usize| Some(u64::from_be_bytes(b.get(at..at + 8)?.try_into().ok()?));
    let step = u64at(0)?;
    let n = usize::try_from(u64at(8)?).ok()?;
    let mut at = 16;
    let mut tensors = Vec::new();
    for _ in 0..n {
        let name_len = u32::from_be_bytes(b.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let name = String::from_utf8(b.get(at..at + name_len)?.to_vec()).ok()?;
        at += name_len;
        let offset = u64at(at)?;
        let len = u64at(at + 8)?;
        let checksum = u64at(at + 16)?;
        at += 24;
        tensors.push(TensorIndex {
            name,
            offset,
            len,
            checksum,
        });
    }
    Some(CheckpointMeta { step, tensors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_3fs::chain::{Chain, ChainTable};
    use ff_3fs::kvstore::KvStore;
    use ff_3fs::meta::MetaService;
    use ff_3fs::target::{Disk, StorageTarget};

    fn client() -> Arc<Fs3Client> {
        let chains: Vec<_> = (0..8)
            .map(|c| {
                Chain::new(
                    c,
                    vec![
                        StorageTarget::new(format!("c{c}a"), Disk::new(256 << 20)),
                        StorageTarget::new(format!("c{c}b"), Disk::new(256 << 20)),
                    ],
                )
            })
            .collect();
        let table = Arc::new(ChainTable::new(chains));
        let meta = MetaService::new(KvStore::new(8, 2), table.len());
        Fs3Client::new(meta, table, 16)
    }

    fn fake_tensors(seed: u8, n: usize, bytes: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let data: Vec<u8> = (0..bytes)
                    .map(|j| (seed as usize + i * 31 + j) as u8)
                    .collect();
                (format!("layer{i}.weight"), data)
            })
            .collect()
    }

    #[test]
    fn save_load_roundtrip() {
        let mgr = CheckpointManager::new(client(), "ckpt", 64 << 10).unwrap();
        let tensors = fake_tensors(1, 8, 100_000);
        let meta = mgr.save(100, &tensors).unwrap();
        assert_eq!(meta.tensors.len(), 8);
        let loaded = mgr.load(100).unwrap();
        assert_eq!(loaded, tensors);
    }

    #[test]
    fn index_records_offsets_in_layout_order() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        let tensors = fake_tensors(2, 3, 1000);
        let meta = mgr.save(1, &tensors).unwrap();
        // Offsets are chunk-aligned (1 KiB chunks) and monotone.
        assert_eq!(meta.tensors[0].offset, 0);
        assert_eq!(meta.tensors[1].offset, 1024);
        assert_eq!(meta.tensors[2].offset, 2048);
        for t in &meta.tensors {
            assert_eq!(t.offset % 1024, 0);
            assert_eq!(t.len, 1000);
        }
    }

    #[test]
    fn latest_step_and_prune() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        for step in [10u64, 20, 30] {
            mgr.save(step, &fake_tensors(3, 2, 500)).unwrap();
        }
        assert_eq!(mgr.latest_step().unwrap(), Some(30));
        assert_eq!(mgr.prune(1).unwrap(), 2);
        assert_eq!(mgr.latest_step().unwrap(), Some(30));
        assert!(matches!(mgr.load(10), Err(CkptError::Missing)));
        // The survivor still loads.
        assert_eq!(mgr.load(30).unwrap().len(), 2);
    }

    #[test]
    fn async_save_does_not_block() {
        let mgr = CheckpointManager::new(client(), "ckpt", 16 << 10).unwrap();
        mgr.save_async(5, fake_tensors(4, 4, 200_000));
        // "Training" continues here...
        mgr.wait_saves().unwrap();
        assert_eq!(mgr.load(5).unwrap().len(), 4);
    }

    #[test]
    fn async_save_failure_surfaces_on_next_call() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        mgr.save(5, &fake_tensors(1, 2, 500)).unwrap();
        // Steps are write-once, so this background save must fail.
        mgr.save_async(5, fake_tensors(1, 2, 500));
        mgr.reap(true);
        let err = mgr.save(6, &fake_tensors(1, 2, 500)).unwrap_err();
        assert!(
            matches!(err, CkptError::Fs(FsError::Meta(MetaError::Exists))),
            "{err:?}"
        );
        // Reported exactly once: the retry goes through, state intact.
        mgr.save(6, &fake_tensors(1, 2, 500)).unwrap();
        assert_eq!(mgr.latest_step().unwrap(), Some(6));
    }

    #[test]
    fn async_save_failure_surfaces_on_load_and_wait() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        mgr.save(3, &fake_tensors(2, 1, 100)).unwrap();
        mgr.save_async(3, fake_tensors(2, 1, 100));
        mgr.reap(true);
        assert!(mgr.load(3).is_err(), "pending failure must preempt load");
        // Once reported, the checkpoint itself is fine.
        assert_eq!(mgr.load(3).unwrap().len(), 1);
        mgr.save_async(3, fake_tensors(2, 1, 100));
        assert!(mgr.wait_saves().is_err());
        assert!(mgr.wait_saves().is_ok(), "error reported exactly once");
    }

    #[test]
    fn partial_index_is_never_the_latest_step() {
        let c = client();
        let mgr = CheckpointManager::new(c.clone(), "ckpt", 1 << 10).unwrap();
        mgr.save(10, &fake_tensors(6, 1, 100)).unwrap();
        // An index file created but never written — the footprint of a
        // save that died between create and write.
        c.meta()
            .create(mgr.dir.ino, &format!("step-{:012}.idx", 99u64), 1 << 10, 1)
            .unwrap();
        assert_eq!(mgr.steps().unwrap(), vec![10]);
        assert_eq!(mgr.latest_step().unwrap(), Some(10));
    }

    #[test]
    fn truncated_index_reads_as_corrupt() {
        let c = client();
        let mgr = CheckpointManager::new(c.clone(), "ckpt", 1 << 10).unwrap();
        mgr.save(7, &fake_tensors(6, 2, 300)).unwrap();
        // Smash the tensor-count field: the index now claims far more
        // entries than the file holds, as a half-written index would.
        let attr = c.meta().resolve("/ckpt/step-000000000007.idx").unwrap();
        c.write_at(&attr, 8, &[0xFF; 8]).unwrap();
        match mgr.load(7) {
            Err(CkptError::Corrupt(what)) => assert_eq!(what, "checkpoint index"),
            other => panic!("expected index corruption, got {other:?}"),
        }
    }

    #[test]
    fn remove_step_allows_rewriting_after_rollback() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        mgr.save(20, &fake_tensors(1, 2, 400)).unwrap();
        assert!(
            mgr.save(20, &fake_tensors(9, 2, 400)).is_err(),
            "write-once"
        );
        mgr.remove_step(20).unwrap();
        assert_eq!(mgr.latest_step().unwrap(), None);
        let meta = mgr.save(20, &fake_tensors(9, 2, 400)).unwrap();
        assert_eq!(meta.step, 20);
        assert_eq!(mgr.load(20).unwrap(), fake_tensors(9, 2, 400));
    }

    #[test]
    fn corruption_detected_on_load() {
        let c = client();
        let mgr = CheckpointManager::new(c.clone(), "ckpt", 1 << 10).unwrap();
        mgr.save(7, &fake_tensors(5, 2, 4000)).unwrap();
        // Flip a byte in the checkpoint file behind the manager's back.
        let attr = c.meta().resolve("/ckpt/step-000000000007.bin").unwrap();
        let mut byte = c.read_at(&attr, 123, 1).unwrap();
        byte[0] ^= 0xFF;
        c.write_at(&attr, 123, &byte).unwrap();
        match mgr.load(7) {
            Err(CkptError::Corrupt(name)) => assert_eq!(name, "layer0.weight"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn meta_encoding_roundtrip() {
        let meta = CheckpointMeta {
            step: 42,
            tensors: vec![TensorIndex {
                name: "w".into(),
                offset: 7,
                len: 9,
                checksum: 0xdeadbeef,
            }],
        };
        assert_eq!(decode_meta(&encode_meta(&meta)), Some(meta.clone()));
        // Any truncation decodes to None, not a panic.
        let full = encode_meta(&meta);
        for cut in 0..full.len() {
            assert_eq!(decode_meta(&full[..cut]), None, "truncated at {cut}");
        }
    }

    #[test]
    fn word_wise_checksum_is_pinned() {
        // 45 = 8·5 + 5 bytes: five whole words, then the byte-wise tail.
        let data: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        assert_eq!(fnv1a(&data), 0x4368_f85a_5e47_747c);
    }

    #[test]
    fn missing_checkpoint_reported() {
        let mgr = CheckpointManager::new(client(), "ckpt", 1 << 10).unwrap();
        assert!(matches!(mgr.load(99), Err(CkptError::Missing)));
        assert_eq!(mgr.latest_step().unwrap(), None);
    }
}
