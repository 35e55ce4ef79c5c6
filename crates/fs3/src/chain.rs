//! CRAQ — Chain Replication with Apportioned Queries (§VI-B3).
//!
//! Writes enter at the head and propagate to the tail as *dirty* versions;
//! the tail's write commits, and commit notifications travel back so every
//! replica can discard superseded versions. Reads go to **any** replica:
//! a clean object is served locally; a dirty one costs a version query to
//! the tail (never a data transfer). Writes to one object are serialized
//! (the head's role in CRAQ); distinct objects proceed fully in parallel,
//! which is what spreads load over every SSD.
//!
//! Membership is dynamic: a failed replica is dropped by
//! [`Chain::remove_dead`] (survivors reconcile dirty versions against the
//! new tail and keep serving degraded), and redundancy is restored by
//! recruiting a spare through a background [`ResyncSession`] — writes
//! during the re-sync land on both the old members and the recruit, and
//! the recruit becomes a full member only once every committed object has
//! been copied.
//!
//! [`ResyncSession`]: crate::resync::ResyncSession

use crate::resync::ResyncSession;
use crate::target::{ChunkId, LocalRead, StorageTarget, StoreOutcome};
use ff_obs::{Recorder, TrackId};
use ff_util::bytes::Bytes;
use ff_util::sync::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Observability sink for one chain (see [`Chain::attach_recorder`]).
struct ChainObs {
    rec: Arc<Recorder>,
    track: TrackId,
}

/// Errors from chain operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A replica's disk was full.
    DiskFull,
    /// The object does not exist (never written or fully truncated).
    NotFound,
    /// The chain has no replicas left.
    Empty,
    /// A member has failed and the chain cannot serve until it is
    /// reconfigured; retry after the manager repairs the chain.
    Unavailable,
    /// A membership change is in progress; retry shortly.
    Reconfiguring,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::DiskFull => write!(f, "replica disk full"),
            ChainError::NotFound => write!(f, "object not found"),
            ChainError::Empty => write!(f, "chain has no replicas"),
            ChainError::Unavailable => write!(f, "chain member failed; awaiting reconfiguration"),
            ChainError::Reconfiguring => write!(f, "chain membership change in progress"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<ChainError> for ff_util::FfError {
    fn from(e: ChainError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Storage, e.to_string(), e)
    }
}

/// The chain's membership: ordered full members plus at most one recruit
/// being re-synced in the background.
struct Members {
    /// Full members, head first. The last one is the tail (commit
    /// authority and dirty-read resolver).
    active: Vec<Arc<StorageTarget>>,
    /// A recruit receiving a background re-sync. It takes every new write
    /// (dual-landing) but serves no reads and holds no commit authority
    /// until promoted.
    joining: Option<Arc<StorageTarget>>,
    /// Configuration epoch; bumped on every membership change.
    epoch: u64,
    /// Set while the manager performs membership surgery: writers back
    /// off with [`ChainError::Reconfiguring`] instead of piling onto the
    /// membership lock.
    reconfiguring: bool,
}

/// A replication chain over an ordered set of storage targets.
///
/// ```
/// use ff_3fs::chain::Chain;
/// use ff_3fs::target::{ChunkId, Disk, StorageTarget};
/// use ff_util::bytes::Bytes;
///
/// let chain = Chain::new(0, vec![
///     StorageTarget::new("head", Disk::new(1 << 20)),
///     StorageTarget::new("tail", Disk::new(1 << 20)),
/// ]);
/// let id = ChunkId { ino: 1, idx: 0 };
/// chain.write(id, Bytes::from_static(b"hello")).unwrap();
/// // Apportioned read: either replica serves the committed data.
/// assert_eq!(chain.read_at(id, 0).unwrap(), Bytes::from_static(b"hello"));
/// assert_eq!(chain.read_at(id, 1).unwrap(), Bytes::from_static(b"hello"));
/// ```
pub struct Chain {
    id: usize,
    members: RwLock<Members>,
    /// Per-object write serialization + last version (the head's role).
    heads: Mutex<HashMap<ChunkId, Arc<Mutex<u64>>>>,
    /// Round-robin read distribution.
    rr: AtomicUsize,
    obs: RwLock<Option<ChainObs>>,
}

impl Chain {
    /// A chain with the given replicas, head first.
    pub fn new(id: usize, targets: Vec<Arc<StorageTarget>>) -> Arc<Chain> {
        assert!(!targets.is_empty(), "chain needs at least one replica");
        Arc::new(Chain {
            id,
            members: RwLock::new(Members {
                active: targets,
                joining: None,
                epoch: 0,
                reconfiguring: false,
            }),
            heads: Mutex::new(HashMap::new()),
            rr: AtomicUsize::new(0),
            obs: RwLock::new(None),
        })
    }

    /// Attach an observability recorder: every committed write/update
    /// becomes a span on `track`. Timestamps are the object's committed
    /// *version* (scaled to µs) — a logical clock that is deterministic
    /// even when distinct objects are written from racing threads, unlike
    /// arrival order.
    pub fn attach_recorder(&self, rec: &Arc<Recorder>, track: &str) {
        let id = rec.track(track);
        *self.obs.write() = Some(ChainObs {
            rec: Arc::clone(rec),
            track: id,
        });
    }

    fn note_write(&self, op: &str, id: ChunkId, ver: u64, len: usize) {
        if let Some(obs) = self.obs.read().as_ref() {
            let name = format!("{op} {}.{}", id.ino, id.idx);
            obs.rec.span(
                obs.track,
                &name,
                ver * 1000,
                (len as u64).max(1),
                len as f64,
            );
            obs.rec.counter_add("fs3/write_bytes", len as f64);
            obs.rec.observe("fs3/write_size", len as u64);
        }
    }

    /// Chain id within the chain table.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current full-member count (a joining recruit is not counted).
    pub fn replicas(&self) -> usize {
        self.members.read().active.len()
    }

    /// Configuration epoch: bumped on every membership change.
    pub fn epoch(&self) -> u64 {
        self.members.read().epoch
    }

    /// Block or unblock writers with [`ChainError::Reconfiguring`] while
    /// the manager performs membership surgery.
    pub fn set_reconfiguring(&self, on: bool) {
        self.members.write().reconfiguring = on;
    }

    pub(crate) fn object_lock(&self, id: ChunkId) -> Arc<Mutex<u64>> {
        self.heads.lock().entry(id).or_default().clone()
    }

    /// Forward pass (head → tail → recruit, dirty) then commit pass in
    /// reverse. A dead member rolls the write back and reports
    /// `Unavailable` — the write takes effect on no replica until the
    /// chain is reconfigured.
    fn replicate(
        &self,
        m: &Members,
        id: ChunkId,
        ver: u64,
        data: &Bytes,
    ) -> Result<(), ChainError> {
        let mut stored: Vec<&Arc<StorageTarget>> = Vec::with_capacity(m.active.len() + 1);
        for t in m.active.iter().chain(m.joining.iter()) {
            match t.store_dirty(id, ver, data.clone()) {
                StoreOutcome::Stored => stored.push(t),
                StoreOutcome::DiskFull => {
                    for s in &stored {
                        s.abort(id, ver);
                    }
                    return Err(ChainError::DiskFull);
                }
                StoreOutcome::Dead => {
                    for s in &stored {
                        s.abort(id, ver);
                    }
                    return Err(ChainError::Unavailable);
                }
            }
        }
        // Tail commits; the notification propagates back toward the head
        // (the recruit sits past the tail in the forward route).
        for t in m.joining.iter().chain(m.active.iter().rev()) {
            t.commit(id, ver);
        }
        Ok(())
    }

    /// Write (replace) an object's content. Returns the committed version.
    pub fn write(&self, id: ChunkId, data: Bytes) -> Result<u64, ChainError> {
        let lock = self.object_lock(id);
        let mut last = lock.lock();
        // Hold the membership read guard across the whole forward + commit
        // pass: reconfiguration takes the write guard, so membership
        // changes linearize against in-flight writes instead of racing
        // them.
        let m = self.members.read();
        if m.reconfiguring {
            return Err(ChainError::Reconfiguring);
        }
        if m.active.is_empty() {
            return Err(ChainError::Empty);
        }
        let ver = *last + 1;
        self.replicate(&m, id, ver, &data)?;
        *last = ver;
        self.note_write("write", id, ver, data.len());
        Ok(ver)
    }

    /// Read-modify-write an object atomically: `f` receives the current
    /// committed data (None when absent) and returns the replacement. The
    /// per-object write lock is held across the read and the chain write,
    /// so concurrent partial updates cannot lose each other.
    pub fn update(
        &self,
        id: ChunkId,
        f: impl FnOnce(Option<Bytes>) -> Bytes,
    ) -> Result<u64, ChainError> {
        let lock = self.object_lock(id);
        let mut last = lock.lock();
        let m = self.members.read();
        if m.reconfiguring {
            return Err(ChainError::Reconfiguring);
        }
        if m.active.is_empty() {
            return Err(ChainError::Empty);
        }
        let alive: Vec<Arc<StorageTarget>> =
            m.active.iter().filter(|t| t.is_alive()).cloned().collect();
        if alive.is_empty() {
            return Err(ChainError::Unavailable);
        }
        let current = match self.read_with_targets(id, 0, &alive) {
            Ok(d) => Some(d),
            Err(ChainError::NotFound) => None,
            Err(e) => return Err(e),
        };
        let data = f(current);
        let ver = *last + 1;
        self.replicate(&m, id, ver, &data)?;
        *last = ver;
        self.note_write("update", id, ver, data.len());
        Ok(ver)
    }

    /// Snapshot of the replicas eligible to serve reads: live full
    /// members only (a joining recruit never serves reads — it may still
    /// be missing objects).
    fn read_snapshot(&self) -> Result<Vec<Arc<StorageTarget>>, ChainError> {
        let m = self.members.read();
        if m.active.is_empty() {
            return Err(ChainError::Empty);
        }
        let alive: Vec<Arc<StorageTarget>> =
            m.active.iter().filter(|t| t.is_alive()).cloned().collect();
        if alive.is_empty() {
            return Err(ChainError::Unavailable);
        }
        Ok(alive)
    }

    /// Apportioned read from any live replica.
    pub fn read(&self, id: ChunkId) -> Result<Bytes, ChainError> {
        let targets = self.read_snapshot()?;
        let pick = self.rr.fetch_add(1, Ordering::Relaxed) % targets.len();
        self.read_with_targets(id, pick, &targets)
    }

    /// Apportioned read from a specific replica index (tests and load
    /// placement). The index counts live replicas only.
    pub fn read_at(&self, id: ChunkId, replica: usize) -> Result<Bytes, ChainError> {
        let targets = self.read_snapshot()?;
        self.read_with_targets(id, replica, &targets)
    }

    /// The apportioned-read protocol against a fixed replica snapshot.
    /// Retries as a loop (not recursion): a sustained write storm can make
    /// a replica repeatedly observe dirty-with-pruned-committed state, and
    /// each retry must re-read fresh local state.
    fn read_with_targets(
        &self,
        id: ChunkId,
        replica: usize,
        targets: &[Arc<StorageTarget>],
    ) -> Result<Bytes, ChainError> {
        let Some(tail) = targets.last() else {
            return Err(ChainError::Empty);
        };
        let t = &targets[replica % targets.len()];
        loop {
            match t.read_local(id) {
                LocalRead::Clean(d) => return Ok(d),
                LocalRead::Missing => return Err(ChainError::NotFound),
                LocalRead::Dirty(versions) => {
                    // Ask the tail which version is committed. If the
                    // in-flight write hasn't committed yet, wait for it
                    // (CRAQ blocks the read until the tail commits).
                    let mut committed = tail.committed_version(id);
                    let mut spins = 0u32;
                    while committed == 0 {
                        std::thread::yield_now();
                        committed = tail.committed_version(id);
                        spins += 1;
                        assert!(spins < 10_000_000, "commit never arrived");
                    }
                    // Serve the committed version if retained; otherwise a
                    // newer commit pruned it — loop and re-read fresh state.
                    if let Some(d) = versions.get(&committed) {
                        return Ok(d.clone());
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Drop a failed replica by index (manager-driven reconfiguration).
    /// The chain keeps serving with the survivors. Survivors reconcile
    /// dirty versions against the new tail (see [`remove_dead`]).
    ///
    /// [`remove_dead`]: Self::remove_dead
    pub fn remove_replica(&self, index: usize) {
        let mut m = self.members.write();
        assert!(index < m.active.len());
        m.active.remove(index);
        m.epoch += 1;
        Self::reconcile_members(&mut m);
    }

    /// Drop every dead member (failed target detection → reconfiguration).
    /// Returns the names of the members removed. Survivors reconcile their
    /// version state against the new tail: for each object, the tail's
    /// newest version becomes committed everywhere (anything the tail
    /// stored had reached every upstream member), and strictly newer
    /// in-flight versions are aborted (they can no longer commit).
    pub fn remove_dead(&self) -> Vec<String> {
        let mut m = self.members.write();
        let mut removed: Vec<String> = Vec::new();
        m.active.retain(|t| {
            let keep = t.is_alive();
            if !keep {
                removed.push(t.name().to_string());
            }
            keep
        });
        if let Some(j) = &m.joining {
            if !j.is_alive() {
                removed.push(j.name().to_string());
                m.joining = None;
            }
        }
        if removed.is_empty() {
            return removed;
        }
        m.epoch += 1;
        Self::reconcile_members(&mut m);
        removed
    }

    /// The membership-change reconciliation rule, applied under the
    /// membership write guard (no write is in flight).
    fn reconcile_members(m: &mut Members) {
        let Some(tail) = m.active.last().cloned() else {
            return;
        };
        let mut ids: BTreeSet<ChunkId> = BTreeSet::new();
        for t in m.active.iter().chain(m.joining.iter()) {
            ids.extend(t.object_ids());
        }
        for id in ids {
            let keep = tail.newest_version(id);
            for t in m.active.iter().chain(m.joining.iter()) {
                t.reconcile(id, keep);
            }
        }
    }

    /// Start recruiting `recruit`: it becomes the joining member (every
    /// new write dual-lands on it) and the returned work-list is the set
    /// of objects the re-sync session must copy. Fails with
    /// `Reconfiguring` when a recruit is already joining.
    pub(crate) fn begin_recruit(
        &self,
        recruit: Arc<StorageTarget>,
    ) -> Result<Vec<ChunkId>, ChainError> {
        let mut m = self.members.write();
        if m.joining.is_some() {
            return Err(ChainError::Reconfiguring);
        }
        if !recruit.is_alive() {
            return Err(ChainError::Unavailable);
        }
        let tail = m.active.last().ok_or(ChainError::Empty)?;
        if !tail.is_alive() {
            return Err(ChainError::Unavailable);
        }
        let pending = tail.object_ids();
        m.joining = Some(recruit);
        m.epoch += 1;
        Ok(pending)
    }

    /// The replica a re-sync session copies from: the live tail. Verifies
    /// the session is still current (`recruit` is still the joining
    /// member) — a concurrent reconfiguration invalidates the session.
    pub(crate) fn resync_source(
        &self,
        recruit: &Arc<StorageTarget>,
    ) -> Result<Arc<StorageTarget>, ChainError> {
        let m = self.members.read();
        match &m.joining {
            Some(j) if Arc::ptr_eq(j, recruit) => {}
            _ => return Err(ChainError::Reconfiguring),
        }
        if !recruit.is_alive() {
            return Err(ChainError::Unavailable);
        }
        m.active
            .iter()
            .rev()
            .find(|t| t.is_alive())
            .cloned()
            .ok_or(ChainError::Unavailable)
    }

    /// Promote the joining recruit to a full member (the re-sync session
    /// finished copying every committed object).
    pub(crate) fn promote_joining(&self, recruit: &Arc<StorageTarget>) -> Result<(), ChainError> {
        let mut m = self.members.write();
        match m.joining.take() {
            Some(j) if Arc::ptr_eq(&j, recruit) => {
                m.active.push(j);
                m.epoch += 1;
                Ok(())
            }
            other => {
                m.joining = other;
                Err(ChainError::Reconfiguring)
            }
        }
    }

    /// Drop the joining recruit without promoting it (re-sync aborted).
    pub(crate) fn abort_joining(&self) {
        let mut m = self.members.write();
        if m.joining.take().is_some() {
            m.epoch += 1;
        }
    }

    /// Restore redundancy synchronously: recruit a fresh replica as the
    /// new tail, copying every committed object in one foreground re-sync
    /// (the background-paced equivalent is [`ResyncSession`]). On failure
    /// (recruit disk full or a member death mid-copy) the recruit is
    /// wiped and does not join; membership is unchanged.
    pub fn add_replica(self: &Arc<Self>, recruit: Arc<StorageTarget>) -> Result<(), ChainError> {
        let mut session = ResyncSession::begin(Arc::clone(self), recruit)?;
        loop {
            match session.pump(u64::MAX) {
                Ok(p) if p.done => break,
                Ok(_) => continue,
                Err(e) => {
                    let recruit = session.abort();
                    recruit.wipe();
                    return Err(e);
                }
            }
        }
        session.finish()
    }

    /// Delete an object from every replica (file unlink / truncation).
    pub fn delete(&self, id: ChunkId) {
        let lock = self.object_lock(id);
        let _guard = lock.lock();
        let m = self.members.read();
        for t in m.active.iter().chain(m.joining.iter()) {
            t.delete(id);
        }
    }

    /// The full-member targets (diagnostics).
    pub fn target_names(&self) -> Vec<String> {
        self.members
            .read()
            .active
            .iter()
            .map(|t| t.name().to_string())
            .collect()
    }

    /// The joining recruit's name, if a re-sync is in progress.
    pub fn joining_name(&self) -> Option<String> {
        self.members
            .read()
            .joining
            .as_ref()
            .map(|t| t.name().to_string())
    }
}

/// The ordered set of chains files stripe over (§VI-B3: "a chain table
/// contains an ordered set of chains ... the file chunks are assigned to
/// the next k chains starting at the offset").
pub struct ChainTable {
    chains: Vec<Arc<Chain>>,
}

impl ChainTable {
    /// Wrap an ordered chain set.
    pub fn new(chains: Vec<Arc<Chain>>) -> Self {
        assert!(!chains.is_empty());
        ChainTable { chains }
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// True when the table is empty (never: `new` requires chains).
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// The chain storing chunk `chunk_idx` of a file placed at
    /// `(offset, stripe k)`.
    pub fn chain_for(&self, offset: usize, stripe: usize, chunk_idx: u64) -> &Arc<Chain> {
        let stripe = stripe.max(1);
        let slot = offset + (chunk_idx as usize % stripe);
        &self.chains[slot % self.chains.len()]
    }

    /// All chains.
    pub fn chains(&self) -> &[Arc<Chain>] {
        &self.chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Disk;

    fn chunk(i: u64) -> ChunkId {
        ChunkId { ino: 7, idx: i }
    }

    fn test_chain(replicas: usize) -> (Arc<Chain>, Vec<Arc<StorageTarget>>) {
        let targets: Vec<_> = (0..replicas)
            .map(|i| StorageTarget::new(format!("t{i}"), Disk::new(1 << 20)))
            .collect();
        (Chain::new(0, targets.clone()), targets)
    }

    #[test]
    fn write_replicates_to_all() {
        let (chain, targets) = test_chain(3);
        chain.write(chunk(0), Bytes::from_static(b"hello")).unwrap();
        for t in &targets {
            assert_eq!(t.committed_version(chunk(0)), 1);
        }
        // Read from every replica returns the data.
        for r in 0..3 {
            assert_eq!(
                chain.read_at(chunk(0), r).unwrap(),
                Bytes::from_static(b"hello")
            );
        }
    }

    #[test]
    fn versions_increment() {
        let (chain, _) = test_chain(2);
        assert_eq!(chain.write(chunk(0), Bytes::from_static(b"a")).unwrap(), 1);
        assert_eq!(chain.write(chunk(0), Bytes::from_static(b"b")).unwrap(), 2);
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"b"));
    }

    #[test]
    fn missing_object_errors() {
        let (chain, _) = test_chain(2);
        assert_eq!(chain.read(chunk(42)), Err(ChainError::NotFound));
    }

    #[test]
    fn disk_full_rolls_back() {
        let targets = vec![
            StorageTarget::new("big", Disk::new(1 << 20)),
            StorageTarget::new("small", Disk::new(10)),
        ];
        let chain = Chain::new(0, targets.clone());
        let err = chain.write(chunk(0), Bytes::from(vec![0u8; 100]));
        assert_eq!(err, Err(ChainError::DiskFull));
        // The head's partial dirty write was rolled back.
        assert_eq!(targets[0].newest_version(chunk(0)), 0);
        assert_eq!(targets[0].object_count(), 0);
        assert_eq!(chain.read(chunk(0)), Err(ChainError::NotFound));
    }

    #[test]
    fn removing_a_replica_keeps_data_available() {
        let (chain, _) = test_chain(3);
        chain.write(chunk(0), Bytes::from_static(b"safe")).unwrap();
        chain.remove_replica(0); // head dies
        assert_eq!(chain.replicas(), 2);
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"safe"));
        // Writes continue on the survivors.
        chain.write(chunk(0), Bytes::from_static(b"more")).unwrap();
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"more"));
    }

    #[test]
    fn dead_member_fails_writes_until_removed() {
        let (chain, targets) = test_chain(3);
        chain.write(chunk(0), Bytes::from_static(b"pre")).unwrap();
        targets[1].fail();
        // Writes touching the dead member roll back and report Unavailable.
        assert_eq!(
            chain.write(chunk(0), Bytes::from_static(b"x")),
            Err(ChainError::Unavailable)
        );
        // The rollback left every survivor at the committed version.
        assert_eq!(targets[0].newest_version(chunk(0)), 1);
        // Reads keep serving from live replicas (degraded).
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"pre"));
        // Reconfiguration drops the dead member; writes resume.
        assert_eq!(chain.remove_dead(), vec!["t1".to_string()]);
        assert_eq!(chain.replicas(), 2);
        chain.write(chunk(0), Bytes::from_static(b"post")).unwrap();
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"post"));
    }

    #[test]
    fn remove_dead_reconciles_in_flight_versions() {
        // Simulate a tail failure with a version in flight: the head holds
        // dirty v2, the failed tail never saw it. After reconfiguration the
        // surviving tail's newest version (v1) must rule: v2 is aborted.
        let (chain, targets) = test_chain(2);
        chain.write(chunk(0), Bytes::from_static(b"v1")).unwrap();
        // Hand-inject the in-flight dirty version on the head only.
        assert_eq!(
            targets[0].store_dirty(chunk(0), 2, Bytes::from_static(b"v2")),
            StoreOutcome::Stored
        );
        targets[1].fail();
        chain.remove_dead();
        // Survivor (now both head and tail): v2 committed (the tail-of-one
        // saw it), reads serve it.
        assert_eq!(targets[0].committed_version(chunk(0)), 2);
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn remove_dead_aborts_versions_the_new_tail_never_saw() {
        let (chain, targets) = test_chain(3);
        chain.write(chunk(0), Bytes::from_static(b"v1")).unwrap();
        // In-flight v2 reached only the head; the mid replica becomes the
        // new tail and never saw it → v2 must be aborted everywhere.
        assert_eq!(
            targets[0].store_dirty(chunk(0), 2, Bytes::from_static(b"v2")),
            StoreOutcome::Stored
        );
        targets[2].fail();
        chain.remove_dead();
        assert_eq!(targets[0].newest_version(chunk(0)), 1);
        assert_eq!(targets[0].committed_version(chunk(0)), 1);
        assert_eq!(chain.read(chunk(0)).unwrap(), Bytes::from_static(b"v1"));
    }

    #[test]
    fn all_members_dead_is_unavailable() {
        let (chain, targets) = test_chain(2);
        chain.write(chunk(0), Bytes::from_static(b"v1")).unwrap();
        for t in &targets {
            t.fail();
        }
        assert_eq!(chain.read(chunk(0)), Err(ChainError::Unavailable));
        assert_eq!(
            chain.write(chunk(0), Bytes::from_static(b"x")),
            Err(ChainError::Unavailable)
        );
    }

    #[test]
    fn reconfiguring_flag_bounces_writers() {
        let (chain, _) = test_chain(2);
        chain.set_reconfiguring(true);
        assert_eq!(
            chain.write(chunk(0), Bytes::from_static(b"x")),
            Err(ChainError::Reconfiguring)
        );
        chain.set_reconfiguring(false);
        chain.write(chunk(0), Bytes::from_static(b"x")).unwrap();
    }

    #[test]
    fn recruit_receives_writes_during_resync() {
        let (chain, _) = test_chain(2);
        for i in 0..4 {
            chain
                .write(chunk(i), Bytes::from(format!("obj{i}")))
                .unwrap();
        }
        let recruit = StorageTarget::new("spare", Disk::new(1 << 20));
        let mut session = ResyncSession::begin(Arc::clone(&chain), recruit.clone()).unwrap();
        // A write during the re-sync dual-lands on the recruit.
        chain
            .write(chunk(9), Bytes::from_static(b"during"))
            .unwrap();
        assert_eq!(recruit.committed_version(chunk(9)), 1);
        // But the recruit serves no reads yet.
        assert_eq!(chain.replicas(), 2);
        assert_eq!(chain.joining_name().as_deref(), Some("spare"));
        // Pump to completion and promote.
        while !session.pump(64).unwrap().done {}
        session.finish().unwrap();
        assert_eq!(chain.replicas(), 3);
        assert_eq!(chain.joining_name(), None);
        for i in 0..4 {
            assert_eq!(recruit.committed_version(chunk(i)), 1);
        }
    }

    #[test]
    fn concurrent_writers_distinct_objects() {
        let (chain, _) = test_chain(3);
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let chain = &chain;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let data = Bytes::from(format!("w{w}i{i}"));
                        chain.write(chunk(w * 1000 + i), data).unwrap();
                    }
                });
            }
        });
        for w in 0..8u64 {
            for i in 0..50u64 {
                assert_eq!(
                    chain.read(chunk(w * 1000 + i)).unwrap(),
                    Bytes::from(format!("w{w}i{i}"))
                );
            }
        }
    }

    #[test]
    fn concurrent_writers_same_object_serialize() {
        let (chain, _) = test_chain(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let chain = &chain;
                s.spawn(move || {
                    for _ in 0..100 {
                        chain.write(chunk(0), Bytes::from_static(b"x")).unwrap();
                    }
                });
            }
        });
        // 400 writes serialized: final version is 400.
        let (chain2, _) = (chain, ());
        assert_eq!(
            chain2.write(chunk(0), Bytes::from_static(b"y")).unwrap(),
            401
        );
    }

    #[test]
    fn readers_never_see_torn_or_rolled_back_data() {
        // Writers cycle an object between two valid values; concurrent
        // readers must always observe one of them in full.
        let (chain, _) = test_chain(3);
        chain.write(chunk(0), Bytes::from(vec![b'A'; 512])).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let chain_w = &chain;
            let stop_ref = &stop;
            s.spawn(move || {
                for i in 0..300 {
                    let byte = if i % 2 == 0 { b'B' } else { b'A' };
                    chain_w
                        .write(chunk(0), Bytes::from(vec![byte; 512]))
                        .unwrap();
                }
                stop_ref.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            for _ in 0..3 {
                let chain_r = &chain;
                let stop_ref = &stop;
                s.spawn(move || {
                    // Read at least once even if the writer already won
                    // the race to finish.
                    let mut reads = 0u64;
                    loop {
                        let d = chain_r.read(chunk(0)).unwrap();
                        assert_eq!(d.len(), 512);
                        assert!(d.iter().all(|&b| b == d[0]), "torn read");
                        reads += 1;
                        if stop_ref.load(std::sync::atomic::Ordering::Relaxed) || reads > 100_000 {
                            break;
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn chain_table_striping() {
        let chains: Vec<_> = (0..6)
            .map(|i| Chain::new(i, vec![StorageTarget::new(format!("x{i}"), Disk::new(100))]))
            .collect();
        let table = ChainTable::new(chains);
        // offset 2, stripe 3: chunks map to chains 2,3,4,2,3,4,...
        let ids: Vec<usize> = (0..6).map(|i| table.chain_for(2, 3, i).id()).collect();
        assert_eq!(ids, vec![2, 3, 4, 2, 3, 4]);
        // Wraps around the table.
        assert_eq!(table.chain_for(5, 3, 1).id(), 0);
    }
}
