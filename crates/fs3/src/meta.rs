//! The meta service: file-system metadata as KV pairs (§VI-B3).
//!
//! "Each file or directory has a unique inode ID. The file inode/directory
//! ID and meta data ... are stored as key-value pairs in the inode table.
//! A separate directory entry table stores key-value pairs of
//! `(parent_dir_inode_id, entry_name): (entry_inode_id, ...)`." Meta
//! services are stateless over the KV store, so "several meta services run
//! concurrently to handle meta requests from clients" — construct as many
//! [`MetaService`] handles as you like over one [`KvStore`].

use crate::kvstore::KvStore;
use ff_util::bytes::Bytes;
use std::sync::Arc;

/// An inode number. Root is `InodeId(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

/// The root directory's inode.
pub const ROOT: InodeId = InodeId(1);

/// Inode kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Inode contents: attributes plus the file's placement in the chain
/// table ("the meta service selects an offset in the chain table and a
/// stripe size k for each file").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAttr {
    /// Inode id.
    pub ino: InodeId,
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (files).
    pub size: u64,
    /// Chunk size in bytes.
    pub chunk_size: u64,
    /// Start offset in the chain table.
    pub chain_offset: u64,
    /// Stripe width k.
    pub stripe: u64,
}

impl FileAttr {
    fn encode(&self) -> Bytes {
        let mut v = Vec::with_capacity(41);
        v.extend_from_slice(&self.ino.0.to_be_bytes());
        v.push(match self.kind {
            FileKind::File => 0,
            FileKind::Dir => 1,
        });
        v.extend_from_slice(&self.size.to_be_bytes());
        v.extend_from_slice(&self.chunk_size.to_be_bytes());
        v.extend_from_slice(&self.chain_offset.to_be_bytes());
        v.extend_from_slice(&self.stripe.to_be_bytes());
        Bytes::from(v)
    }

    fn decode(b: &[u8]) -> FileAttr {
        assert_eq!(b.len(), 41, "corrupt inode record");
        let u = |r: std::ops::Range<usize>| u64::from_be_bytes(b[r].try_into().expect("8 bytes"));
        FileAttr {
            ino: InodeId(u(0..8)),
            kind: if b[8] == 0 {
                FileKind::File
            } else {
                FileKind::Dir
            },
            size: u(9..17),
            chunk_size: u(17..25),
            chain_offset: u(25..33),
            stripe: u(33..41),
        }
    }
}

/// Errors from metadata operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// Path or entry not found.
    NotFound,
    /// Entry already exists.
    Exists,
    /// Operation needs a directory but found a file (or vice versa).
    WrongKind,
    /// Directory not empty on unlink.
    NotEmpty,
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::NotFound => write!(f, "path or entry not found"),
            MetaError::Exists => write!(f, "entry already exists"),
            MetaError::WrongKind => write!(f, "wrong entry kind for operation"),
            MetaError::NotEmpty => write!(f, "directory not empty"),
        }
    }
}

impl std::error::Error for MetaError {}

impl From<MetaError> for ff_util::FfError {
    fn from(e: MetaError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Storage, e.to_string(), e)
    }
}

fn inode_key(ino: InodeId) -> Vec<u8> {
    let mut k = b"i/".to_vec();
    k.extend_from_slice(&ino.0.to_be_bytes());
    k
}

fn dirent_key(parent: InodeId, name: &str) -> Vec<u8> {
    let mut k = b"d/".to_vec();
    k.extend_from_slice(&parent.0.to_be_bytes());
    k.push(b'/');
    k.extend_from_slice(name.as_bytes());
    k
}

fn dirent_prefix(parent: InodeId) -> Vec<u8> {
    let mut k = b"d/".to_vec();
    k.extend_from_slice(&parent.0.to_be_bytes());
    k.push(b'/');
    k
}

const NEXT_INO_KEY: &[u8] = b"meta/next_ino";
const NEXT_CHAIN_KEY: &[u8] = b"meta/next_chain_offset";

/// A stateless metadata service handle over a shared KV store.
#[derive(Clone)]
pub struct MetaService {
    kv: Arc<KvStore>,
    chains: u64,
}

impl MetaService {
    /// Connect a meta service to `kv`; `chains` is the chain-table length
    /// used to place new files. Initializes the root directory on first
    /// use (idempotent across concurrent services).
    pub fn new(kv: Arc<KvStore>, chains: usize) -> MetaService {
        let svc = MetaService {
            kv,
            chains: chains.max(1) as u64,
        };
        let root = FileAttr {
            ino: ROOT,
            kind: FileKind::Dir,
            size: 0,
            chunk_size: 0,
            chain_offset: 0,
            stripe: 0,
        };
        let _ = svc.kv.cas(&inode_key(ROOT), None, root.encode());
        let _ = svc
            .kv
            .cas(NEXT_INO_KEY, None, Bytes::from(2u64.to_be_bytes().to_vec()));
        let _ = svc.kv.cas(
            NEXT_CHAIN_KEY,
            None,
            Bytes::from(0u64.to_be_bytes().to_vec()),
        );
        svc
    }

    fn alloc_u64(&self, key: &[u8]) -> u64 {
        loop {
            let cur = self.kv.get(key).expect("counter initialized");
            let val = u64::from_be_bytes(cur.as_ref().try_into().expect("u64 counter"));
            let next = Bytes::from((val + 1).to_be_bytes().to_vec());
            if self.kv.cas(key, Some(cur.as_ref()), next) {
                return val;
            }
        }
    }

    /// Inode attributes.
    pub fn stat(&self, ino: InodeId) -> Result<FileAttr, MetaError> {
        self.kv
            .get(&inode_key(ino))
            .map(|b| FileAttr::decode(&b))
            .ok_or(MetaError::NotFound)
    }

    /// Look up one directory entry.
    pub fn lookup(&self, parent: InodeId, name: &str) -> Result<InodeId, MetaError> {
        let b = self
            .kv
            .get(&dirent_key(parent, name))
            .ok_or(MetaError::NotFound)?;
        Ok(InodeId(u64::from_be_bytes(
            b.as_ref().try_into().expect("ino"),
        )))
    }

    /// Resolve an absolute `/a/b/c` path to its attributes.
    pub fn resolve(&self, path: &str) -> Result<FileAttr, MetaError> {
        let mut at = ROOT;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            at = self.lookup(at, part)?;
        }
        self.stat(at)
    }

    fn insert_entry(
        &self,
        parent: InodeId,
        name: &str,
        attr: FileAttr,
    ) -> Result<FileAttr, MetaError> {
        assert!(!name.is_empty() && !name.contains('/'), "bad entry name");
        let pattr = self.stat(parent)?;
        if pattr.kind != FileKind::Dir {
            return Err(MetaError::WrongKind);
        }
        // Dirent first (the uniqueness point), inode record second.
        let ino_bytes = Bytes::from(attr.ino.0.to_be_bytes().to_vec());
        if !self.kv.cas(&dirent_key(parent, name), None, ino_bytes) {
            return Err(MetaError::Exists);
        }
        self.kv.put(&inode_key(attr.ino), attr.encode());
        Ok(attr)
    }

    /// Create a directory.
    pub fn mkdir(&self, parent: InodeId, name: &str) -> Result<FileAttr, MetaError> {
        let ino = InodeId(self.alloc_u64(NEXT_INO_KEY));
        self.insert_entry(
            parent,
            name,
            FileAttr {
                ino,
                kind: FileKind::Dir,
                size: 0,
                chunk_size: 0,
                chain_offset: 0,
                stripe: 0,
            },
        )
    }

    /// Create a file, placing it on the chain table: a fresh offset and
    /// the requested stripe width.
    pub fn create(
        &self,
        parent: InodeId,
        name: &str,
        chunk_size: u64,
        stripe: u64,
    ) -> Result<FileAttr, MetaError> {
        assert!(chunk_size > 0 && stripe > 0);
        let ino = InodeId(self.alloc_u64(NEXT_INO_KEY));
        let chain_offset = self.alloc_u64(NEXT_CHAIN_KEY) % self.chains;
        self.insert_entry(
            parent,
            name,
            FileAttr {
                ino,
                kind: FileKind::File,
                size: 0,
                chunk_size,
                chain_offset,
                stripe,
            },
        )
    }

    /// List a directory.
    pub fn readdir(&self, parent: InodeId) -> Result<Vec<(String, InodeId)>, MetaError> {
        let pattr = self.stat(parent)?;
        if pattr.kind != FileKind::Dir {
            return Err(MetaError::WrongKind);
        }
        let prefix = dirent_prefix(parent);
        Ok(self
            .kv
            .scan_prefix(&prefix)
            .into_iter()
            .map(|(k, v)| {
                let name = String::from_utf8_lossy(&k[prefix.len()..]).into_owned();
                let ino = InodeId(u64::from_be_bytes(v.as_ref().try_into().expect("ino")));
                (name, ino)
            })
            .collect())
    }

    /// Remove an entry. Directories must be empty.
    pub fn unlink(&self, parent: InodeId, name: &str) -> Result<FileAttr, MetaError> {
        let ino = self.lookup(parent, name)?;
        let attr = self.stat(ino)?;
        if attr.kind == FileKind::Dir && !self.readdir(ino)?.is_empty() {
            return Err(MetaError::NotEmpty);
        }
        self.kv.delete(&dirent_key(parent, name));
        self.kv.delete(&inode_key(ino));
        Ok(attr)
    }

    /// Rename/move an entry. The new name is claimed atomically (CAS);
    /// the old dirent is then removed. A crash between the two steps
    /// leaves both names pointing at the inode — the benign direction, as
    /// in most distributed file systems' rename.
    pub fn rename(
        &self,
        parent: InodeId,
        name: &str,
        new_parent: InodeId,
        new_name: &str,
    ) -> Result<(), MetaError> {
        let ino = self.lookup(parent, name)?;
        let nattr = self.stat(new_parent)?;
        if nattr.kind != FileKind::Dir {
            return Err(MetaError::WrongKind);
        }
        if parent == new_parent && name == new_name {
            return Ok(());
        }
        let ino_bytes = Bytes::from(ino.0.to_be_bytes().to_vec());
        if !self
            .kv
            .cas(&dirent_key(new_parent, new_name), None, ino_bytes)
        {
            return Err(MetaError::Exists);
        }
        self.kv.delete(&dirent_key(parent, name));
        Ok(())
    }

    /// Set a file's size exactly (truncate/extend).
    pub fn set_size(&self, ino: InodeId, size: u64) -> Result<FileAttr, MetaError> {
        loop {
            let cur = self.kv.get(&inode_key(ino)).ok_or(MetaError::NotFound)?;
            let mut attr = FileAttr::decode(&cur);
            if attr.kind != FileKind::File {
                return Err(MetaError::WrongKind);
            }
            attr.size = size;
            if self
                .kv
                .cas(&inode_key(ino), Some(cur.as_ref()), attr.encode())
            {
                return Ok(attr);
            }
        }
    }

    /// Grow a file's size to at least `size` (concurrent-writer safe).
    pub fn grow_size(&self, ino: InodeId, size: u64) -> Result<FileAttr, MetaError> {
        loop {
            let cur = self.kv.get(&inode_key(ino)).ok_or(MetaError::NotFound)?;
            let mut attr = FileAttr::decode(&cur);
            if attr.size >= size {
                return Ok(attr);
            }
            attr.size = size;
            if self
                .kv
                .cas(&inode_key(ino), Some(cur.as_ref()), attr.encode())
            {
                return Ok(attr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> MetaService {
        MetaService::new(KvStore::new(8, 2), 16)
    }

    #[test]
    fn attr_encoding_roundtrip() {
        let a = FileAttr {
            ino: InodeId(42),
            kind: FileKind::File,
            size: 1 << 40,
            chunk_size: 4 << 20,
            chain_offset: 7,
            stripe: 3,
        };
        assert_eq!(FileAttr::decode(&a.encode()), a);
    }

    #[test]
    fn mkdir_create_resolve() {
        let m = svc();
        let d = m.mkdir(ROOT, "data").unwrap();
        let f = m.create(d.ino, "train.bin", 4 << 20, 4).unwrap();
        assert_eq!(f.kind, FileKind::File);
        let got = m.resolve("/data/train.bin").unwrap();
        assert_eq!(got.ino, f.ino);
        assert_eq!(m.resolve("/").unwrap().ino, ROOT);
        assert_eq!(m.resolve("/nope"), Err(MetaError::NotFound));
    }

    #[test]
    fn duplicate_names_rejected() {
        let m = svc();
        m.mkdir(ROOT, "x").unwrap();
        assert_eq!(m.mkdir(ROOT, "x").map(|_| ()), Err(MetaError::Exists));
        assert_eq!(
            m.create(ROOT, "x", 1, 1).map(|_| ()),
            Err(MetaError::Exists)
        );
    }

    #[test]
    fn readdir_lists_sorted_entries() {
        let m = svc();
        for n in ["b", "a", "c"] {
            m.create(ROOT, n, 1 << 20, 1).unwrap();
        }
        let names: Vec<String> = m
            .readdir(ROOT)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn rename_moves_entries() {
        let m = svc();
        let a = m.mkdir(ROOT, "a").unwrap();
        let b = m.mkdir(ROOT, "b").unwrap();
        let f = m.create(a.ino, "model.bin", 1 << 20, 2).unwrap();
        // Same-directory rename.
        m.rename(a.ino, "model.bin", a.ino, "model-v2.bin").unwrap();
        assert_eq!(m.lookup(a.ino, "model.bin"), Err(MetaError::NotFound));
        assert_eq!(m.lookup(a.ino, "model-v2.bin").unwrap(), f.ino);
        // Cross-directory move.
        m.rename(a.ino, "model-v2.bin", b.ino, "model.bin").unwrap();
        assert_eq!(m.resolve("/b/model.bin").unwrap().ino, f.ino);
        assert!(m.readdir(a.ino).unwrap().is_empty());
        // Target collision is rejected and nothing moves.
        m.create(b.ino, "other", 1, 1).unwrap();
        assert_eq!(
            m.rename(b.ino, "model.bin", b.ino, "other"),
            Err(MetaError::Exists)
        );
        assert_eq!(m.resolve("/b/model.bin").unwrap().ino, f.ino);
        // No-op rename succeeds.
        m.rename(b.ino, "model.bin", b.ino, "model.bin").unwrap();
    }

    #[test]
    fn unlink_semantics() {
        let m = svc();
        let d = m.mkdir(ROOT, "dir").unwrap();
        m.create(d.ino, "f", 1, 1).unwrap();
        assert_eq!(m.unlink(ROOT, "dir").map(|_| ()), Err(MetaError::NotEmpty));
        m.unlink(d.ino, "f").unwrap();
        m.unlink(ROOT, "dir").unwrap();
        assert_eq!(m.resolve("/dir"), Err(MetaError::NotFound));
    }

    #[test]
    fn concurrent_create_same_name_one_winner() {
        let m = svc();
        let wins = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                // Separate stateless service handles over the same KV.
                let m2 = m.clone();
                let wins = &wins;
                s.spawn(move || {
                    if m2.create(ROOT, "model.ckpt", 1 << 20, 2).is_ok() {
                        wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_creates_unique_inodes_and_offsets() {
        let m = svc();
        let inos: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(vec![]);
        std::thread::scope(|s| {
            for t in 0..8 {
                let m2 = m.clone();
                let inos = &inos;
                s.spawn(move || {
                    for i in 0..20 {
                        let f = m2.create(ROOT, &format!("f{t}-{i}"), 1, 1).unwrap();
                        inos.lock().unwrap().push(f.ino.0);
                    }
                });
            }
        });
        let mut v = inos.into_inner().unwrap();
        let n = v.len();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), n, "inode ids must be unique");
    }

    #[test]
    fn grow_size_keeps_maximum_under_races() {
        let m = svc();
        let f = m.create(ROOT, "f", 1, 1).unwrap();
        std::thread::scope(|s| {
            for t in 1..=8u64 {
                let m2 = m.clone();
                s.spawn(move || {
                    m2.grow_size(f.ino, t * 100).unwrap();
                });
            }
        });
        assert_eq!(m.stat(f.ino).unwrap().size, 800);
    }

    #[test]
    fn chain_offsets_rotate() {
        let m = MetaService::new(KvStore::new(4, 1), 4);
        let offs: Vec<u64> = (0..8)
            .map(|i| m.create(ROOT, &format!("f{i}"), 1, 1).unwrap().chain_offset)
            .collect();
        // Round-robin modulo the table length.
        assert_eq!(offs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
