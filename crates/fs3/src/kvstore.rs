//! The replicated key-value store backing the metadata tables.
//!
//! §VI-B3: "file system meta data are stored in tables of a distributed
//! key-value storage system" and "all states of meta services are
//! persisted on the distributed key-value storage system". This is a
//! sharded, synchronously-replicated ordered KV store: keys hash to
//! shards; each shard keeps `r` replicas written in lock-step under the
//! shard lock (write-all) and read from any replica (read-any), the same
//! consistency recipe as the data path's CRAQ, at the granularity meta
//! traffic needs.

use ff_util::bytes::Bytes;
use ff_util::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Table = BTreeMap<Vec<u8>, Bytes>;

struct Shard {
    replicas: Vec<RwLock<Table>>,
    rr: AtomicUsize,
}

/// A sharded replicated ordered key-value store.
pub struct KvStore {
    shards: Vec<Shard>,
}

impl KvStore {
    /// A store with `shards` shards of `replication` replicas each.
    pub fn new(shards: usize, replication: usize) -> Arc<KvStore> {
        assert!(shards >= 1 && replication >= 1);
        Arc::new(KvStore {
            shards: (0..shards)
                .map(|_| Shard {
                    replicas: (0..replication)
                        .map(|_| RwLock::new(Table::new()))
                        .collect(),
                    rr: AtomicUsize::new(0),
                })
                .collect(),
        })
    }

    fn shard_of(&self, key: &[u8]) -> &Shard {
        // FNV-1a over the key: stable and cheap.
        let h = ff_util::fnv1a64(key);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Insert or replace. Write-all: every replica is updated before the
    /// call returns.
    pub fn put(&self, key: &[u8], value: impl Into<Bytes>) {
        let shard = self.shard_of(key);
        let value = value.into();
        // Lock replicas in order (consistent order -> no deadlock) and
        // apply to all.
        let mut guards: Vec<_> = shard.replicas.iter().map(|r| r.write()).collect();
        for g in &mut guards {
            g.insert(key.to_vec(), value.clone());
        }
    }

    /// Read from any replica.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let shard = self.shard_of(key);
        let pick = shard.rr.fetch_add(1, Ordering::Relaxed) % shard.replicas.len();
        shard.replicas[pick].read().get(key).cloned()
    }

    /// Delete a key; true if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let shard = self.shard_of(key);
        let mut guards: Vec<_> = shard.replicas.iter().map(|r| r.write()).collect();
        let mut existed = false;
        for g in &mut guards {
            existed = g.remove(key).is_some() || existed;
        }
        existed
    }

    /// Atomic compare-and-set: store `new` only if the current value
    /// equals `expect` (`None` = key absent). Returns success. The
    /// primitive meta services use for create/rename races.
    pub fn cas(&self, key: &[u8], expect: Option<&[u8]>, new: impl Into<Bytes>) -> bool {
        let shard = self.shard_of(key);
        let mut guards: Vec<_> = shard.replicas.iter().map(|r| r.write()).collect();
        let current = guards[0].get(key).cloned();
        let matches = match (&current, expect) {
            (None, None) => true,
            (Some(c), Some(e)) => c.as_ref() == e,
            _ => false,
        };
        if !matches {
            return false;
        }
        let new = new.into();
        for g in &mut guards {
            g.insert(key.to_vec(), new.clone());
        }
        true
    }

    /// All key/value pairs whose key starts with `prefix`, across shards,
    /// in key order — directory iteration.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Bytes)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let pick = shard.rr.fetch_add(1, Ordering::Relaxed) % shard.replicas.len();
            let table = shard.replicas[pick].read();
            for (k, v) in table.range(prefix.to_vec()..) {
                if !k.starts_with(prefix) {
                    break;
                }
                out.push((k.clone(), v.clone()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total keys (diagnostics; O(shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.replicas[0].read().len()).sum()
    }

    /// True if no keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let kv = KvStore::new(4, 3);
        kv.put(b"alpha", Bytes::from_static(b"1"));
        assert_eq!(kv.get(b"alpha"), Some(Bytes::from_static(b"1")));
        assert!(kv.delete(b"alpha"));
        assert_eq!(kv.get(b"alpha"), None);
        assert!(!kv.delete(b"alpha"));
    }

    #[test]
    fn read_any_replica_consistent() {
        let kv = KvStore::new(2, 3);
        kv.put(b"k", Bytes::from_static(b"v"));
        // Round-robin cycles replicas; all must agree.
        for _ in 0..9 {
            assert_eq!(kv.get(b"k"), Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn cas_semantics() {
        let kv = KvStore::new(4, 2);
        assert!(kv.cas(b"x", None, Bytes::from_static(b"a")));
        assert!(!kv.cas(b"x", None, Bytes::from_static(b"b")), "exists now");
        assert!(!kv.cas(b"x", Some(b"wrong"), Bytes::from_static(b"b")));
        assert!(kv.cas(b"x", Some(b"a"), Bytes::from_static(b"b")));
        assert_eq!(kv.get(b"x"), Some(Bytes::from_static(b"b")));
    }

    #[test]
    fn cas_create_race_has_one_winner() {
        let kv = KvStore::new(4, 2);
        let wins = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..8 {
                let kv = &kv;
                let wins = &wins;
                s.spawn(move || {
                    if kv.cas(b"race", None, Bytes::from(format!("winner{i}"))) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scan_prefix_across_shards_sorted() {
        let kv = KvStore::new(8, 2);
        for i in 0..20 {
            kv.put(
                format!("dir/{i:02}").as_bytes(),
                Bytes::from(format!("{i}")),
            );
        }
        kv.put(b"other/x", Bytes::from_static(b"no"));
        let hits = kv.scan_prefix(b"dir/");
        assert_eq!(hits.len(), 20);
        for (i, (k, _)) in hits.iter().enumerate() {
            assert_eq!(k, format!("dir/{i:02}").as_bytes());
        }
    }

    #[test]
    fn concurrent_distinct_keys() {
        let kv = KvStore::new(8, 3);
        std::thread::scope(|s| {
            for t in 0..8 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..100 {
                        kv.put(
                            format!("t{t}/k{i}").as_bytes(),
                            Bytes::from(format!("{t}:{i}")),
                        );
                    }
                });
            }
        });
        assert_eq!(kv.len(), 800);
        assert_eq!(kv.get(b"t3/k42"), Some(Bytes::from(String::from("3:42"))));
    }
}
