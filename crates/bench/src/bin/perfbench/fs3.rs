//! `fs3_rw`: the executable 3FS stack — 16 CRAQ chains × 2 replicas over
//! 8 RAM disks, KV-backed metadata, one `Fs3Client` — under a closed loop
//! from one client thread: 90 % full-chunk `read_at` (primary class),
//! 10 % full-chunk overwrite `write_at` (secondary class) on one striped,
//! preloaded file. Writes ride beside reads so a read gain bought with
//! CRAQ write cost, or the reverse, shows. Collectives and simulators are
//! not touched.

use crate::stats::{median, time_us};
use crate::trace::Tracer;
use crate::workload::{Episode, Layer, Outcome, RunCfg, EPISODES};
use ff_3fs::chain::{Chain, ChainTable};
use ff_3fs::client::Fs3Client;
use ff_3fs::kvstore::KvStore;
use ff_3fs::meta::{FileAttr, MetaService, ROOT};
use ff_3fs::target::{ChunkId, Disk, StorageTarget};
use ff_platform::CheckpointManager;
use ff_util::bytes::Bytes;
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::mix64;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAINS: usize = 16;
const REPLICAS: usize = 2;
const DISKS: usize = 8;
const STRIPE: u64 = 16;
const READ_CONCURRENCY: usize = 4;
const WRITE_ONE_IN: u64 = 10;
/// Reads are spot-checked at seeded offsets; every this-many-th read is
/// compared byte for byte.
const FULL_CHECK_EVERY: u64 = 50;

struct Scale {
    chunk: usize,
    chunks: u64,
    warm_ops: u64,
    /// Bytes of the batch I/O and checkpoint probes, and their part size.
    batch_bytes: usize,
    batch_part: usize,
    ckpt_reps: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            chunk: 16 << 10,
            chunks: 64,
            warm_ops: 100,
            batch_bytes: 1 << 20,
            batch_part: 64 << 10,
            ckpt_reps: 2,
        }
    } else {
        Scale {
            chunk: 256 << 10,
            chunks: 1024,
            warm_ops: 10_000,
            batch_bytes: 128 << 20,
            batch_part: 4 << 20,
            ckpt_reps: 5,
        }
    }
}

struct Stack {
    client: Arc<Fs3Client>,
    disks: Vec<Arc<Disk>>,
}

fn stack() -> Stack {
    let disks: Vec<_> = (0..DISKS).map(|_| Disk::new(4 << 30)).collect();
    let chains: Vec<_> = (0..CHAINS)
        .map(|c| {
            let reps = (0..REPLICAS)
                .map(|r| StorageTarget::new(format!("c{c}r{r}"), disks[(c + r) % DISKS].clone()))
                .collect();
            Chain::new(c, reps)
        })
        .collect();
    let table = Arc::new(ChainTable::new(chains));
    let meta = MetaService::new(KvStore::new(16, 2), table.len());
    Stack {
        client: Fs3Client::new(meta, table, READ_CONCURRENCY),
        disks,
    }
}

/// Chunk contents are a function of (seed, chunk, version): an 8-byte
/// tag, then one fill byte. A read is right when it carries the tag and
/// fill of the version the generator last wrote.
fn tag(seed: u64, idx: u64, version: u32) -> u64 {
    mix64(seed ^ (idx << 24) ^ u64::from(version))
}

fn fill_chunk(buf: &mut [u8], tag: u64) {
    buf.fill(tag as u8);
    buf[..8].copy_from_slice(&tag.to_le_bytes());
}

fn chunk_ok(got: &[u8], len: usize, tag: u64, full: bool) -> bool {
    if got.len() != len || got[..8] != tag.to_le_bytes() {
        return false;
    }
    let fill = tag as u8;
    if full {
        return got[8..].iter().all(|&b| b == fill);
    }
    // Offsets derived from the tag, plus the last byte.
    let mut pos = tag;
    (0..14).all(|_| {
        pos = mix64(pos);
        got[8 + (pos as usize) % (len - 8)] == fill
    }) && got[len - 1] == fill
}

/// The file under test and what the generator knows about it.
struct File {
    attr: FileAttr,
    versions: Vec<u32>,
    rng: ChaCha8Rng,
    wbuf: Vec<u8>,
    reads: u64,
}

#[derive(Default)]
struct Segment {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    failed: u64,
    wall_s: f64,
}

impl File {
    fn create(st: &Stack, sc: &Scale, seed: u64, name: &str) -> File {
        let attr = st
            .client
            .meta()
            .create(ROOT, name, sc.chunk as u64, STRIPE)
            .expect("fresh file name");
        let mut f = File {
            attr,
            versions: vec![0; sc.chunks as usize],
            rng: ChaCha8Rng::seed_from_u64(seed),
            wbuf: vec![0; sc.chunk],
            reads: 0,
        };
        for idx in 0..sc.chunks {
            fill_chunk(&mut f.wbuf, tag(seed, idx, 0));
            let n = st
                .client
                .write_at(&f.attr, idx * sc.chunk as u64, &f.wbuf)
                .expect("preload write");
            assert_eq!(n, sc.chunk);
        }
        f
    }

    /// Closed loop until `stop` says so (asked every 64 ops).
    fn drive(
        &mut self,
        st: &Stack,
        sc: &Scale,
        seed: u64,
        tr: &mut Tracer,
        mut stop: impl FnMut(u64) -> bool,
    ) -> Segment {
        let mut seg = Segment::default();
        let t_seg = Instant::now();
        let mut op = 0u64;
        while !(op.is_multiple_of(64) && stop(op)) {
            let r = self.rng.next_u64();
            let idx = r % sc.chunks;
            let off = idx * sc.chunk as u64;
            if (r >> 40).is_multiple_of(WRITE_ONE_IN) {
                let v = self.versions[idx as usize] + 1;
                fill_chunk(&mut self.wbuf, tag(seed, idx, v));
                let t0 = Instant::now();
                let res = tr.scope("client.write_at", op, |_| {
                    st.client.write_at(&self.attr, off, &self.wbuf)
                });
                seg.write_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if res == Ok(sc.chunk) {
                    self.versions[idx as usize] = v;
                } else {
                    seg.failed += 1;
                }
            } else {
                let t0 = Instant::now();
                let res = tr.scope("client.read_at", op, |_| {
                    st.client.read_at(&self.attr, off, sc.chunk)
                });
                seg.read_us.push(t0.elapsed().as_secs_f64() * 1e6);
                self.reads += 1;
                let want = tag(seed, idx, self.versions[idx as usize]);
                let full = self.reads.is_multiple_of(FULL_CHECK_EVERY);
                if !res.is_ok_and(|got| chunk_ok(&got, sc.chunk, want, full)) {
                    seg.failed += 1;
                }
            }
            op += 1;
        }
        seg.wall_s = t_seg.elapsed().as_secs_f64();
        seg
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let sc = scale(cfg.smoke);
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, "fs3/client");
    let mut off = Tracer::new(false, epoch, "untraced");
    let mut out = Outcome::default();

    // Set-up: the stack, the preloaded file, warm-up ops.
    let set_up = || {
        let t0 = Instant::now();
        let st = stack();
        let mut file = File::create(&st, &sc, cfg.seed, "data");
        let mut off = Tracer::new(false, epoch, "untraced");
        let warm = file.drive(&st, &sc, cfg.seed, &mut off, |op| op >= sc.warm_ops);
        assert_eq!(warm.failed, 0, "warm-up op failed");
        (t0.elapsed().as_secs_f64(), st, file)
    };
    let window = |share: f64| {
        let budget = Duration::from_secs_f64(cfg.seconds * share);
        let t0 = Instant::now();
        move |_op: u64| t0.elapsed() >= budget
    };
    if !cfg.trace {
        for _ in 0..EPISODES {
            let (setup_s, st, mut file) = set_up();
            out.setup_s.push(setup_s);
            let seg = file.drive(&st, &sc, cfg.seed, &mut off, window(1.0 / EPISODES as f64));
            out.failed += seg.failed;
            out.episodes.push(Episode {
                op_us: seg.read_us,
                alt_us: seg.write_us,
                timed_s: seg.wall_s,
            });
        }
        return out;
    }

    let (_, st, mut file) = set_up();
    // Traced: an untraced reference segment, then the same loop with a
    // span around every client call.
    let plain = file.drive(&st, &sc, cfg.seed, &mut off, window(0.25));
    let seg = file.drive(&st, &sc, cfg.seed, &mut tr, window(0.5));
    out.failed = seg.failed + plain.failed;
    let read_p50 = median(&mut seg.read_us.clone());
    let write_p50 = median(&mut seg.write_us.clone());
    let plain_read_p50 = median(&mut plain.read_us.clone());

    let mut l = Vec::new();
    l.push(Layer::new(
        "obs.trace_overhead_pct",
        100.0 * (read_p50 / plain_read_p50 - 1.0),
        plain.read_us.len() as u64,
    ));
    let (chain_read_us, chain_write_us, stat_us, grow_us) = layer_probes(&st, &file, &sc, &mut l);
    l.push(Layer::new(
        "fs3.client.self_read_us",
        read_p50 - chain_read_us - stat_us,
        seg.read_us.len() as u64,
    ));
    l.push(Layer::new(
        "fs3.client.self_write_us",
        write_p50 - chain_write_us - grow_us,
        seg.write_us.len() as u64,
    ));
    let stored: u64 = st.disks.iter().map(|d| d.used()).sum();
    l.push(Layer::new(
        "fs3.bytes_stored_per_payload_byte",
        stored as f64 / (sc.chunks * sc.chunk as u64) as f64,
        1,
    ));
    batch_probes(&sc, &mut l);
    out.episodes.push(Episode {
        op_us: seg.read_us,
        alt_us: seg.write_us,
        timed_s: seg.wall_s,
    });
    out.layers = l;
    out.tracers = vec![tr];
    out
}

/// Direct chunk-sized calls into each layer under the client. Returns the
/// chain read, chain write, `stat` and `grow_size` medians the client's
/// self time is computed against.
fn layer_probes(st: &Stack, file: &File, sc: &Scale, l: &mut Vec<Layer>) -> (f64, f64, f64, f64) {
    const REPS: usize = 2000;
    let payload = Bytes::from(vec![7u8; sc.chunk]);
    let id = |idx: u64| ChunkId { ino: u64::MAX, idx };

    let target = StorageTarget::new("probe", Disk::new(1 << 30));
    let mut v = 0u64;
    let store_commit_us = time_us(REPS, || {
        v += 1;
        let _ = black_box(target.store_dirty(id(v % 64), v, payload.clone()));
        target.commit(id(v % 64), v);
    });
    let mut k = 0u64;
    let read_local_us = time_us(REPS, || {
        k += 1;
        black_box(target.read_local(id(k % 64)));
    });

    let disks: Vec<_> = (0..REPLICAS).map(|_| Disk::new(1 << 30)).collect();
    let chain = Chain::new(
        0,
        disks
            .iter()
            .enumerate()
            .map(|(r, d)| StorageTarget::new(format!("probe/r{r}"), d.clone()))
            .collect(),
    );
    let mut k = 0u64;
    let chain_write_us = time_us(REPS, || {
        k += 1;
        // The client copies the caller's slice into a fresh `Bytes`
        // before the chain sees it; the chain's own cost excludes that.
        black_box(chain.write(id(k % 64), payload.clone())).expect("probe chain write");
    });
    let mut k = 0u64;
    let chain_read_us = time_us(REPS, || {
        k += 1;
        black_box(chain.read(id(k % 64))).expect("probe chain read");
    });

    let meta = st.client.meta();
    let ino = file.attr.ino;
    let stat_us = time_us(REPS, || {
        black_box(meta.stat(ino)).expect("stat");
    });
    let size = sc.chunks * sc.chunk as u64;
    let grow_us = time_us(REPS, || {
        black_box(meta.grow_size(ino, size)).expect("grow_size");
    });
    let r = REPS as u64;
    l.push(Layer::new("fs3.target.store_commit_us", store_commit_us, r));
    l.push(Layer::new("fs3.target.read_local_us", read_local_us, r));
    l.push(Layer::new("fs3.chain.write_us", chain_write_us, r));
    l.push(Layer::new("fs3.chain.read_us", chain_read_us, r));
    l.push(Layer::new("fs3.meta.stat_us", stat_us, r));
    l.push(Layer::new("fs3.meta.grow_size_us", grow_us, r));
    (chain_read_us, chain_write_us, stat_us, grow_us)
}

/// Batch I/O and checkpoint save/load on a fresh stack. Checkpoint I/O
/// spends most of its CPU in first-touch page faults and swings widely
/// between identical runs here, which is why it is a per-layer value
/// only.
fn batch_probes(sc: &Scale, l: &mut Vec<Layer>) {
    const BATCH_REPS: usize = 5;
    let gib = sc.batch_bytes as f64 / (1u64 << 30) as f64;
    let st = stack();
    let attr = st
        .client
        .meta()
        .create(ROOT, "batch", sc.chunk as u64, STRIPE)
        .expect("fresh file name");
    let parts = sc.batch_bytes / sc.batch_part;
    let blob = Bytes::from(vec![3u8; sc.batch_part]);
    let write_us = time_us(BATCH_REPS, || {
        let w: Vec<(u64, Bytes)> = (0..parts)
            .map(|i| ((i * sc.batch_part) as u64, blob.clone()))
            .collect();
        assert_eq!(
            st.client.batch_write(&attr, w).expect("batch write"),
            sc.batch_bytes
        );
    });
    let read_us = time_us(BATCH_REPS, || {
        let r: Vec<(u64, usize)> = (0..parts)
            .map(|i| ((i * sc.batch_part) as u64, sc.batch_part))
            .collect();
        assert_eq!(
            black_box(st.client.batch_read(&attr, r))
                .expect("batch read")
                .len(),
            parts
        );
    });
    let r = BATCH_REPS as u64;
    l.push(Layer::new(
        "fs3.client.batch_write_gibps",
        gib / (write_us / 1e6),
        r,
    ));
    l.push(Layer::new(
        "fs3.client.batch_read_gibps",
        gib / (read_us / 1e6),
        r,
    ));

    let mgr = CheckpointManager::new(stack().client, "ckpt", 4 << 20).expect("checkpoint dir");
    let tensors: Vec<(String, Vec<u8>)> = (0..32)
        .map(|i| {
            (
                format!("shard{i:02}"),
                vec![(i % 251) as u8; sc.batch_bytes / 32],
            )
        })
        .collect();
    let (mut save_s, mut load_s) = (Vec::new(), Vec::new());
    for step in 1..=sc.ckpt_reps as u64 {
        let t0 = Instant::now();
        mgr.save(step, &tensors).expect("checkpoint save");
        save_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let loaded = mgr.load(step).expect("checkpoint load");
        load_s.push(t0.elapsed().as_secs_f64());
        assert_eq!(loaded.len(), tensors.len());
        mgr.prune(1).expect("checkpoint prune");
    }
    let r = sc.ckpt_reps as u64;
    l.push(Layer::new(
        "platform.checkpoint.save_gibps",
        gib / median(&mut save_s),
        r,
    ));
    l.push(Layer::new(
        "platform.checkpoint.load_gibps",
        gib / median(&mut load_s),
        r,
    ));
}

#[cfg(test)]
pub fn inputs_differ(seed_a: u64, seed_b: u64) -> bool {
    tag(seed_a, 0, 0) != tag(seed_b, 0, 0)
}
