//! World-level drivers for the executable collectives.
//!
//! Every rank is a thread holding a [`Communicator`] over a pluggable
//! [`Fabric`](crate::fabric::Fabric); RDMA is replaced by tagged messages
//! over an ordered reliable transport — in-memory channels by default,
//! real localhost TCP with [`TcpProvider`](crate::fabric::TcpProvider)
//! (see DESIGN.md's substitution table). The algorithms are the real
//! ones: the chunked double-binary-tree allreduce of Algorithm 2, a ring
//! allreduce baseline, and the full node-structured HFReduce
//! (Algorithm 1 + 2: intra-node reduce → inter-node tree → broadcast back
//! to every GPU buffer). [`run_world`] is the one "spawn a rank per
//! thread" helper; every driver here, the FSDP drivers in
//! [`sharded`](crate::sharded) and the expert-parallel drivers in
//! `ff-haiscale` are closures handed to it.
//!
//! The communication layer is `Result`-based: a peer that dies mid-step
//! surfaces as a typed [`CommError`] (disconnect or receive timeout), not
//! a process-wide panic. On top of that, [`allreduce_ft`] runs the
//! allreduce under an injected [`ExecFaultPlan`] — realized as
//! [`FaultyFabric`] transport middleware — and recovers by shrinking to
//! the survivor set and retrying — the executable core of the paper's
//! §VII failure-handling machinery.

use crate::comm::{Algo, Communicator, Op};
use crate::fabric::{FabricProvider, FaultyFabric, DEFAULT_RECV_TIMEOUT};
use ff_dtypes::Element;
use ff_obs::{Recorder, TrackBuf};
use ff_topo::dbtree::DoubleBinaryTree;
use std::sync::Arc;
use std::time::Duration;

pub use crate::fabric::CommError;

/// Observability context for traced collective runs.
///
/// Each rank records onto track `{track_prefix}/rank{r}` through a
/// per-thread [`TrackBuf`] whose logical clock counts *elements moved*
/// (one tick per element), starting at `base_ns`. Buffers are committed
/// only for **clean** executions: a failed fault-tolerant attempt has racy
/// abort points (which receive times out first, where each rank stops),
/// so its staged events are discarded and only deterministic facts — the
/// attempt index, the ranks that died, the shrink — are recorded as
/// instants on `{track_prefix}/ctl`. That discipline is what keeps the
/// trace digest byte-identical across runs of the same fault plan — and
/// across fabric backends.
#[derive(Clone)]
pub struct ObsCtx {
    /// Destination recorder.
    pub rec: Arc<Recorder>,
    /// Track name prefix, e.g. `reduce/step3`.
    pub track_prefix: String,
    /// Offset added to every logical timestamp (lets callers lay repeated
    /// collectives out side by side on one timeline).
    pub base_ns: u64,
}

impl ObsCtx {
    /// A context recording to `rec` under `track_prefix` starting at
    /// `base_ns`.
    pub fn new(rec: &Arc<Recorder>, track_prefix: impl Into<String>, base_ns: u64) -> ObsCtx {
        ObsCtx {
            rec: Arc::clone(rec),
            track_prefix: track_prefix.into(),
            base_ns,
        }
    }

    fn rank_buf(&self, rank: usize) -> TrackBuf {
        TrackBuf::new(format!("{}/rank{rank}", self.track_prefix), self.base_ns)
    }
}

/// Spawn one thread per rank over a fresh fabric world of `args.len()`
/// ranks, run `f(rank, arg, comm)` on each, and return the per-rank
/// results in rank order. With `obs`, every rank's staged observability buffer is
/// committed afterwards (fault-free executions are Kahn-deterministic, so
/// every rank commits). A rank that returns early drops its endpoint,
/// which its peers observe as a hangup.
///
/// # Panics
/// If the provider cannot build the world or a rank thread panics.
pub fn run_world<P, A, R>(
    provider: &P,
    obs: Option<&ObsCtx>,
    args: Vec<A>,
    f: impl Fn(usize, A, &mut Communicator<P::F>) -> R + Sync,
) -> Vec<R>
where
    P: FabricProvider,
    A: Send,
    R: Send,
{
    let n = args.len();
    let fabrics = provider.world(n).expect("fabric world construction");
    let mut comms: Vec<Communicator<P::F>> = fabrics.into_iter().map(Communicator::new).collect();
    if let Some(o) = obs {
        for (r, c) in comms.iter_mut().enumerate() {
            c.set_obs(o.rank_buf(r));
        }
    }
    let (results, bufs): (Vec<R>, Vec<Option<TrackBuf>>) = std::thread::scope(|s| {
        let handles: Vec<_> = args
            .into_iter()
            .zip(comms)
            .enumerate()
            .map(|(rank, (arg, mut comm))| {
                let f = &f;
                s.spawn(move || {
                    let r = f(rank, arg, &mut comm);
                    (r, comm.take_obs())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .unzip()
    });
    if let Some(o) = obs {
        for buf in bufs.into_iter().flatten() {
            buf.commit(&o.rec);
        }
    }
    results
}

/// Allreduce `inputs` (one buffer per rank) over `provider`'s fabric;
/// returns each rank's resulting buffer (all equal to the sum). Traced
/// when `obs` is given (tracks `{prefix}/rank{r}`, logical clocks in
/// elements).
///
/// ```
/// use ff_reduce::{run_allreduce, Algo, InMemProvider};
/// let out = run_allreduce(
///     vec![vec![1.0f32, 2.0], vec![10.0, 20.0]],
///     Algo::DbTree { chunks: 1 },
///     &InMemProvider,
///     None,
/// );
/// assert_eq!(out[0], vec![11.0, 22.0]);
/// assert_eq!(out[1], vec![11.0, 22.0]);
/// ```
pub fn run_allreduce<E: Element, P: FabricProvider>(
    inputs: Vec<Vec<E>>,
    algo: Algo,
    provider: &P,
    obs: Option<&ObsCtx>,
) -> Vec<Vec<E>> {
    let n = inputs.len();
    assert!(n >= 1, "need at least one rank");
    let len = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == len), "unequal buffers");
    if n == 1 {
        return inputs;
    }
    run_world(provider, obs, inputs, |_, mut data, comm| {
        comm.allreduce(&mut data, Op::Sum, algo)
            .expect("fault-free allreduce must not fail");
        data
    })
}

/// Reduce `inputs` to the root of the double binary tree only (the
/// "general reduce" operation HFReduce also serves, §IV). Returns
/// `(root_rank, sum)`.
pub fn run_reduce_to_root<E: Element, P: FabricProvider>(
    inputs: Vec<Vec<E>>,
    chunks: usize,
    provider: &P,
) -> (usize, Vec<E>) {
    let n = inputs.len();
    assert!(n >= 1);
    let len = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == len), "unequal buffers");
    let root = DoubleBinaryTree::new(n).a.root;
    if n == 1 {
        return (0, inputs.into_iter().next().expect("one rank"));
    }
    let mut results = run_world(provider, None, inputs, |_, data, comm| {
        comm.reduce_to_root(data, chunks)
            .expect("fault-free reduce must not fail")
    });
    (root, results[root].take().expect("root holds the sum"))
}

/// Broadcast `data` from the tree root to every rank (the "broadcast"
/// operation, §IV). Returns each rank's received buffer.
pub fn run_broadcast<E: Element, P: FabricProvider>(
    data: Vec<E>,
    ranks: usize,
    chunks: usize,
    provider: &P,
) -> Vec<Vec<E>> {
    assert!(ranks >= 1);
    if ranks == 1 {
        return vec![data];
    }
    let root = DoubleBinaryTree::new(ranks).a.root;
    let len = data.len();
    let seeds: Vec<Option<Vec<E>>> = (0..ranks)
        .map(|r| if r == root { Some(data.clone()) } else { None })
        .collect();
    run_world(provider, None, seeds, |_, seed, comm| {
        let mut buf = seed.unwrap_or_else(|| vec![E::ZERO; len]);
        comm.broadcast(&mut buf, chunks)
            .expect("fault-free broadcast must not fail");
        buf
    })
}

/// The full HFReduce data path, executed for real over `provider`'s
/// fabric: per node, reduce the 8 GPU buffers on the "CPU" (one fused
/// multi-input reduction), allreduce the node sums across nodes with the
/// double binary tree, and broadcast the result back to every GPU buffer.
///
/// `inputs[node][gpu]` are the GPU gradient buffers; the result has the
/// same shape with every buffer equal to the global sum. Traced when
/// `obs` is given: the intra-node reduce, every inter-node send/recv, and
/// the H2D broadcast become spans on tracks `{prefix}/rank{node}`.
pub fn run_hfreduce<E: Element, P: FabricProvider>(
    inputs: Vec<Vec<Vec<E>>>,
    chunks: usize,
    provider: &P,
    obs: Option<&ObsCtx>,
) -> Vec<Vec<Vec<E>>> {
    let n = inputs.len();
    assert!(n >= 1, "need at least one node");
    let len = inputs[0]
        .first()
        .map(|b| b.len())
        .expect("nodes must have at least one GPU buffer");
    for node in &inputs {
        assert!(!node.is_empty());
        assert!(node.iter().all(|b| b.len() == len), "unequal buffers");
    }
    run_world(provider, obs, inputs, |_, gpu_bufs, comm| {
        comm.hfreduce(gpu_bufs, chunks)
            .expect("fault-free allreduce must not fail")
    })
}

/// Injected faults for the executable allreduce: which ranks die, and how
/// patient survivors are before declaring a peer dead. Deaths are
/// realized as [`FaultyFabric`] middleware under each doomed rank's
/// communicator — no algorithm carries fault hooks of its own.
#[derive(Debug, Clone)]
pub struct ExecFaultPlan {
    /// `(rank, after_sends)` — the rank's endpoint goes silent after it
    /// has issued that many messages (0 = before sending anything).
    pub deaths: Vec<(usize, usize)>,
    /// Survivor-side receive timeout — the liveness-detection latency.
    pub recv_timeout: Duration,
}

impl ExecFaultPlan {
    /// No faults: [`allreduce_ft`] behaves like [`run_allreduce`].
    pub fn none() -> ExecFaultPlan {
        ExecFaultPlan {
            deaths: Vec::new(),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Kill one rank after `after_sends` messages; survivors detect the
    /// loss within `recv_timeout`.
    pub fn kill_rank(rank: usize, after_sends: usize, recv_timeout: Duration) -> ExecFaultPlan {
        ExecFaultPlan {
            deaths: vec![(rank, after_sends)],
            recv_timeout,
        }
    }
}

/// Outcome of a fault-tolerant allreduce.
#[derive(Debug, Clone, PartialEq)]
pub struct FtReport<E> {
    /// Original rank ids that survived and hold a result.
    pub survivors: Vec<usize>,
    /// Original rank ids observed dead.
    pub dead: Vec<usize>,
    /// Attempts run (1 = no fault fired).
    pub attempts: usize,
    /// Per-original-rank output: `None` for dead ranks; every survivor
    /// holds the identical survivor-set sum.
    pub outputs: Vec<Option<Vec<E>>>,
}

enum RankOutcome<E> {
    Done(Vec<E>, Option<TrackBuf>),
    Died,
    Errored(CommError),
}

/// Fault-tolerant chunked double-binary-tree allreduce under `plan`'s
/// injected deaths, over `provider`'s fabric. When a rank dies
/// mid-collective, survivors detect it (receive timeout or disconnect)
/// and return a [`CommError`] instead of panicking; the orchestrator —
/// standing in for the platform's job manager — then rebuilds the tree
/// over the survivor set and retries from the original inputs. One failed
/// rank never aborts the process.
///
/// The returned buffers are the sum over the **survivor** set: the dead
/// rank's contribution is lost exactly as a dead GPU's gradients would
/// be, and the training layer above decides whether the step is usable or
/// must be replayed from a checkpoint (see `ff-platform`).
///
/// With `obs`, clean attempts commit per-rank send/recv spans (tracks
/// `{prefix}/rank{orig}`, named by *original* rank id so the track set is
/// stable across shrinks), while failed attempts record only their
/// deterministic summary — attempt index, which ranks died, the shrink —
/// as instants on `{prefix}/ctl`.
pub fn allreduce_ft<E: Element, P: FabricProvider>(
    inputs: Vec<Vec<E>>,
    chunks: usize,
    plan: &ExecFaultPlan,
    provider: &P,
    obs: Option<&ObsCtx>,
) -> FtReport<E> {
    let ctl = obs.map(|o| o.rec.track(&format!("{}/ctl", o.track_prefix)));
    let ctl_instant = |name: &str, attempt: usize, value: f64| {
        if let (Some(o), Some(t)) = (obs, ctl) {
            o.rec.instant(t, name, o.base_ns + attempt as u64, value);
        }
    };
    let n = inputs.len();
    assert!(n >= 1, "need at least one rank");
    let len = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == len), "unequal buffers");
    let chunks = chunks.clamp(1, len.max(1));

    let mut alive: Vec<usize> = (0..n).collect();
    let mut dead: Vec<usize> = Vec::new();
    // Deaths not yet fired, keyed by original rank id.
    let mut pending: Vec<(usize, usize)> = plan.deaths.clone();
    let mut attempts = 0usize;
    let mut stale_retries = 0usize;

    loop {
        attempts += 1;
        if alive.len() == 1 {
            let only = alive[0];
            ctl_instant(&format!("sole survivor rank {only}"), attempts, only as f64);
            let mut outputs: Vec<Option<Vec<E>>> = vec![None; n];
            outputs[only] = Some(inputs[only].clone());
            return FtReport {
                survivors: alive,
                dead,
                attempts,
                outputs,
            };
        }
        // Injected deaths remapped onto this attempt's compacted ids.
        let deaths: Vec<(usize, usize)> = pending
            .iter()
            .filter_map(|&(orig, k)| alive.iter().position(|&a| a == orig).map(|i| (i, k)))
            .collect();
        let m = alive.len();
        let fabrics = provider.world(m).expect("fabric world construction");
        let mut comms: Vec<Communicator<FaultyFabric<P::F>>> = fabrics
            .into_iter()
            .enumerate()
            .map(|(i, fb)| {
                let die = deaths
                    .iter()
                    .find(|&&(r, _)| r == i)
                    .map(|&(_, k)| k)
                    .unwrap_or(usize::MAX);
                // Silent deaths: a dead host stops talking, it does not
                // hang up politely — survivors must detect the loss by
                // timeout (in-memory) or transport teardown (TCP).
                Communicator::with_timeout(FaultyFabric::new(fb, die, true), plan.recv_timeout)
            })
            .collect();
        if let Some(o) = obs {
            for (&orig, c) in alive.iter().zip(comms.iter_mut()) {
                c.set_obs(o.rank_buf(orig));
            }
        }
        let results: Vec<RankOutcome<E>> = std::thread::scope(|s| {
            let handles: Vec<_> = alive
                .iter()
                .zip(comms)
                .map(|(&orig, mut comm)| {
                    let inputs = &inputs;
                    s.spawn(move || {
                        // Survivors restart from their original gradients:
                        // a half-reduced buffer from an abandoned attempt
                        // is never reused.
                        let mut data = inputs[orig].clone();
                        let res = comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks });
                        let died = comm.fabric().died();
                        let buf = comm.take_obs();
                        // Death drops the endpoint: peers now observe
                        // silence, exactly like a host that went down.
                        drop(comm);
                        match res {
                            Ok(()) => RankOutcome::Done(data, buf),
                            Err(_) if died => RankOutcome::Died,
                            Err(e) => RankOutcome::Errored(e),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });

        let mut newly_dead: Vec<usize> = Vec::new();
        let mut done: Vec<(usize, Vec<E>, Option<TrackBuf>)> = Vec::new();
        let mut last_error: Option<CommError> = None;
        for (&orig, outcome) in alive.iter().zip(results) {
            match outcome {
                RankOutcome::Done(data, buf) => done.push((orig, data, buf)),
                RankOutcome::Died => newly_dead.push(orig),
                RankOutcome::Errored(e) => last_error = Some(e),
            }
        }
        if newly_dead.is_empty() && last_error.is_none() {
            // Clean attempt: every survivor agreed on the sum. Only now do
            // the staged per-rank events reach the recorder — a clean
            // Kahn-network execution is deterministic, a failed one isn't.
            let mut outputs: Vec<Option<Vec<E>>> = vec![None; n];
            for (orig, data, buf) in done {
                outputs[orig] = Some(data);
                if let (Some(o), Some(b)) = (obs, buf) {
                    b.commit(&o.rec);
                }
            }
            return FtReport {
                survivors: alive,
                dead,
                attempts,
                outputs,
            };
        }
        // Failed attempt: the staged buffers in `done` drop here,
        // unrecorded — their contents depend on which timeout fired first.
        if newly_dead.is_empty() {
            // Errors with no death: spurious timeouts (timeout shorter
            // than a slow scheduler hiccup). Retrying with the same set
            // is correct, but bound it so a malformed plan can't loop
            // forever.
            stale_retries += 1;
            assert!(
                stale_retries <= 3,
                "allreduce kept failing with no observed rank death: {}",
                last_error.expect("errored attempt carries an error")
            );
            continue;
        }
        stale_retries = 0;
        for &orig in &newly_dead {
            ctl_instant(&format!("rank {orig} died"), attempts, orig as f64);
        }
        pending.retain(|&(orig, _)| !newly_dead.contains(&orig));
        alive.retain(|r| !newly_dead.contains(r));
        ctl_instant(
            &format!("shrink to {} survivors", alive.len()),
            attempts,
            alive.len() as f64,
        );
        dead.extend(newly_dead);
        dead.sort_unstable();
        assert!(!alive.is_empty(), "all ranks died");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{InMemProvider, TcpProvider};
    use crate::kernels::reference_sum;
    use ff_dtypes::{Bf16, F16};

    fn dbtree(chunks: usize) -> Algo {
        Algo::DbTree { chunks }
    }

    /// Integer-valued f32 inputs make every summation order exact.
    fn int_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| (0..len).map(|i| ((r * 31 + i * 7) % 50) as f32).collect())
            .collect()
    }

    #[test]
    fn dbtree_matches_reference_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            for len in [1usize, 2, 17, 128, 1001] {
                let inputs = int_inputs(n, len);
                let want = reference_sum(&inputs);
                let out = run_allreduce(inputs, dbtree(4), &InMemProvider, None);
                for (r, buf) in out.iter().enumerate() {
                    assert_eq!(buf, &want, "rank {r}, n={n}, len={len}");
                }
            }
        }
    }

    #[test]
    fn run_world_turns_an_early_return_into_a_hangup() {
        // Rank 1 returns without communicating; its endpoint drops and
        // rank 0, waiting on it, gets the typed error — not a timeout.
        fn run<P: FabricProvider>(p: &P) -> Vec<Result<(), CommError>> {
            run_world(p, None, vec![(); 2], |rank, (), comm| {
                if rank == 1 {
                    return Ok(());
                }
                // Rank 1 is the broadcast root of a two-rank world.
                comm.broadcast(&mut [0.0f32], 1)
            })
        }
        let want = vec![Err(CommError::Disconnected { peer: 1 }), Ok(())];
        assert_eq!(run(&InMemProvider), want);
        assert_eq!(run(&TcpProvider), want);
    }

    #[test]
    fn dbtree_over_tcp_matches_reference() {
        let inputs = int_inputs(4, 129);
        let want = reference_sum(&inputs);
        let out = run_allreduce(inputs, dbtree(3), &TcpProvider, None);
        for buf in &out {
            assert_eq!(buf, &want);
        }
    }

    #[test]
    fn ring_matches_reference() {
        // Short buffers leave some (or all) ranks' chunks empty.
        for n in [2usize, 3, 4, 8] {
            for len in [0usize, 1, n - 1, 240] {
                let inputs = int_inputs(n, len);
                let want = reference_sum(&inputs);
                let out = run_allreduce(inputs, Algo::Ring, &InMemProvider, None);
                for buf in &out {
                    assert_eq!(buf, &want, "n={n}, len={len}");
                }
            }
        }
    }

    #[test]
    fn ring_and_tree_agree() {
        let inputs = int_inputs(6, 600);
        let a = run_allreduce(inputs.clone(), Algo::Ring, &InMemProvider, None);
        let b = run_allreduce(inputs, dbtree(3), &InMemProvider, None);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn hfreduce_exec_full_path() {
        // 3 nodes × 8 GPUs of integer-valued gradients.
        let inputs: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|v| {
                (0..8)
                    .map(|g| (0..100).map(|i| ((v * 8 + g + i) % 20) as f32).collect())
                    .collect()
            })
            .collect();
        let flat: Vec<Vec<f32>> = inputs.iter().flatten().cloned().collect();
        let want = reference_sum(&flat);
        let out = run_hfreduce(inputs, 2, &InMemProvider, None);
        for (v, node) in out.iter().enumerate() {
            assert_eq!(node.len(), 8);
            for (g, buf) in node.iter().enumerate() {
                assert_eq!(buf, &want, "node {v} gpu {g}");
            }
        }
    }

    #[test]
    fn hfreduce_exec_single_node() {
        let inputs = vec![vec![vec![1.0f32, 2.0], vec![3.0, 4.0]]];
        let out = run_hfreduce(inputs, 1, &InMemProvider, None);
        assert_eq!(out[0][0], vec![4.0, 6.0]);
        assert_eq!(out[0][1], vec![4.0, 6.0]);
    }

    #[test]
    fn hfreduce_over_tcp_matches_inmem() {
        let inputs: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|v| {
                (0..4)
                    .map(|g| (0..64).map(|i| ((v * 4 + g + i) % 20) as f32).collect())
                    .collect()
            })
            .collect();
        let a = run_hfreduce(inputs.clone(), 2, &InMemProvider, None);
        let b = run_hfreduce(inputs, 2, &TcpProvider, None);
        assert_eq!(a, b);
    }

    #[test]
    fn f16_allreduce_small_integers_exact() {
        // Sums stay ≤ 2048 so binary16 is exact.
        let inputs: Vec<Vec<F16>> = (0..8)
            .map(|r| {
                (0..64)
                    .map(|i| F16::from_f32(((r + i) % 16) as f32))
                    .collect()
            })
            .collect();
        let want = reference_sum(&inputs);
        let out = run_allreduce(inputs, dbtree(2), &InMemProvider, None);
        assert_eq!(out[3], want);
    }

    #[test]
    fn bf16_hfreduce_exact_small_integers() {
        let inputs: Vec<Vec<Vec<Bf16>>> = (0..2)
            .map(|v| {
                (0..8)
                    .map(|g| {
                        (0..32)
                            .map(|i| Bf16::from_f32(((v + g + i) % 8) as f32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let flat: Vec<Vec<Bf16>> = inputs.iter().flatten().cloned().collect();
        let want = reference_sum(&flat);
        let out = run_hfreduce(inputs, 4, &InMemProvider, None);
        assert_eq!(out[1][5], want);
    }

    #[test]
    fn odd_length_and_chunk_interplay() {
        // Lengths not divisible by chunks or halves still reduce exactly.
        let inputs = int_inputs(5, 97);
        let want = reference_sum(&inputs);
        for chunks in [1usize, 2, 3, 7, 97] {
            let out = run_allreduce(inputs.clone(), dbtree(chunks), &InMemProvider, None);
            assert_eq!(out[0], want, "chunks={chunks}");
        }
    }

    #[test]
    #[should_panic(expected = "unequal buffers")]
    fn mismatched_rank_buffers_rejected() {
        run_allreduce(
            vec![vec![1.0f32], vec![1.0, 2.0]],
            dbtree(1),
            &InMemProvider,
            None,
        );
    }

    // ---- fault tolerance ----

    const FAST_TIMEOUT: Duration = Duration::from_millis(200);

    #[test]
    fn ft_no_fault_matches_plain_allreduce() {
        let inputs = int_inputs(6, 120);
        let want = reference_sum(&inputs);
        let report = allreduce_ft(inputs, 3, &ExecFaultPlan::none(), &InMemProvider, None);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.survivors, (0..6).collect::<Vec<_>>());
        assert!(report.dead.is_empty());
        for out in report.outputs.iter() {
            assert_eq!(out.as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn ft_rank_death_shrinks_to_survivors() {
        for victim in [0usize, 2, 5] {
            let inputs = int_inputs(6, 120);
            // Reference excludes the victim's contribution.
            let surviving: Vec<Vec<f32>> = inputs
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != victim)
                .map(|(_, v)| v.clone())
                .collect();
            let want = reference_sum(&surviving);
            let plan = ExecFaultPlan::kill_rank(victim, 1, FAST_TIMEOUT);
            let report = allreduce_ft(inputs, 3, &plan, &InMemProvider, None);
            assert_eq!(report.dead, vec![victim]);
            assert_eq!(report.attempts, 2, "one failed attempt + one clean retry");
            assert_eq!(report.survivors.len(), 5);
            assert!(report.outputs[victim].is_none());
            for (r, out) in report.outputs.iter().enumerate() {
                if r != victim {
                    assert_eq!(out.as_ref().unwrap(), &want, "rank {r}");
                }
            }
        }
    }

    #[test]
    fn ft_death_before_any_send() {
        let inputs = int_inputs(4, 64);
        let surviving: Vec<Vec<f32>> = inputs[..3].to_vec();
        let want = reference_sum(&surviving);
        let plan = ExecFaultPlan::kill_rank(3, 0, FAST_TIMEOUT);
        let report = allreduce_ft(inputs, 2, &plan, &InMemProvider, None);
        assert_eq!(report.dead, vec![3]);
        for r in 0..3 {
            assert_eq!(report.outputs[r].as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn ft_two_deaths_two_shrinks_or_one() {
        let inputs = int_inputs(5, 80);
        let surviving: Vec<Vec<f32>> =
            vec![inputs[0].clone(), inputs[2].clone(), inputs[4].clone()];
        let want = reference_sum(&surviving);
        let plan = ExecFaultPlan {
            deaths: vec![(1, 0), (3, 0)],
            recv_timeout: FAST_TIMEOUT,
        };
        let report = allreduce_ft(inputs, 2, &plan, &InMemProvider, None);
        assert_eq!(report.dead, vec![1, 3]);
        assert_eq!(report.survivors, vec![0, 2, 4]);
        for &r in &[0usize, 2, 4] {
            assert_eq!(report.outputs[r].as_ref().unwrap(), &want, "rank {r}");
        }
    }

    #[test]
    fn ft_shrinks_to_single_survivor() {
        let inputs = int_inputs(2, 16);
        let want = inputs[0].clone();
        let plan = ExecFaultPlan::kill_rank(1, 0, FAST_TIMEOUT);
        let report = allreduce_ft(inputs, 1, &plan, &InMemProvider, None);
        assert_eq!(report.survivors, vec![0]);
        assert_eq!(report.outputs[0].as_ref().unwrap(), &want);
        assert!(report.outputs[1].is_none());
    }

    #[test]
    fn ft_trajectory_identical_over_tcp() {
        // The shrink-to-survivors trajectory is transport-invariant: over
        // TCP the death is detected by teardown (FIN) rather than
        // timeout, but survivors, dead set, and attempt count agree.
        let inputs = int_inputs(5, 64);
        let plan = ExecFaultPlan::kill_rank(2, 1, Duration::from_millis(500));
        let inmem = allreduce_ft(inputs.clone(), 2, &plan, &InMemProvider, None);
        let tcp = allreduce_ft(inputs, 2, &plan, &TcpProvider, None);
        assert_eq!(inmem, tcp);
    }
}
