//! Executable expert parallelism: the all2all dispatch/combine of MoE
//! training (§II-B1: "the gate model selects tokens for allocation during
//! input, with corresponding tokens sent to experts model via all2all
//! communication"), run for real over the pluggable
//! [`Fabric`](ff_reduce::Fabric) transport — in-memory channels by
//! default, real localhost TCP with
//! [`TcpProvider`](ff_reduce::TcpProvider).
//!
//! Each rank hosts one expert and a shard of the tokens, and drives a
//! [`Communicator`](ff_reduce::Communicator) of its own. A step is: gate
//! (here: any deterministic assignment) → **all2all dispatch** (each
//! token's vector travels to its expert's rank) → expert computation →
//! **all2all combine** (results return to the token's home rank, in
//! order). The tests verify the end-to-end permutation is the identity
//! composed with the expert transforms — the property a correct all2all
//! pair must have.
//!
//! A peer dying mid-exchange surfaces as a typed
//! [`CommError`](ff_reduce::CommError) — the same error surface as the
//! fault-tolerant allreduce — never a panic: the caller decides whether
//! to retry, reroute around the dead expert, or abort the step.

use ff_reduce::fabric::FabricProvider;
use ff_reduce::{run_world, CommError, Wire, WireCursor};

/// A routed token: its home rank and index there, plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed<T> {
    /// Rank that owns the token.
    pub home: usize,
    /// Index within the home rank's batch.
    pub index: usize,
    /// The token vector.
    pub data: T,
}

impl<T: Wire> Wire for Routed<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.home.wire_write(out);
        self.index.wire_write(out);
        self.data.wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        Some(Routed {
            home: usize::wire_read(cur)?,
            index: usize::wire_read(cur)?,
            data: T::wire_read(cur)?,
        })
    }
}

/// Generic all2all over `provider`'s fabric: `sends[src][dst]` is
/// delivered so the result at `out[dst][src]` equals it — every rank
/// exchanges with every rank concurrently (one thread per rank). A dead
/// peer yields [`CommError::Disconnected`] on every survivor.
pub fn run_all2all<T, P>(
    sends: Vec<Vec<Vec<T>>>,
    provider: &P,
) -> Result<Vec<Vec<Vec<T>>>, CommError>
where
    T: Wire + Send,
    P: FabricProvider,
{
    run_all2all_with_dead(sends, &[], provider)
}

/// [`run_all2all`] with fault injection: ranks listed in `dead` tear
/// their endpoints down without sending or receiving, exactly like a
/// process that died before the exchange. Survivors observe the missing
/// traffic as a typed [`CommError::Disconnected`] naming the dead peer.
pub fn run_all2all_with_dead<T, P>(
    sends: Vec<Vec<Vec<T>>>,
    dead: &[usize],
    provider: &P,
) -> Result<Vec<Vec<Vec<T>>>, CommError>
where
    T: Wire + Send,
    P: FabricProvider,
{
    let n = sends.len();
    for row in &sends {
        assert_eq!(row.len(), n, "all2all needs an n×n send matrix");
    }
    run_world(provider, None, sends, |me, row, comm| {
        if dead.contains(&me) {
            // A crashed process tears its endpoint down loudly
            // (hangup frame / TCP FIN) — `run_world` drops the
            // communicator as this rank returns; its own "result" is
            // its death.
            return Err(CommError::Disconnected { peer: me });
        }
        comm.all2all(row, 0)
    })
    .into_iter()
    .collect()
}

/// One MoE layer step over `ep` expert-parallel ranks, on `provider`'s
/// fabric: `tokens[rank]` are the rank's token vectors, `gate` maps a
/// token to its expert rank, `expert(rank, x)` is the expert computation.
/// Each rank runs dispatch-all2all → expert → combine-all2all on one
/// [`Communicator`](ff_reduce::Communicator) — the two exchanges share
/// the same world, as a real networked MoE layer would. Returns the
/// combined outputs in each token's original position, or the
/// [`CommError`] a dying peer inflicted on either all2all.
pub fn run_moe_layer_step<T, G, F, P>(
    tokens: Vec<Vec<T>>,
    gate: G,
    expert: F,
    provider: &P,
) -> Result<Vec<Vec<T>>, CommError>
where
    T: Wire + Send + Clone,
    G: Fn(usize, usize, &T) -> usize, // (home rank, index, token) -> expert rank
    F: Fn(usize, &T) -> T + Sync,
    P: FabricProvider,
{
    let n = tokens.len();
    // Dispatch routing: bucket each token to its expert's rank.
    let mut sends: Vec<Vec<Vec<Routed<T>>>> = (0..n)
        .map(|_| (0..n).map(|_| Vec::new()).collect())
        .collect();
    for (home, batch) in tokens.iter().enumerate() {
        for (index, tok) in batch.iter().enumerate() {
            let dst = gate(home, index, tok);
            assert!(dst < n, "gate routed to unknown expert rank {dst}");
            sends[home][dst].push(Routed {
                home,
                index,
                data: tok.clone(),
            });
        }
    }
    let returned: Vec<Vec<Vec<Routed<T>>>> = run_world(provider, None, sends, |rank, row, comm| {
        // Dispatch: tokens travel to their experts (seq 0).
        let received = comm.all2all(row, 0)?;
        // Expert computation on this rank.
        let processed: Vec<Vec<Routed<T>>> = received
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|r| Routed {
                        data: expert(rank, &r.data),
                        ..r
                    })
                    .collect()
            })
            .collect();
        // Combine: results return to their home ranks (seq 1).
        comm.all2all(processed, 1)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    // Scatter results into original positions.
    let mut out: Vec<Vec<Option<T>>> = tokens
        .iter()
        .map(|b| b.iter().map(|_| None).collect())
        .collect();
    for per_rank in returned {
        for batch in per_rank {
            for r in batch {
                assert!(
                    out[r.home][r.index].replace(r.data).is_none(),
                    "token delivered twice"
                );
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|t| t.expect("every token returned"))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_reduce::{InMemProvider, TcpProvider};

    #[test]
    #[allow(clippy::needless_range_loop)] // (src, dst) indices are the point
    fn all2all_is_the_transpose() {
        let n = 4;
        let sends: Vec<Vec<Vec<(usize, usize)>>> = (0..n)
            .map(|src| (0..n).map(|dst| vec![(src, dst)]).collect())
            .collect();
        let out = run_all2all(sends, &InMemProvider).unwrap();
        for dst in 0..n {
            for src in 0..n {
                assert_eq!(out[dst][src], vec![(src, dst)]);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn all2all_over_tcp_is_the_transpose() {
        let n = 3;
        let sends: Vec<Vec<Vec<(usize, usize)>>> = (0..n)
            .map(|src| (0..n).map(|dst| vec![(src, dst)]).collect())
            .collect();
        let out = run_all2all(sends, &TcpProvider).unwrap();
        for dst in 0..n {
            for src in 0..n {
                assert_eq!(out[dst][src], vec![(src, dst)]);
            }
        }
    }

    #[test]
    fn all2all_handles_empty_and_uneven_payloads() {
        let sends = vec![vec![vec![1, 2, 3], vec![]], vec![vec![9], vec![7, 7]]];
        let out = run_all2all(sends, &InMemProvider).unwrap();
        assert_eq!(out[0][0], vec![1, 2, 3]);
        assert_eq!(out[0][1], vec![9]);
        assert_eq!(out[1][0], Vec::<i32>::new());
        assert_eq!(out[1][1], vec![7, 7]);
    }

    #[test]
    fn dead_peer_is_a_typed_error_not_a_panic() {
        let n = 4;
        let sends: Vec<Vec<Vec<u32>>> = (0..n)
            .map(|src| (0..n).map(|dst| vec![(src * n + dst) as u32]).collect())
            .collect();
        let err = run_all2all_with_dead(sends, &[2], &InMemProvider).unwrap_err();
        assert_eq!(err, CommError::Disconnected { peer: 2 });
    }

    #[test]
    fn dead_peer_over_tcp_is_the_same_typed_error() {
        let n = 4;
        let sends: Vec<Vec<Vec<u32>>> = (0..n)
            .map(|src| (0..n).map(|dst| vec![(src * n + dst) as u32]).collect())
            .collect();
        let err = run_all2all_with_dead(sends, &[2], &TcpProvider).unwrap_err();
        assert_eq!(err, CommError::Disconnected { peer: 2 });
    }

    #[test]
    fn moe_step_propagates_a_mid_dispatch_death() {
        // Route everything through the doomed exchange: the MoE step
        // itself only sees the error surface, so drive the faulty
        // all2all the way it would — dispatch matrix, one dead rank.
        let n = 3;
        let sends: Vec<Vec<Vec<Routed<i64>>>> = (0..n)
            .map(|home| {
                (0..n)
                    .map(|dst| {
                        vec![Routed {
                            home,
                            index: dst,
                            data: 7,
                        }]
                    })
                    .collect()
            })
            .collect();
        match run_all2all_with_dead(sends, &[0], &InMemProvider) {
            Err(CommError::Disconnected { peer: 0 }) => {}
            other => panic!("expected rank-0 disconnect, got {other:?}"),
        }
    }

    #[test]
    fn moe_step_routes_and_returns_in_order() {
        // 3 ranks × 5 tokens; token value v goes to expert v % 3, which
        // multiplies by 10 and adds its rank.
        let tokens: Vec<Vec<i64>> = (0..3)
            .map(|r| (0..5).map(|i| (r * 5 + i) as i64).collect())
            .collect();
        let out = run_moe_layer_step(
            tokens.clone(),
            |_, _, &tok| (tok % 3) as usize,
            |rank, &x| x * 10 + rank as i64,
            &InMemProvider,
        )
        .unwrap();
        for (r, batch) in out.iter().enumerate() {
            for (i, &v) in batch.iter().enumerate() {
                let orig = tokens[r][i];
                let expert = orig % 3;
                assert_eq!(v, orig * 10 + expert, "token ({r},{i})");
            }
        }
    }

    #[test]
    fn moe_step_over_tcp_matches_inmem() {
        let tokens: Vec<Vec<i64>> = (0..3)
            .map(|r| (0..4).map(|i| (r * 4 + i) as i64).collect())
            .collect();
        let gate = |_: usize, _: usize, tok: &i64| (*tok % 3) as usize;
        let expert = |rank: usize, x: &i64| x * 10 + rank as i64;
        let a = run_moe_layer_step(tokens.clone(), gate, expert, &InMemProvider).unwrap();
        let b = run_moe_layer_step(tokens, gate, expert, &TcpProvider).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_routing_all_tokens_to_one_expert() {
        // The worst-case gate (every token to expert 0) still round-trips
        // — the load-imbalance case MoE systems must survive.
        let tokens: Vec<Vec<i64>> = (0..4).map(|r| vec![r as i64; 8]).collect();
        let out =
            run_moe_layer_step(tokens.clone(), |_, _, _| 0, |_, &x| -x, &InMemProvider).unwrap();
        for (r, batch) in out.iter().enumerate() {
            assert_eq!(batch, &vec![-(r as i64); 8]);
        }
    }

    #[test]
    fn single_rank_degenerates_to_local_compute() {
        let out = run_moe_layer_step(
            vec![vec![1.0f64, 2.0]],
            |_, _, _| 0,
            |_, &x| x + 0.5,
            &InMemProvider,
        )
        .unwrap();
        assert_eq!(out, vec![vec![1.5, 2.5]]);
    }

    #[test]
    fn top_k_style_duplicated_tokens() {
        // Top-2 routing modeled as two layer passes whose results the
        // caller combines (weighted sum) — verify two passes with
        // different gates agree with direct evaluation.
        let tokens: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let pass1 =
            run_moe_layer_step(tokens.clone(), |_, _, _| 0, |_, &x| x * 2.0, &InMemProvider)
                .unwrap();
        let pass2 = run_moe_layer_step(
            tokens.clone(),
            |_, _, _| 1,
            |_, &x| x + 100.0,
            &InMemProvider,
        )
        .unwrap();
        for r in 0..2 {
            for i in 0..2 {
                let combined = 0.5 * pass1[r][i] + 0.5 * pass2[r][i];
                let want = 0.5 * (tokens[r][i] * 2.0) + 0.5 * (tokens[r][i] + 100.0);
                assert_eq!(combined, want);
            }
        }
    }

    #[test]
    fn routed_tokens_roundtrip_the_wire() {
        let r = Routed {
            home: 3,
            index: 41,
            data: vec![1.5f64, -2.5],
        };
        let mut b = Vec::new();
        r.wire_write(&mut b);
        let mut cur = WireCursor::new(&b);
        assert_eq!(Routed::<Vec<f64>>::wire_read(&mut cur), Some(r));
        assert!(cur.is_done());
    }
}
