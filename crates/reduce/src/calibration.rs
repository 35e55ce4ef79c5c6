//! Empirical transport calibration: measure a fabric backend's
//! per-message latency and large-message bandwidth, and hand the
//! constants to the `ff_hw` link model.
//!
//! The measurement is the classic two-regime ping-pong between ranks 0
//! and 1 of a two-endpoint world, run through [`CalibratedFabric`] so the
//! raw meters (messages, bytes, wall-clock inside `send`) are captured
//! alongside the fitted constants:
//!
//! * **small messages** (8 bytes) — the round-trip is pure per-message
//!   overhead, so `latency ≈ RTT / 2`;
//! * **large messages** — the round-trip is dominated by moving bytes, so
//!   `bandwidth ≈ bytes / (RTT/2 − latency)`.
//!
//! The resulting [`Calibration`] serializes to the committed
//! `calibration.json` (see the `fabric_bench` binary) and converts to an
//! [`ff_hw::LinkParams`] via [`Calibration::link_params`], which is how
//! the simulator's HFReduce prediction gets checked against a measured
//! loopback run (EXPERIMENTS.md).

use crate::fabric::{cal_sink, CalibratedFabric, Fabric, FabricProvider, Tag};
use std::time::{Duration, Instant};

/// Payload of the latency-regime ping.
const SMALL_BYTES: usize = 8;
/// Echo-side patience; generous — the pinger drives the pace.
const ECHO_TIMEOUT: Duration = Duration::from_secs(30);

/// Measured transport constants for one backend, plus the raw meters the
/// [`CalibratedFabric`] middleware accumulated during the run.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Backend name ("inmem", "tcp").
    pub backend: String,
    /// Ping-pong rounds in the latency regime.
    pub rounds: usize,
    /// Payload bytes of the latency-regime ping.
    pub small_bytes: usize,
    /// Payload bytes of the bandwidth-regime ping.
    pub large_bytes: usize,
    /// Fitted one-way per-message latency, microseconds.
    pub latency_us: f64,
    /// Fitted large-message goodput, GB/s.
    pub bandwidth_gbps: f64,
    /// Raw meter: messages sent across both endpoints.
    pub meter_sends: u64,
    /// Raw meter: payload bytes sent across both endpoints.
    pub meter_bytes: u64,
}

impl Calibration {
    /// The measured constants as an `ff_hw` link parameterization.
    pub fn link_params(&self) -> ff_hw::LinkParams {
        ff_hw::LinkParams::new(self.bandwidth_gbps * 1e9, self.latency_us * 1e-6)
    }

    /// Hand-rolled JSON encoding (the repo carries no serializer
    /// dependency), shaped for the committed `calibration.json`.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"backend\": \"{}\",\n",
                "  \"rounds\": {},\n",
                "  \"small_bytes\": {},\n",
                "  \"large_bytes\": {},\n",
                "  \"latency_us\": {:.3},\n",
                "  \"bandwidth_gbps\": {:.3},\n",
                "  \"meter\": {{ \"sends\": {}, \"bytes\": {} }}\n",
                "}}"
            ),
            self.backend,
            self.rounds,
            self.small_bytes,
            self.large_bytes,
            self.latency_us,
            self.bandwidth_gbps,
            self.meter_sends,
            self.meter_bytes,
        )
    }
}

fn ping_tag(i: u32) -> Tag {
    Tag {
        phase: crate::fabric::PHASE_A2A,
        tree: 0,
        chunk: i,
    }
}

/// Echo every data frame straight back until the pinger hangs up.
fn echo_loop<F: Fabric>(fab: &mut F) {
    loop {
        match fab.recv_any(ECHO_TIMEOUT) {
            Ok(m) if m.tag.is_ctrl() => return,
            Ok(m) => {
                if fab.send(m.from, m.tag, &m.bytes).is_err() {
                    return;
                }
                fab.recycle(m.bytes);
            }
            Err(_) => return,
        }
    }
}

/// One timed ping-pong burst; returns total wall-clock for `count`
/// round trips of `payload`.
fn pingpong<F: Fabric>(fab: &mut F, payload: &[u8], count: usize, base: u32) -> Duration {
    let t0 = Instant::now();
    for i in 0..count {
        let tag = ping_tag(base + i as u32);
        fab.send(1, tag, payload).expect("calibration send");
        let echo = fab
            .recv_any(ECHO_TIMEOUT)
            .expect("calibration echo within timeout");
        assert_eq!(echo.tag, tag, "echo out of order");
        fab.recycle(echo.bytes);
    }
    t0.elapsed()
}

/// Measure `provider`'s transport with a two-rank ping-pong: `rounds`
/// small round trips fit the latency, `max(2, rounds/16)` round trips of
/// `large_bytes` fit the bandwidth. Wall-clock-based, so the numbers are
/// machine-dependent — they are calibration inputs, never test oracles.
pub fn calibrate<P: FabricProvider>(
    provider: &P,
    rounds: usize,
    large_bytes: usize,
) -> Calibration {
    assert!(rounds >= 1 && large_bytes > SMALL_BYTES);
    let sink = cal_sink();
    let mut world = provider.world(2).expect("fabric world construction");
    let f1 = world.pop().expect("two endpoints");
    let f0 = world.pop().expect("two endpoints");
    let mut echo = CalibratedFabric::new(f1, sink.clone());
    let mut pinger = CalibratedFabric::new(f0, sink.clone());

    let small = vec![0u8; SMALL_BYTES];
    let large = vec![0u8; large_bytes];
    let large_rounds = (rounds / 16).max(2);
    let (backend, small_elapsed, large_elapsed) = std::thread::scope(|s| {
        let echo_thread = s.spawn(move || echo_loop(&mut echo));
        // Warm-up: first messages pay one-time costs (page faults, TCP
        // slow start) that belong to neither regime.
        pingpong(&mut pinger, &small, 4.min(rounds), 0);
        let small_elapsed = pingpong(&mut pinger, &small, rounds, 1000);
        let large_elapsed = pingpong(&mut pinger, &large, large_rounds, 1_000_000);
        let backend = pinger.backend().to_string();
        drop(pinger); // hangup: the echo thread exits on the ctrl frame
        echo_thread.join().expect("echo thread");
        (backend, small_elapsed, large_elapsed)
    });

    let latency_s = small_elapsed.as_secs_f64() / (2.0 * rounds as f64);
    let per_dir_large = large_elapsed.as_secs_f64() / (2.0 * large_rounds as f64);
    // Subtract the per-message floor; clamp so a noisy run can't produce
    // a non-positive transfer time.
    let transfer_s = (per_dir_large - latency_s).max(per_dir_large * 0.1);
    let stats = *sink.lock();
    Calibration {
        backend,
        rounds,
        small_bytes: SMALL_BYTES,
        large_bytes,
        latency_us: latency_s * 1e6,
        bandwidth_gbps: large_bytes as f64 / transfer_s / 1e9,
        meter_sends: stats.sends,
        meter_bytes: stats.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{InMemProvider, TcpProvider};

    #[test]
    fn inmem_calibration_produces_positive_constants() {
        let cal = calibrate(&InMemProvider, 16, 1 << 16);
        assert_eq!(cal.backend, "inmem");
        assert!(cal.latency_us > 0.0, "{cal:?}");
        assert!(cal.bandwidth_gbps > 0.0, "{cal:?}");
        assert!(cal.meter_sends >= 2 * 16, "{cal:?}");
        let lp = cal.link_params();
        assert!(lp.bps > 0.0 && lp.latency_s > 0.0);
    }

    #[test]
    fn tcp_calibration_produces_positive_constants() {
        let cal = calibrate(&TcpProvider, 8, 1 << 16);
        assert_eq!(cal.backend, "tcp");
        assert!(cal.latency_us > 0.0 && cal.bandwidth_gbps > 0.0, "{cal:?}");
    }

    #[test]
    fn calibration_json_is_well_formed() {
        let cal = Calibration {
            backend: "inmem".into(),
            rounds: 32,
            small_bytes: 8,
            large_bytes: 1 << 20,
            latency_us: 1.25,
            bandwidth_gbps: 4.5,
            meter_sends: 100,
            meter_bytes: 12345,
        };
        let j = cal.to_json();
        assert!(j.contains("\"backend\": \"inmem\""));
        assert!(j.contains("\"latency_us\": 1.250"));
        assert!(j.contains("\"bytes\": 12345"));
    }
}
