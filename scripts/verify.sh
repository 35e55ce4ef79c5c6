#!/usr/bin/env bash
# The single list of verification gates: CI runs this script and nothing
# else, so a gate added here is a gate everywhere. Run from anywhere; the
# workspace has no registry dependencies, so everything works air-gapped.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> scale smoke (release, 10,000 GPUs)"
# Paper-scale points are release-only (the debug workspace run ignores
# them): the 10,000-GPU Fig 7a row must land in the 6-10 GB/s band in
# under 120 s, and the zone-scale congestion spread must stay tractable —
# both ride on the incremental solver.
cargo test -q --release --offline -p ff-bench --test scale_smoke

echo "==> storage failover smoke (release, fixed seed)"
# A fixed-seed run kills a 3FS chain member mid-training, checkpoints onto
# the degraded chain, re-syncs the target back and recovers
# bit-identically — with byte-identical obs digests across two same-seed
# runs. Finishes well under 60 s.
cargo test -q --release --offline -p fireflyer --test storage_failover

echo "==> HAI platform full-scale smoke (release, fixed seed)"
# The event-driven HAI scheduler replaying the multi-tenant mix on the
# full 1,250-node cluster: >=95% utilization, per-failure lost work within
# one checkpoint interval, and a byte-identical trace digest across two
# same-seed runs. ~30 s.
cargo test -q --release --offline -p ff-bench --test hai_platform_smoke

echo "==> serving co-schedule smoke (release, fixed seed)"
# The serving tier co-scheduled with training on a 64-node fluid cluster:
# every arrival served at >=99% SLO attainment in calm weather, training
# keeps >=50% of its baseline node-steps, 200x failure rates move p99 but
# never drop a request, byte-identical same-seed digests. Well under 120 s.
cargo test -q --release --offline -p ff-bench --test serving_smoke

echo "==> fleet sweep smoke + determinism check (release, vs committed BENCH_fleet.json)"
# The Monte-Carlo fleet sweeper on its 24-cell CI grid: the sweep digest
# must equal the golden recorded from a serial run (run here on 2 worker
# lanes, so thread-count invariance is re-proven every time) and must
# match the digest embedded in the committed aggregate. Well under 120 s.
# Regenerate with `fleet --write` when a PR deliberately moves scenario
# outcomes.
cargo test -q --release --offline -p ff-bench --test fleet_smoke
cargo run -q --release --offline -p ff-bench --bin fleet -- --check

echo "==> gray-failure detector smoke + determinism check (release, vs committed BENCH_detector.json)"
# The smoke grid's digest must be golden and thread-invariant, and the
# committed aggregate must match a fresh run of the sensitivity x slowdown
# paper grid — time-to-detect and false-positive costs are pinned, not
# approximate. Regenerate with `detector_bench --write` when a PR
# deliberately moves detection behavior.
cargo test -q --release --offline -p ff-bench --test detector_smoke
cargo run -q --release --offline -p ff-bench --bin detector_bench -- --check

echo "==> fabric transport smoke + invariance check (release, vs committed BENCH_fabric.json)"
# A small world of OS threads over real localhost TCP sockets must replay
# the in-memory fabric's communication schedule byte-for-byte (same trace
# digest), and the committed BENCH_fabric.json / calibration.json must be
# structurally sound. Bounded wall-clock; timing rows are
# machine-dependent and never compared. Regenerate with
# `fabric_bench --write` when a PR deliberately changes the collectives'
# communication schedule.
cargo test -q --release --offline -p ff-bench --test fabric_smoke
cargo run -q --release --offline -p ff-bench --bin fabric_bench -- --check

echo "==> fluid solver perf smoke (release, vs committed BENCH_fluid.json)"
# Deterministic pure-solver mix: the structural event count must match
# the committed baseline bit-for-bit, and events/sec must stay within a
# 20% regression budget (meaningless in debug, hence release-only).
# Regenerate with `fluid_bench --write` when a PR moves the solver.
cargo run -q --release --offline -p ff-bench --bin fluid_bench -- --check

echo "==> trace smoke (release, Perfetto JSON carries every layer's track)"
# The recovery run's Chrome trace must parse and name at least one track
# per instrumented layer, so a layer silently dropping its obs hookup
# fails here rather than in someone's Perfetto tab.
trace="target/verify-trace.json"
cargo run -q --release --offline -p ff-bench --bin ops_recovery -- --trace "$trace"
python3 - "$trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
for prefix in ("desim", "reduce", "fs3", "platform"):
    assert any(n.startswith(prefix) for n in names), f"missing {prefix} track"
print(f"{len(events)} events, {len(names)} named tracks")
PY

echo "==> panic ratchet (unwrap()/expect(/panic! in non-test code)"
# Every one of these is a way for input, a peer or a caller to take the
# process down instead of getting a typed error, so the count only goes
# down: each file under crates/*/src above its first #[cfg(test)],
# perfbench (the benchmark's own directory) excluded. Lower PANIC_BUDGET
# when a PR removes some; a PR that needs one more has to remove another.
PANIC_BUDGET=184
panics=$(find crates/*/src -name '*.rs' -not -path '*/bin/perfbench/*' -print0 |
    xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
        !test { n += gsub(/unwrap\(\)|expect\(|panic!/, "&") } END { print n + 0 }' |
    awk '{ total += $1 } END { print total + 0 }')
echo "$panics panic sites (budget $PANIC_BUDGET)"
if [ "$panics" -gt "$PANIC_BUDGET" ]; then
    echo "panic ratchet: $panics > $PANIC_BUDGET" >&2
    exit 1
fi

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify.sh: all gates passed"
