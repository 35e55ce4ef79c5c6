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

echo "==> scale smoke (release, the heavy paper-claims rows)"
# The registry's heavy rows are release-only (the debug workspace run
# ignores them): each must hold its band, the 10,000-GPU Fig 7a row must
# simulate to exactly 7.928 GB/s, and EXPERIMENTS.md must carry the table
# `repro` prints, byte for byte.
cargo test -q --release --offline -p ff-bench --test scale_smoke

echo "==> storage failover smoke (release, fixed seed)"
# A fixed-seed run kills a 3FS chain member mid-training, checkpoints onto
# the degraded chain, re-syncs the target back and recovers
# bit-identically — with byte-identical obs digests across two same-seed
# runs.
cargo test -q --release --offline -p fireflyer --test storage_failover

echo "==> HAI platform full-scale smoke (release, fixed seed)"
# The event-driven HAI scheduler replaying the multi-tenant mix on the
# full 1,250-node cluster: >=95% utilization, per-failure lost work within
# one checkpoint interval, and the golden trace digest.
cargo test -q --release --offline -p ff-bench --test hai_platform_smoke

echo "==> serving co-schedule smoke (release, fixed seed)"
# The serving tier co-scheduled with training on a 64-node fluid cluster:
# every arrival served at >=99% SLO attainment in calm weather, training
# keeps >=50% of its baseline node-steps, 200x failure rates move p99 but
# never drop a request, byte-identical same-seed digests.
cargo test -q --release --offline -p ff-bench --test serving_smoke

echo "==> fleet sweep smoke (release, vs committed BENCH_fleet.json)"
# The fleet sweeper's 24-cell small grid, run on 2 worker lanes, must
# reproduce the small_grid_digest committed in BENCH_fleet.json, so
# thread-count invariance and the artifact are re-proven every time.
cargo test -q --release --offline -p ff-bench --test fleet_smoke

echo "==> gray-failure detector smoke (release, vs committed BENCH_detector.json)"
# The smoke grid's digest must be golden at 1, 2 and 4 solver threads, and
# the paper grid must re-render BENCH_detector.json byte for byte.
cargo test -q --release --offline -p ff-bench --test detector_smoke

echo "==> panic ratchet (unwrap/expect/panic!/unreachable!/todo!/unimplemented! in product code)"
# Every one of these is a way for input, a peer or a caller to take the
# process down instead of getting a typed error, so the count only goes
# down. Clippy counts them over --lib --bins: #[cfg(test)] code, tests and
# doc examples are not compiled there, so the compiler decides what is test
# code, and --force-warn means no #[allow] can hide a site. perfbench (the
# benchmark's own directory) is left out. Lower PANIC_BUDGET to the new
# count when a PR removes sites; a PR that needs one more has to remove
# another.
PANIC_BUDGET=107
lints=(unwrap_used expect_used panic unreachable todo unimplemented)
# A failing clippy run fails the script here, before anything is counted.
json=$(cargo clippy --offline --workspace --lib --bins --message-format=json -- \
    -A clippy::all "${lints[@]/#/--force-warn=clippy::}")
mapfile -t sites < <(grep -v '/bin/perfbench/' <<<"$json" |
    grep -E "\"code\":\{\"code\":\"clippy::($(IFS='|'; echo "${lints[*]}"))\"" |
    grep -oE -- '--> [^\\]+' | cut -c5-)
echo "${#sites[@]} panic sites (budget $PANIC_BUDGET)"
if [ "${#sites[@]}" -gt "$PANIC_BUDGET" ]; then
    printf '%s\n' "${sites[@]}" >&2
    echo "panic ratchet: ${#sites[@]} > $PANIC_BUDGET" >&2
    exit 1
fi

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify.sh: all gates passed"
