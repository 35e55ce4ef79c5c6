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

echo "==> panic ratchet (unwrap()/expect(/panic! in non-test code)"
# Every one of these is a way for input, a peer or a caller to take the
# process down instead of getting a typed error, so the count only goes
# down: every line under crates/*/src outside the items that carry
# #[cfg(test)], perfbench (the benchmark's own directory) excluded. Lower
# PANIC_BUDGET when a PR removes some; a PR that needs one more has to
# remove another.
PANIC_BUDGET=134
# A skipped item starts at the first line after its attributes and
# comments. A single-line item ends at its `;` (a variant or field at its
# `,`), a block item where its brackets close; strings, char literals and
# line comments do not count toward the brackets.
panics=$(find crates/*/src -name '*.rs' -not -path '*/bin/perfbench/*' -print0 |
    xargs -0 awk 'FNR == 1 { skip = 0; pend = 0 }
        skip {
            if (pend && ($0 ~ /^[ \t]*$/ || $0 ~ /^[ \t]*(#\[|\/\/)/)) next
            pend = 0
            s = $0
            gsub(/\\./, "", s); gsub(/"[^"]*"/, "", s); gsub(/\047[^\047]\047/, "", s)
            sub(/\/\/.*/, "", s)
            opened += gsub(/\{/, "&", s)
            depth += gsub(/[{([]/, "&", s) - gsub(/[})\]]/, "&", s)
            if (depth <= 0 && (opened || s ~ /[;,][ \t]*$/)) skip = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; pend = 1; depth = 0; opened = 0; next }
        { n += gsub(/unwrap\(\)|expect\(|panic!/, "&") }
        END { print n + 0 }' |
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
