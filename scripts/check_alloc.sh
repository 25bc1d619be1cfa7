#!/usr/bin/env bash
# The allocation gates: two counting-allocator test binaries, each wrapping
# the global allocator.
#
# * crates/core/tests/counting_alloc.rs — the warm record → flush-drain →
#   digest-fold pipeline performs zero heap allocations per entry.
# * crates/fleet/tests/sink_alloc.rs — a streamed LPL or Blink scenario on a
#   warm SimWorkspace allocates no more over 600 s than over 60 s: the
#   per-node analysis sink (digest, interval builder, stats, observation
#   pool, CPU segments) allocates nothing per entry.
#
#   scripts/check_alloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -q -p quanto-core --test counting_alloc
cargo test --release -q -p quanto-fleet --test sink_alloc
