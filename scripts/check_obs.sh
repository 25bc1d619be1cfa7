#!/usr/bin/env bash
# Validates a fleet_sweep --obs-json profile: well-formed document, at
# least one worker long enough to measure (5 ms), and every such worker's
# busy + stall + merge + send time reconciles with its wall-clock to within
# 5% (the obs layer's accounting must actually explain where sweep time
# went, not just emit numbers).
#
#   scripts/check_obs.sh PROFILE.json   # validate an existing profile
#   scripts/check_obs.sh                # run a sweep, then validate it
#
# The self-run sweeps without the result cache: a warm cache answers every
# cell, so no worker would execute and there would be nothing to reconcile.
# 60 simulated seconds per cell keep each worker well above 5 ms.
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-}"
if [[ -z "$profile" ]]; then
  profile="$(mktemp --suffix=.json)"
  trap 'rm -f "$profile"' EXIT
  cargo run --release -q -p quanto-bench --bin fleet_sweep -- \
    --seconds 60 --seeds 2 --no-cache --obs-json "$profile"
fi

cargo run --release -q -p quanto-bench --bin obs_check -- "$profile"
