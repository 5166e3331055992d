#!/usr/bin/env bash
# FabricFail chaos soak: run the seeded chaos gate (bench/ext_chaos)
# across a sweep of seeds. Every seed gets a fresh randomized failure
# schedule (detected link/switch-down windows + silent flaps) over the
# same Clos fabrics and load; the bench exits non-zero if any seed
# produces a FabricCheck violation, a digest divergence between
# identical runs, or a silently-hung flow. Each seed other than the
# default (7) writes results/ext_chaos[_quick]_seed<N>.* (gitignored), so
# the committed results/ext_chaos[_quick].* stay the default seed's.
#
# Usage: scripts/chaos_soak.sh [build-dir] [seed ...]
#   build-dir   default: build
#   seeds       default: 1..8 (quick soak); pass explicit seeds to
#               reproduce a failing schedule.
# Env: CHAOS_FULL=1 runs the full-size fabrics (128 endpoints, 3-level
# Clos) instead of quick mode.
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
shift $(( $# > 0 ? 1 : 0 )) || true
seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then
  seeds=(1 2 3 4 5 6 7 8)
fi

if [[ ! -x "$build/bench/ext_chaos" ]]; then
  cmake -B "$build" -G Ninja
  cmake --build "$build" --target ext_chaos
fi

mode=(quick)
if [[ "${CHAOS_FULL:-0}" == "1" ]]; then
  mode=()
fi

failed=()
for seed in "${seeds[@]}"; do
  echo "== chaos soak: seed $seed =="
  if ! "$build/bench/ext_chaos" "${mode[@]}" --seed "$seed"; then
    failed+=("$seed")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "chaos soak: FAILED seeds: ${failed[*]}" >&2
  echo "reproduce with: $build/bench/ext_chaos ${mode[*]} --seed <seed>" >&2
  exit 1
fi
echo "chaos soak: OK (${#seeds[@]} seeds clean)"
