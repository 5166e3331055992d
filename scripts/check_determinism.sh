#!/usr/bin/env bash
# Determinism verifier. Runs representative benches twice — a lossless
# MPI latency sweep, the fault-injection suite (fixed seed, so the
# drop schedule is part of the contract), and the multi-switch incast
# sweep (64 endpoints over a 2-level Clos, so LFT routing and per-port
# queues are part of the fingerprint) — and requires the two runs to
# be byte-identical: same report JSON, and in particular the same
# sim.digest (the engine's FNV-1a fold over every (time, seq) event it
# dispatched) for every cluster the benches fingerprinted. It then
# requires the reports that results/ commits to equal the committed
# files byte for byte.
#
# Usage: scripts/check_determinism.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
if [[ ! -d "$build/bench" ]]; then
  cmake -B "$build" -G Ninja
  cmake --build "$build"
fi

# ext_chaos additionally self-checks: one invocation runs its probe
# scenario three times from the same seed and exits non-zero unless all
# three sim.digests are identical, so chaos failover (LFT reroute,
# drain/requeue, retry exhaustion) is part of the determinism contract.
#
# Each entry is a bench and its argument. A quick sweep reports as
# <bench>_quick; fig3_mpi_latency has a single sweep and reports under
# its own name.
runs=("fig3_mpi_latency" "ext_faults quick" "ext_incast quick" "ext_chaos quick")
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

for round in 1 2; do
  mkdir -p "$scratch/run$round/results"
  for run in "${runs[@]}"; do
    echo "== round $round: $run =="
    # shellcheck disable=SC2086  # $run is the bench plus its argument
    (cd "$scratch/run$round" && "$OLDPWD/$build/bench/"$run >/dev/null)
  done
done

status=0
for run in "${runs[@]}"; do
  read -r bench mode <<<"$run"
  report="$bench${mode:+_$mode}"
  a="$scratch/run1/results/$report.json"
  b="$scratch/run2/results/$report.json"
  if ! diff -q "$a" "$b" >/dev/null; then
    echo "NON-DETERMINISTIC: $report.json differs between identical runs" >&2
    diff "$a" "$b" | head -20 >&2 || true
    status=1
  fi
  digests=$(grep -c 'sim\.digest": ' "$a" || true)
  if [[ "$digests" -lt 1 ]]; then
    echo "MISSING: $report.json carries no sim.digest metric" >&2
    status=1
  else
    echo "$report: $digests digest(s) identical across runs"
  fi
done

# Committed results must match the code: a regenerated report must equal
# the one committed under results/ byte for byte. Counters, sim.digest
# included, are exact integers in the JSON, so a change to simulated
# behaviour that does not regenerate results/ fails here. Only these
# reports have a committed counterpart (ext_faults commits its full
# sweep, not the quick one run above).
committed=("fig3_mpi_latency" "ext_incast_quick" "ext_chaos_quick")
for report in "${committed[@]}"; do
  if cmp "$scratch/run1/results/$report.json" "results/$report.json" >&2; then
    echo "results/$report.json matches the code"
  else
    echo "STALE: results/$report.json does not match the code; regenerate results/" >&2
    status=1
  fi
done

if [[ "$status" == 0 ]]; then
  echo "determinism: OK"
fi
exit "$status"
