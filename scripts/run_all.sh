#!/usr/bin/env bash
# Build everything, run the full test suite, then regenerate every report
# under results/ and require it to equal the committed one
# (scripts/check_determinism.sh, which lists what changed when it does
# not). Mirrors what CI does.
#
# Flags (combinable):
#   --sanitize   additionally build under ASan+UBSan (build-asan/) and run
#                the test suite instrumented before the regeneration
#   --check      also build with the FabricCheck invariant auditor compiled
#                in (build-check/, -DFABSIM_CHECK=ON), run its test suite
#                and every report bench into a temporary directory; any
#                report with check.violations != 0 fails the run (check
#                builds add check.*, scope.* and hot.* counters, so these
#                reports are not compared with results/). Also requires
#                scope_check.py and hotpath_check.py to flag their
#                deliberately planted seams under --mutation
#   --trace      afterwards, export a Chrome-trace JSON of one rendezvous
#                message to results/trace_export.json (gitignored)
#   --explore    afterwards, re-run the FabricExplore schedule search with
#                a much larger budget (and the fuzzer) than the default
#                sweep in results/ext_explore.*; any finding fails the run
#                and leaves a replayable counterexample in
#                results/counterexamples/ (its report is discarded)
set -euo pipefail
cd "$(dirname "$0")/.."

sanitize=0
trace=0
check=0
explore=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) sanitize=1 ;;
    --trace) trace=1 ;;
    --check) check=1 ;;
    --explore) explore=1 ;;
    *) echo "unknown flag: $arg (expected --sanitize, --check, --trace and/or --explore)" >&2; exit 2 ;;
  esac
done
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
explore_build=build

# Configure a build tree: with Ninja on first use, else with whatever
# generator already made it (cmake refuses to switch generators).
configure() {
  local dir="$1"
  shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then cmake -B "$dir" "$@"; else cmake -B "$dir" -G Ninja "$@"; fi
}

if [[ "$sanitize" == 1 ]]; then
  configure build-asan -DFABSIM_SANITIZE=ON -DFABSIM_CHECK=ON
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
fi

configure build
cmake --build build
ctest --test-dir build --output-on-failure

if [[ "$check" == 1 ]]; then
  configure build-check -DFABSIM_CHECK=ON
  cmake --build build-check
  ctest --test-dir build-check --output-on-failure
  explore_build=build-check
  echo "=== benches under FabricCheck ==="
  bash scripts/run_benches.sh build-check "$scratch"

  # A gate that cannot fail gates nothing: each static analyzer must
  # catch its deliberately planted seam (a mislabeled post() scope; an
  # allocation in Engine::dispatch) when reading the mutated arm. The
  # clean-tree runs are part of the results/ gate below.
  echo "=== scope_check / hotpath_check mutation self-tests ==="
  if python3 scripts/scope_check.py --mutation --out - >/dev/null 2>&1; then
    echo "scope_check: mislabeled-scope mutation was NOT caught" >&2
    exit 1
  fi
  if python3 scripts/hotpath_check.py --mutation --out - >/dev/null 2>&1; then
    echo "hotpath_check: hot-path allocation mutation was NOT caught" >&2
    exit 1
  fi
fi

echo "=== results/ gate ==="
bash scripts/check_determinism.sh build

# Engine perf trajectory: append this commit's micro_simcore events/sec to
# BENCH_engine.json, then gate: >25% events/sec regression against the
# last recorded commit fails the run, as do zero-event measurements
# (assert_perf.py).
echo "=== bench_engine + assert_perf (gating) ==="
python3 scripts/bench_engine.py build/bench/micro_simcore --preset default
python3 scripts/assert_perf.py BENCH_engine.json

if [[ "$explore" == 1 ]]; then
  echo "=== ext_explore (large budget) ==="
  # Run from a scratch directory so this pass leaves the default sweep's
  # results/ext_explore.* alone; counterexamples still land in
  # results/counterexamples/.
  mkdir -p "$scratch/explore"
  (cd "$scratch/explore" && "$OLDPWD/$explore_build/bench/ext_explore" --budget 4096 --depth 48 \
    --fuzz 512 --seed 1 --out "$OLDPWD/results/counterexamples")
fi

if [[ "$trace" == 1 ]]; then
  echo "=== trace_export ==="
  build/examples/trace_export results/trace_export.json
fi
