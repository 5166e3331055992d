#!/usr/bin/env bash
# Build everything, run the full test suite, then regenerate every figure
# into results/. Mirrors what CI would do.
#
# Flags (combinable):
#   --sanitize   additionally build under ASan+UBSan (build-asan/) and run
#                the test suite instrumented before the figure regeneration
#   --check      build with the FabricCheck invariant auditor compiled in
#                (build-check/, -DFABSIM_CHECK=ON) and use it for the
#                figure regeneration; any bench reporting check.violations
#                != 0 fails the run. Also runs the FabricScope-Check and
#                FabricHot-Check static gates: scope_check.py and
#                hotpath_check.py must be clean on the annotated tree
#                AND must each flag their deliberately planted seam
#                under --mutation
#   --trace      after the benches, export a Chrome-trace JSON of one
#                rendezvous message to results/trace_export.json
#   --explore    after the benches, re-run the FabricExplore schedule
#                search with a much larger budget (and the fuzzer) than
#                the default sweep the bench loop already performs; any
#                finding fails the run and leaves a replayable
#                counterexample in results/counterexamples/ (its report
#                is discarded: results/ext_explore.* stays the default
#                sweep's)
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

if [[ "$sanitize" == 1 ]]; then
  cmake -B build-asan -G Ninja -DFABSIM_SANITIZE=ON -DFABSIM_CHECK=ON
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

bench_dir=build/bench
if [[ "$check" == 1 ]]; then
  cmake -B build-check -G Ninja -DFABSIM_CHECK=ON
  cmake --build build-check
  ctest --test-dir build-check --output-on-failure
  bench_dir=build-check/bench

  # FabricScope-Check static gate (mirrors the monitor's runtime scope
  # audit the FABSIM_CHECK build just exercised): the analyzer must run
  # clean on the annotated tree, and must still catch the deliberately
  # mislabeled seam when reading its mutated arm — a gate that cannot
  # fail gates nothing.
  echo "=== scope_check (gating) ==="
  python3 scripts/scope_check.py
  if python3 scripts/scope_check.py --mutation --out - >/dev/null 2>&1; then
    echo "scope_check: mislabeled-scope mutation was NOT caught" >&2
    exit 1
  fi

  # FabricHot-Check static gate (mirrors the monitor's runtime
  # allocation budget the FABSIM_CHECK build just exercised):
  # dispatch-path purity must hold on the annotated tree, and the
  # deliberately allocating seam in Engine::dispatch must be caught when
  # read on its armed arm.
  echo "=== hotpath_check (gating) ==="
  python3 scripts/hotpath_check.py
  if python3 scripts/hotpath_check.py --mutation --out - >/dev/null 2>&1; then
    echo "hotpath_check: hot-path allocation mutation was NOT caught" >&2
    exit 1
  fi
fi

mkdir -p results
for b in "$bench_dir"/*; do
  [[ -f "$b" && -x "$b" ]] || continue  # skip CMakeFiles/ and cmake litter
  name="$(basename "$b")"
  echo "=== $name ==="
  # Benches write their own results/<name>.{txt,json} via the Report
  # helper, so tee into a temp file and only install the captured stdout
  # as .txt for binaries (e.g. micro_simcore) that don't self-report —
  # teeing straight onto results/<name>.txt would clobber the report.
  rm -f "results/$name.txt" "results/$name.json"
  tmp="$(mktemp)"
  "$b" | tee "$tmp"
  if [[ -f "results/$name.txt" ]]; then
    rm -f "$tmp"
  else
    mv "$tmp" "results/$name.txt"
  fi
  # Every self-reporting bench must leave a well-formed report with a
  # live workload behind (assert_clean fails on a missing report or zero
  # sim.events, and on FabricCheck violations). micro_simcore is exempt:
  # it is a google-benchmark binary with no Report output.
  if [[ "$name" != "micro_simcore" ]]; then
    python3 scripts/assert_clean.py "results/$name.json"
  fi
done

# Engine perf trajectory: append this commit's events/sec (micro_simcore
# plus the ext_scaling FabricProf probe) to BENCH_engine.json, then gate:
# >25% events/sec regression against the last recorded commit fails the
# run, as do zero-event measurements (assert_perf.py).
echo "=== bench_engine + assert_perf (gating) ==="
if [[ "$check" == 1 ]]; then
  # Perf numbers must come from the uninstrumented default build; the
  # bench loop above produced results/ext_scaling.* from build-check.
  build/bench/ext_scaling > /dev/null
fi
python3 scripts/bench_engine.py build/bench/micro_simcore \
  --preset default --report results/ext_scaling.json
python3 scripts/assert_perf.py BENCH_engine.json

if [[ "$explore" == 1 ]]; then
  echo "=== ext_explore (large budget) ==="
  # Run from a scratch directory so this pass leaves the default sweep's
  # results/ext_explore.* alone; counterexamples still land in
  # results/counterexamples/.
  explore_dir="$(mktemp -d)"
  trap 'rm -rf "$explore_dir"' EXIT
  (cd "$explore_dir" && "$OLDPWD/$bench_dir"/ext_explore --budget 4096 --depth 48 --fuzz 512 \
    --seed 1 --out "$OLDPWD/results/counterexamples")
fi

if [[ "$trace" == 1 ]]; then
  echo "=== trace_export ==="
  build/examples/trace_export results/trace_export.json
fi
