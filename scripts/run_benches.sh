#!/usr/bin/env bash
# Run every report bench of a build, one job per core, with <out-dir> as
# the working directory, so the reports land in <out-dir>/results/. The
# invocations are each bench bench/CMakeLists.txt declares with
# fabsim_add_bench, with no argument, plus `<bench> quick` for each
# committed results/<bench>_quick.json. No report holds host time, so
# running the benches side by side changes no byte of them.
#
# Fails, naming the bench, when any invocation exits non-zero, and runs
# assert_clean.py on every report (present, live workload, no FabricCheck
# violations).
#
# Usage: scripts/run_benches.sh <build-dir> <out-dir>   (relative to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

bench_dir="$(realpath "$1")/bench"
out="$(realpath "$2")"
mkdir -p "$out/results"

# Declared last, the extensions hold the longest run (ext_chaos, about a
# third of the serial suite); starting them first keeps it from ending
# the sweep alone.
runs=()
reports=()
for bench in $(sed -n 's/^fabsim_add_bench(\([a-z0-9_]*\).*/\1/p' bench/CMakeLists.txt | tac); do
  runs+=("$bench")
  reports+=("$out/results/$bench.json")
done
for report in $(git ls-files 'results/*_quick.json'); do
  runs+=("$(basename "$report" _quick.json) quick")
  reports+=("$out/$report")
done

# shellcheck disable=SC2016  # expanded by the inner shell
printf '%s\n' "${runs[@]}" | xargs -P "$(nproc)" -I{} bash -c '
  cd "$1" && "$2"/$3 >/dev/null || { echo "FAILED: $3 (exit $?)" >&2; exit 1; }
  echo "ran: $3"' _ "$out" "$bench_dir" {}
python3 scripts/assert_clean.py "${reports[@]}"
