#!/usr/bin/env bash
# The results/ gate: every file under results/ must be exactly what the
# code writes. It regenerates all of them from the repo root, then fails
# unless `git status --porcelain -- results/` is empty:
#
#   1. build the configuration in build-dir (configured on first use);
#   2. delete every tracked file under results/, so a committed report
#      that nothing writes any more shows up as deleted;
#   3. run every report bench (scripts/run_benches.sh: one job per core;
#      a bench that exits non-zero fails the gate by name; assert_clean.py
#      checks each report);
#   4. run scope_check.py and hotpath_check.py, which rewrite
#      results/scope_report.json and results/hotpath_report.json;
#   5. fail on any modified, deleted or untracked file under results/.
#
# Simulated outputs depend only on code, config and seed, and counters
# (sim.digest included) are exact integers, so a nondeterministic report
# and a change in simulated behaviour that did not regenerate results/
# both fail step 5. After a deliberate change, run the gate and commit
# the rewritten results/.
#
# Usage: scripts/check_determinism.sh [build-dir]   (default: build, relative to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
[[ -f "$build/CMakeCache.txt" ]] || cmake -B "$build" -G Ninja
cmake --build "$build"

git ls-files -z -- results/ | xargs -0 rm -f
scripts/run_benches.sh "$build" .
python3 scripts/scope_check.py
python3 scripts/hotpath_check.py

changed="$(git status --porcelain -- results/)"
if [[ -n "$changed" ]]; then
  echo "STALE: results/ differs from what the code writes:" >&2
  echo "$changed" >&2
  exit 1
fi
echo "determinism: OK (results/ is exactly what the code writes)"
