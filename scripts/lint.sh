#!/usr/bin/env bash
# Static-analysis gate. Runs every analyzer available on this machine and
# always runs the dependency-free analyzers (conventions linter and the
# scope/ownership checker).
#
# Tool availability: by default a missing optional tool is skipped with a
# notice (the container used for development ships only the compiler
# toolchain). In CI pass --strict: there the image is expected to carry
# the tools, and a silently-skipped analyzer is a gate that stopped
# gating — strict mode turns "not installed" into a failure.
#
# Failure aggregation: each tool records its own verdict and the script
# exits non-zero if ANY tool failed — a later passing tool never masks
# an earlier failure, and the summary names every failed section.
#
#   clang-tidy    .clang-tidy config (bugprone/performance/readability/
#                 modernize subsets) over src/, using the compile database
#   cppcheck      C++20 static analysis over src/
#   clang-format  check-only formatting pass (--fix to rewrite)
#   conventions   scripts/conventions_lint.py (always runs)
#   scope-check   scripts/scope_check.py (always runs): post() scope
#                 labels vs ownership annotations, plus the mutation
#                 self-test (the deliberately mislabeled seam must be
#                 caught, proving the gate can fail)
#   hotpath-check scripts/hotpath_check.py (always runs): dispatch-path
#                 purity (no alloc/wall-clock/IO/throw reachable from
#                 Engine::dispatch or any post() continuation), plus its
#                 own mutation self-test (the FABSIM_MUTATION_HOTALLOC
#                 seam in Engine::dispatch must be caught)
#
# Usage: scripts/lint.sh [--fix] [--strict]
set -euo pipefail
cd "$(dirname "$0")/.."

fix=0
strict=0
for arg in "$@"; do
  case "$arg" in
    --fix) fix=1 ;;
    --strict) strict=1 ;;
    *) echo "usage: scripts/lint.sh [--fix] [--strict]" >&2; exit 2 ;;
  esac
done

failed=()

# The compile database clang-tidy wants. build/ is written by
# `cmake -B build -S .` (Unix Makefiles) or by the default preset (Ninja);
# naming no generator reconfigures it in whichever one it already uses,
# and both export compile_commands.json.
if [[ ! -f build/compile_commands.json ]]; then
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# missing <tool>: skip notice normally, hard failure under --strict.
missing() {
  if [[ "$strict" == 1 ]]; then
    echo "== $1: NOT INSTALLED (strict mode: this is a failure) =="
    failed+=("$1-missing")
  else
    echo "== $1: not installed, skipping =="
  fi
}

sources=$(find src -name '*.cpp' | sort)

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # shellcheck disable=SC2086
  clang-tidy -p build --quiet $sources || failed+=("clang-tidy")
else
  missing clang-tidy
fi

if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck =="
  cppcheck --std=c++20 --language=c++ --enable=warning,performance,portability \
    --error-exitcode=1 --inline-suppr --quiet -I src src || failed+=("cppcheck")
else
  missing cppcheck
fi

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format =="
  files=$(find src tests bench examples -name '*.cpp' -o -name '*.hpp' | sort)
  if [[ "$fix" == 1 ]]; then
    # shellcheck disable=SC2086
    clang-format -i $files
  else
    # shellcheck disable=SC2086
    clang-format --dry-run --Werror $files || failed+=("clang-format")
  fi
else
  missing clang-format
fi

echo "== conventions =="
python3 scripts/conventions_lint.py || failed+=("conventions")

echo "== scope-check =="
python3 scripts/scope_check.py || failed+=("scope-check")
# The gate must be able to fail: the deliberately mislabeled seam
# (FABSIM_MUTATION_SCOPE, src/hw/fabric.cpp) has to be flagged.
python3 scripts/scope_check.py --mutation --expect-violations --out - \
  || failed+=("scope-check-mutation")

echo "== hotpath-check =="
python3 scripts/hotpath_check.py || failed+=("hotpath-check")
# Same teeth requirement: the deliberately allocating dispatch seam
# (FABSIM_MUTATION_HOTALLOC, src/sim/engine.hpp) has to be flagged.
python3 scripts/hotpath_check.py --mutation --expect-violations --out - \
  || failed+=("hotpath-check-mutation")

if [[ "${#failed[@]}" -gt 0 ]]; then
  echo "lint: FAILED sections: ${failed[*]}" >&2
  exit 1
fi
echo "lint: all sections clean"
exit 0
