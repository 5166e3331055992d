#!/usr/bin/env python3
"""Self-tests for the dependency-free analyzers (ctest: lint_selftest).

Runs scripts/conventions_lint.py, scripts/scope_check.py and
scripts/hotpath_check.py against the fixture trees under
tests/lint_fixtures/: the *_clean trees must pass, and the *_dirty
trees must fail with every expected rule tag present — one positive and
one negative case per rule, so a regex that silently stops matching (or
starts over-matching) turns the suite red.
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")

failures = []


def check(name, ok):
    print(("PASS" if ok else "FAIL") + f": {name}")
    if not ok:
        failures.append(name)


def run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True)


# --- conventions_lint.py ----------------------------------------------

clean = run("conventions_lint.py", "--root",
            os.path.join(FIXTURES, "conventions_clean"))
check("conventions: clean tree passes", clean.returncode == 0)

dirty = run("conventions_lint.py", "--root",
            os.path.join(FIXTURES, "conventions_dirty"))
check("conventions: dirty tree fails", dirty.returncode != 0)
for rule in ["pragma-once", "include-resolution", "no-wall-clock",
             "no-naked-new", "no-rand", "post-ref-capture",
             "unordered-iteration", "switch-construction",
             "switch-failure-seam", "no-global-state", "no-stdfunction"]:
    check(f"conventions: dirty tree flags [{rule}]", f"[{rule}]" in dirty.stderr)
check("conventions: dirty tree count is exact",
      "11 problem(s)" in dirty.stderr)

# The real tree must be clean too (the gate the fixtures exist to guard).
real = run("conventions_lint.py")
check("conventions: real src/ is clean", real.returncode == 0)

# --- scope_check.py ---------------------------------------------------

clean = run("scope_check.py", "--root",
            os.path.join(FIXTURES, "scope_clean"), "--out", "-")
check("scope: clean tree passes", clean.returncode == 0)
check("scope: clean tree saw the waiver", "1 waived" in clean.stdout)

dirty = run("scope_check.py", "--root",
            os.path.join(FIXTURES, "scope_dirty"), "--out", "-")
check("scope: dirty tree fails", dirty.returncode != 0)
for rule in ["scope_mismatch", "unprovable_capture", "empty_waiver",
             "missing_dynamic_trap"]:
    check(f"scope: dirty tree flags [{rule}]", f"[{rule}]" in dirty.stderr)
check("scope: dirty tree flags the owner mismatch",
      "FABSIM_OWNED_BY(port_)" in dirty.stderr)
check("scope: dirty tree flags the shared capture",
      "FABSIM_SHARED state" in dirty.stderr)

# The real tree: clean by default, and the deliberately mislabeled
# mutation seam must be caught when armed (the gate can fail).
real = run("scope_check.py", "--out", "-")
check("scope: real src/ is clean", real.returncode == 0)
mutation = run("scope_check.py", "--mutation", "--expect-violations", "--out", "-")
check("scope: mutation seam is caught statically", mutation.returncode == 0)
check("scope: mutation verdict names the seam", "fabric.cpp" in mutation.stderr)

# --- hotpath_check.py -------------------------------------------------

clean = run("hotpath_check.py", "--root",
            os.path.join(FIXTURES, "hotpath_clean"), "--out", "-")
check("hotpath: clean tree passes", clean.returncode == 0)
check("hotpath: clean tree saw the waiver", "1 waived" in clean.stdout)
check("hotpath: clean tree stopped at the cold function",
      "1 cold stops" in clean.stdout)

dirty = run("hotpath_check.py", "--root",
            os.path.join(FIXTURES, "hotpath_dirty"), "--out", "-")
check("hotpath: dirty tree fails", dirty.returncode != 0)
for rule in ["hot_alloc", "hot_growth", "hot_stdfunction", "hot_wallclock",
             "hot_io", "hot_throw", "empty_waiver"]:
    check(f"hotpath: dirty tree flags [{rule}]", f"[{rule}]" in dirty.stderr)
check("hotpath: dirty tree scanned the post lambda",
      "<post-lambda>" in dirty.stderr)
check("hotpath: dirty tree followed an inherited call into the base class",
      "[hot_alloc] Device::place" in dirty.stderr)
check("hotpath: dirty tree followed a member call into a class template",
      "[hot_growth] Window::hold" in dirty.stderr)
check("hotpath: dormant mutation seam is NOT flagged",
      "mutation_hotalloc" not in dirty.stderr)
armed = run("hotpath_check.py", "--root",
            os.path.join(FIXTURES, "hotpath_dirty"), "--mutation", "--out", "-")
check("hotpath: armed mutation seam is flagged",
      "[mutation_hotalloc]" in armed.stderr)

# The real tree: clean by default, and the deliberately allocating
# dispatch seam must be caught when armed (the gate can fail).
with tempfile.TemporaryDirectory() as tmp:
    report_path = os.path.join(tmp, "hotpath_report.json")
    real = run("hotpath_check.py", "--out", report_path)
    with open(report_path, encoding="utf-8") as f:
        hot_set = json.load(f)["hot_set"]
check("hotpath: real src/ is clean", real.returncode == 0)
# The transports reach the shared verbs layer only through inherited
# calls; the walk must still scan it.
for fn in ["Device::place", "Device::complete_message", "Device::complete_send"]:
    check(f"hotpath: real hot set contains {fn}", fn in hot_set)
mutation = run("hotpath_check.py", "--mutation", "--expect-violations", "--out", "-")
check("hotpath: mutation seam is caught statically", mutation.returncode == 0)
check("hotpath: mutation verdict names the seam", "engine.hpp" in mutation.stderr)

if failures:
    print(f"lint_test: {len(failures)} failure(s)")
    sys.exit(1)
print("lint_test: all checks passed")
