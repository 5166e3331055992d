#!/usr/bin/env python3
"""Self-tests for the perf trajectory tools (ctest: perf_gate_selftest).

scripts/assert_perf.py runs on synthetic trajectories: it must compare a
record only with an earlier record of the same machine fingerprint
(cpu_model, cpu_count, preset), fail a 30% drop there, and pass the same
drop across two machines as a baseline. scripts/bench_engine.py runs in
a scratch git repository against a stand-in micro_simcore: a dirty tree
is recorded as "<sha>-dirty", which replaces only "<sha>-dirty", and a
change to the trajectory file alone leaves the tree clean.
"""
import json
import os
import stat
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")

failures = []


def check(name, ok, detail=""):
    print(("PASS" if ok else "FAIL") + f": {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def record(commit, rate, cpu_model="Model A", cpu_count=4, preset="default"):
    config = {"preset": preset, "jobs": cpu_count, "cpu_count": cpu_count}
    if cpu_model is not None:
        config["cpu_model"] = cpu_model
    return {"commit": commit, "date": "2026-01-01T00:00:00Z", "config": config,
            "benchmarks": {"BM_Lane": {"events_per_sec": rate}}}


def gate(tmp, trajectory):
    path = os.path.join(tmp, "trajectory.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trajectory, f)
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, "assert_perf.py"), path],
                          capture_output=True, text=True)


# --- assert_perf.py ------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    same = gate(tmp, [record("a", 100e6), record("b", 70e6)])
    check("assert_perf: a 30% drop on one machine fails", same.returncode == 1, same.stdout)

    other = gate(tmp, [record("a", 100e6), record("b", 70e6, cpu_model="Model B")])
    check("assert_perf: a 30% drop across two machines passes", other.returncode == 0,
          other.stderr)
    check("assert_perf: ... as the baseline for this machine",
          "baseline for this machine" in other.stdout, other.stdout)

    cores = gate(tmp, [record("a", 100e6), record("b", 70e6, cpu_count=8)])
    check("assert_perf: cpu_count is part of the fingerprint", cores.returncode == 0)
    preset = gate(tmp, [record("a", 100e6), record("b", 70e6, preset="check")])
    check("assert_perf: preset is part of the fingerprint", preset.returncode == 0)

    skip = gate(tmp, [record("a", 100e6), record("x", 40e6, cpu_model="Model B"),
                      record("b", 70e6)])
    check("assert_perf: compares with the latest record of the same machine",
          skip.returncode == 1 and " vs a" in skip.stderr, skip.stderr)

    old = gate(tmp, [record("a", 100e6, cpu_model=None), record("b", 70e6)])
    check("assert_perf: a record without a fingerprint is never a baseline",
          old.returncode == 0 and "baseline for this machine" in old.stdout)
    new = gate(tmp, [record("a", 100e6), record("b", 70e6, cpu_model=None)])
    check("assert_perf: a newest record without a fingerprint compares with nothing",
          new.returncode == 0 and "baseline for this machine" in new.stdout)

    steady = gate(tmp, [record("a", 100e6), record("b", 95e6)])
    check("assert_perf: a 5% drop on one machine passes", steady.returncode == 0)


# --- bench_engine.py -----------------------------------------------------

FAKE_MICRO = """#!/usr/bin/env python3
import json
print(json.dumps({"benchmarks": [{"name": "BM_Lane", "run_type": "iteration",
                                  "events_per_sec": 1e6, "items_per_second": 1e6}]}))
"""


def commits(repo):
    with open(os.path.join(repo, "BENCH_engine.json"), encoding="utf-8") as f:
        return [r["commit"] for r in json.load(f)]


with tempfile.TemporaryDirectory() as repo:
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@example.com",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@example.com",
               GIT_CEILING_DIRECTORIES=os.path.dirname(repo))

    def sh(*args):
        return subprocess.run(list(args), cwd=repo, env=env, capture_output=True, text=True)

    micro = os.path.join(repo, "..", os.path.basename(repo) + "-micro")
    with open(micro, "w", encoding="utf-8") as f:
        f.write(FAKE_MICRO)
    os.chmod(micro, os.stat(micro).st_mode | stat.S_IEXEC)
    try:
        sh("git", "init", "-q")
        with open(os.path.join(repo, "engine.cpp"), "w", encoding="utf-8") as f:
            f.write("int main() { return 0; }\n")
        sh("git", "add", "engine.cpp")
        sh("git", "commit", "-q", "-m", "seed")
        sha = sh("git", "rev-parse", "--short", "HEAD").stdout.strip()

        def record_run():
            return sh(sys.executable, os.path.join(SCRIPTS, "bench_engine.py"), micro,
                      "BENCH_engine.json")

        first = record_run()
        check("bench_engine: a clean tree is recorded under its commit",
              first.returncode == 0 and commits(repo) == [sha], first.stderr + str(commits(repo)))
        with open(os.path.join(repo, "BENCH_engine.json"), encoding="utf-8") as f:
            config = json.load(f)[0]["config"]
        check("bench_engine: the record carries the machine fingerprint",
              all(key in config for key in ("cpu_model", "cpu_count", "preset")), str(config))

        record_run()
        check("bench_engine: the trajectory file alone does not dirty the tree",
              commits(repo) == [sha], str(commits(repo)))

        with open(os.path.join(repo, "engine.cpp"), "a", encoding="utf-8") as f:
            f.write("// edited\n")
        record_run()
        check("bench_engine: a dirty tree is recorded as <sha>-dirty beside <sha>",
              commits(repo) == [sha, sha + "-dirty"], str(commits(repo)))
        record_run()
        check("bench_engine: <sha>-dirty replaces only <sha>-dirty",
              commits(repo) == [sha, sha + "-dirty"], str(commits(repo)))

        sh("git", "checkout", "-q", "engine.cpp")
        with open(os.path.join(repo, "new.cpp"), "w", encoding="utf-8") as f:
            f.write("\n")
        record_run()
        check("bench_engine: an untracked file dirties the tree",
              commits(repo) == [sha, sha + "-dirty"], str(commits(repo)))

        os.remove(os.path.join(repo, "new.cpp"))
        record_run()
        check("bench_engine: a clean rerun replaces only <sha>",
              commits(repo) == [sha + "-dirty", sha], str(commits(repo)))
    finally:
        os.remove(micro)

if failures:
    print(f"perf_gate_test: {len(failures)} failure(s)")
    sys.exit(1)
print("perf_gate_test: all passed")
