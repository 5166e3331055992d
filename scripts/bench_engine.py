#!/usr/bin/env python3
"""Append the engine's perf figures to the BENCH_engine.json trajectory.

Runs the google-benchmark binary (bench/micro_simcore) in JSON mode and
scrapes events/sec and items/sec per benchmark. micro_simcore is the only
producer of host-time numbers; the reports under results/ hold none.

One record per commit is appended to BENCH_engine.json at the repo root:

    [
      {"commit": "<sha>" or "<sha>-dirty",
       "date": "<ISO-8601 UTC>",
       "config": {"preset": "...", "jobs": N, "cpu_count": N, "cpu_model": "..."},
       "benchmarks": {
          "BM_EventQueueThroughput": {"events_per_sec": ..., "items_per_sec": ...},
          "BM_AllreduceSteadyState/iWARP": {"events_per_sec": ..., "items_per_sec": ...},
          ...}},
      ...
    ]

config's cpu_model, cpu_count and preset are the machine fingerprint:
scripts/assert_perf.py compares a record only with an earlier record of
the same fingerprint (>25% events/sec regression fails).

Idempotent per commit: re-running on the same HEAD *replaces* that
commit's record instead of appending a duplicate, so the trajectory
stays one point per commit no matter how often run_all.sh re-runs. A
working tree with any change besides the trajectory file itself is
recorded as "<sha>-dirty", which replaces only an earlier "<sha>-dirty":
numbers measured on uncommitted code never overwrite (or pose as) the
record of the commit they started from.

Usage:
  bench_engine.py <micro_simcore-binary> [trajectory-json] [--preset NAME] [--jobs N]
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def head_commit(trajectory: Path) -> str:
    """HEAD's short hash, suffixed "-dirty" when any path other than the
    trajectory file differs from HEAD (tracked or untracked)."""
    try:
        sha = git("rev-parse", "--short", "HEAD").strip()
        top = Path(git("rev-parse", "--show-toplevel").strip()).resolve()
        status = git("status", "--porcelain", "--untracked-files=all")
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"
    try:
        own = trajectory.resolve().relative_to(top).as_posix()
    except ValueError:
        own = None  # the trajectory lives outside the work tree
    changed = [line[3:].split(" -> ")[-1].strip('"') for line in status.splitlines()]
    return sha + "-dirty" if any(path != own for path in changed) else sha


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def scrape_micro(binary: str) -> dict:
    result = subprocess.run(
        [binary, "--benchmark_format=json", "--benchmark_min_time=0.05"],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        print(f"bench_engine: {binary} failed:\n{result.stderr}", file=sys.stderr)
        return {}
    data = json.loads(result.stdout)

    benchmarks = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        entry = {}
        if "events_per_sec" in bench:
            entry["events_per_sec"] = bench["events_per_sec"]
        if "items_per_second" in bench:
            entry["items_per_sec"] = bench["items_per_second"]
        if entry:
            benchmarks[bench["name"]] = entry
    return benchmarks


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("binary", help="bench/micro_simcore google-benchmark binary")
    parser.add_argument("trajectory", nargs="?", default="BENCH_engine.json")
    parser.add_argument("--preset", default="default", help="build preset recorded in the entry")
    parser.add_argument("--jobs", type=int, default=None,
                        help="build parallelism recorded in the entry (default: cpu count)")
    args = parser.parse_args()

    benchmarks = scrape_micro(args.binary)
    if not benchmarks:
        return 1

    out_path = Path(args.trajectory)
    commit = head_commit(out_path)
    trajectory = []
    if out_path.exists():
        try:
            trajectory = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            print(f"bench_engine: {out_path} is corrupt, starting fresh", file=sys.stderr)
    # One record per commit: replace, never duplicate ("<sha>-dirty"
    # replaces only "<sha>-dirty").
    trajectory = [r for r in trajectory if r.get("commit") != commit]
    trajectory.append({
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "config": {
            "preset": args.preset,
            "jobs": args.jobs if args.jobs is not None else os.cpu_count(),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "benchmarks": benchmarks,
    })
    out_path.write_text(json.dumps(trajectory, indent=2) + "\n")

    for name, entry in sorted(benchmarks.items()):
        rate = entry.get("events_per_sec")
        if rate is not None:
            print(f"bench_engine: {name}: {rate / 1e6:.2f} M events/sec")
    print(f"bench_engine: recorded {commit} in {out_path} ({len(trajectory)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
