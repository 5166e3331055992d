#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_engine.json trajectory.

Usage: assert_perf.py [trajectory-json] [--threshold 0.25] [--warn-only]

Companion to assert_clean.py: where that gate fails on broken reports,
this one fails on a *slower* engine. It compares the newest trajectory
record (appended by scripts/bench_engine.py) with the latest earlier
record made on the same machine: the same fingerprint, config's
cpu_model, cpu_count and preset. Host time from another machine says
nothing about this change, so with no such record the gate passes and
says "baseline for this machine"; a record without a fingerprint is
never comparable. (On ephemeral CI runners every run is such a
baseline.)

  * Any benchmark whose events_per_sec dropped by more than
    ``--threshold`` (default 25%) is a regression. With ``--warn-only``
    regressions are printed but do not fail the gate — shared CI runners
    are too noisy for a hard wall-clock gate, while a developer running
    run_all.sh locally gets the hard failure.

Hard failures that ``--warn-only`` does NOT soften (these mean the
instrument itself is broken, not that the machine is slow):

  * the trajectory file is missing, corrupt, or empty;
  * any record is schema-incomplete — every record must carry commit,
    date and config, or trajectory comparisons silently lose their
    provenance (which machine, which preset, when);
  * the newest record carries no benchmarks at all;
  * any recorded events_per_sec is zero or negative — a workload that
    dispatched nothing produced no measurement.

A newest record with no earlier record of its machine (a fresh baseline)
passes: there is nothing to compare against yet.
"""

import argparse
import json
import sys


def fingerprint(record):
    """(cpu_model, cpu_count, preset) of the machine a record was made on,
    or None when the record does not say."""
    config = record.get("config", {})
    parts = tuple(config.get(key) for key in ("cpu_model", "cpu_count", "preset"))
    return None if None in parts else parts


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trajectory", nargs="?", default="BENCH_engine.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional events/sec drop that counts as a regression")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions without failing (noisy shared runners)")
    args = parser.parse_args()

    try:
        with open(args.trajectory, encoding="utf-8") as f:
            trajectory = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"assert_perf: cannot read {args.trajectory}: {e}", file=sys.stderr)
        return 1
    if not isinstance(trajectory, list) or not trajectory:
        print(f"assert_perf: {args.trajectory} holds no records", file=sys.stderr)
        return 1

    schema_bad = 0
    for idx, record in enumerate(trajectory):
        for field, kind in (("commit", str), ("date", str), ("config", dict)):
            if not isinstance(record.get(field), kind):
                print(f"assert_perf: record {idx} ({record.get('commit')}) is "
                      f"schema-incomplete: missing/invalid '{field}'", file=sys.stderr)
                schema_bad += 1
    if schema_bad:
        return 1

    newest = trajectory[-1]
    benches = newest.get("benchmarks", {})
    if not benches:
        print(f"assert_perf: newest record ({newest.get('commit')}) has no benchmarks",
              file=sys.stderr)
        return 1

    hard_bad = 0
    for name, entry in sorted(benches.items()):
        rate = entry.get("events_per_sec")
        if rate is None:
            continue
        if rate <= 0:
            print(f"assert_perf: {name}: events_per_sec = {rate} — no measurement",
                  file=sys.stderr)
            hard_bad += 1
    if not any("events_per_sec" in e for e in benches.values()):
        print("assert_perf: newest record has no events_per_sec figures", file=sys.stderr)
        hard_bad += 1
    if hard_bad:
        return 1

    machine = fingerprint(newest)
    same_machine = [r for r in trajectory[:-1] if machine is not None and fingerprint(r) == machine]
    if not same_machine:
        print(f"assert_perf: no earlier record from {machine or 'an unnamed machine'} — "
              f"{newest.get('commit')} is the baseline for this machine")
        return 0

    previous = same_machine[-1]
    prev_benches = previous.get("benchmarks", {})
    regressions = []
    for name, entry in sorted(benches.items()):
        new_rate = entry.get("events_per_sec")
        old_rate = prev_benches.get(name, {}).get("events_per_sec")
        if new_rate is None or old_rate is None or old_rate <= 0:
            continue
        change = new_rate / old_rate - 1.0
        marker = ""
        if change < -args.threshold:
            regressions.append(name)
            marker = "  <-- REGRESSION"
        print(f"assert_perf: {name}: {old_rate / 1e6:.2f} -> {new_rate / 1e6:.2f} M events/sec "
              f"({change:+.1%}){marker}")

    if regressions:
        verdict = (f"assert_perf: {len(regressions)} benchmark(s) regressed more than "
                   f"{args.threshold:.0%} vs {previous.get('commit')}")
        if args.warn_only:
            print(f"{verdict} (warn-only)", file=sys.stderr)
            return 0
        print(verdict, file=sys.stderr)
        return 1
    print(f"assert_perf: clean vs {previous.get('commit')} "
          f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
