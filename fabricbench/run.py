#!/usr/bin/env python3
"""FabricBench runner: build the benchmark from source, run one workload,
check it, and print the result as the last line of standard output.

Run from the repository root:

  python3 fabricbench/run.py --workload headline --seed 1 --seconds 30 --trace 0
  python3 fabricbench/run.py --workload all --seconds 10   # every workload, both modes
  python3 fabricbench/run.py --self-test
  python3 fabricbench/run.py --record    # rewrite expected.json from this build

The build goes to $CARGO_TARGET_DIR/fabricbench (default
.bench_build/fabricbench). Build output goes to standard error. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 its per_layer metrics. See fabricbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("headline", "allreduce_clos", "incast_lossy")
RUN_TIMEOUT_S = 170


def fail(message):
    print("fabricbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "fabricbench")


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "fabricbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "fabricbench")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; echo its report and return its JSON record."""
    trace_out = os.path.join(build_dir(), "traces", "%s-seed%d.trace.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--expected", os.path.join(HERE, "expected.json"),
           "--trace-out", trace_out, "--commit", commit(), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    print("\n".join(lines))
    return json.loads(lines[-1])


def result_line(record, trace):
    """The contract result: BENCHMARK.json's metrics for this mode, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("the run did not produce metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def self_test(binary):
    """Negative self-test: a corrupted expected value must fail ops."""
    ok = True
    for workload in WORKLOADS:
        record = run_binary(binary, workload, 1, 0, 0, ["--corrupt-expected"])
        caught = record["failed"] > 0 and not record["correct"]
        print("self-test %s: corrupted expectation %s"
              % (workload, "caught" if caught else "MISSED"))
        ok &= caught
    record = run_binary(binary, "headline", 1, 0, 1)
    clean = record["failed"] == 0 and record["correct"]
    print("self-test headline: clean run %s" % ("passes" if clean else "FAILS"))
    return ok and clean


def record_expected(binary):
    """Rewrite expected.json with this build's outputs at the default seed."""
    with open(os.path.join(HERE, "expected.json")) as f:
        seed = json.load(f)["default_seed"]
    parts = []
    for workload in WORKLOADS:
        out = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                              "--trace", "0", "--expected", os.path.join(HERE, "expected.json"),
                              "--print-expected"], capture_output=True, text=True, check=True)
        parts.append(out.stdout.strip())
    doc = json.loads("{\"default_seed\": %d, %s}" % (seed, ", ".join(parts)))
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (args.self_test or args.record) and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.record:
        record_expected(binary)
        return
    if args.self_test:
        sys.exit(0 if self_test(binary) else 1)
    if args.workload == "all":
        correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run_binary(binary, workload, args.seed, args.seconds, trace)
                result = result_line(record, trace)
                correct &= result["correct"]
                print(json.dumps({"workload": workload, "trace": trace, **result}))
        sys.exit(0 if correct else 1)
    record = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result_line(record, args.trace)))


if __name__ == "__main__":
    main()
