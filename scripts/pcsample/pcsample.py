#!/usr/bin/env python3
"""Run a command under the leaf-PC sampler and say where its CPU time went.

The pcsample.cpp shim records the interrupted program counter on every
ITIMER_PROF tick. This script builds the shim (unless --shim names one),
runs the command with it preloaded, symbolizes the PCs with addr2line and
prints the share of samples per function and per layer. A sample's layer
is the src/<layer>/ directory of its innermost inlined frame under src/,
so std::push_heap inlined into the engine counts as "sim"; other samples
count under their binary's name (libc.so.6, ...). A sample without debug
information is named after the symbol whose extent (nm -S, or nm -D -S
for a stripped library such as libc) holds it; past every symbol's
extent it is "(unnamed in libc.so.6)", not the nearest exported name.
x86-64 Linux only; elsewhere it exits 77, which ctest reports as skipped.

  pcsample.py [--shim SO] [--expect-layer L] -- CMD ARGS...

--expect-layer L fails the run unless layer L holds at least half of
the samples.
"""
import argparse
import bisect
import collections
import functools
import os
import platform
import shutil
import subprocess
import sys
import tempfile

SKIP = 77
TOP_FUNCTIONS = 15


def read_samples(path):
    """The executable mappings (lo, hi, file offset, path) and the PCs."""
    maps, pcs = [], []
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            fields = rest.split()
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map" and len(fields) >= 6 and "x" in fields[1] and fields[5][0] == "/":
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
    return maps, pcs


@functools.lru_cache(maxsize=None)
def is_exec(binary):
    with open(binary, "rb") as f:
        return f.read(18)[16] == 2  # ET_EXEC: addresses are absolute, not load-relative


def symbolize(binary, addrs):
    """addr -> [(function, source file)], innermost inlined frame first."""
    out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary] +
                         ["%x" % a for a in addrs], capture_output=True, text=True).stdout
    frames, lines, current = {}, out.splitlines(), None
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = frames.setdefault(int(lines[i], 16), [])
            i += 1
        else:
            current.append((lines[i], lines[i + 1].split(":")[0]))
            i += 2
    return frames


@functools.lru_cache(maxsize=None)
def read_symbols(binary):
    """(starts, symbols): the binary's sized code symbols as sorted
    (start, end, name), from its static table, or from its dynamic table
    when it has no static one (a stripped library such as libc)."""
    for table in (["-S"], ["-D", "-S"]):
        out = subprocess.run(["nm", "-C", "--defined-only", *table, binary],
                             capture_output=True, text=True).stdout
        symbols = []
        for line in out.splitlines():
            fields = line.split(None, 3)
            if len(fields) == 4 and fields[2] in "TtWwi":
                start = int(fields[0], 16)
                symbols.append((start, start + int(fields[1], 16), fields[3]))
        if symbols:
            symbols.sort()
            return [s[0] for s in symbols], symbols
    return [], []


def function_of(addr, frames, symbols, binary):
    """The function a sample at `addr` is charged to. addr2line's innermost
    frame is right when it has a source line. Without debug information
    addr2line names the nearest symbol below the address, however far
    past that symbol's end it lies, so then the symbol must also hold the
    address by its size; otherwise the sample is unnamed code of `binary`."""
    function, path = frames[0]
    if path not in ("", "??"):
        return function
    if binary[0] != "/":
        return binary  # "(unmapped)"
    starts, table = symbols
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and addr < table[i][1]:
        return table[i][2]
    return "(unnamed in %s)" % os.path.basename(binary)


def layer_of(frames, binary):
    for _, path in frames:
        parts = os.path.normpath(path).split(os.sep)
        if "src" in parts[:-2]:
            return parts[parts.index("src") + 1]
    return os.path.basename(binary)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shim", help="built pcsample shared object (default: build one)")
    parser.add_argument("--expect-layer", help="fail unless this layer holds half the samples")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    if platform.system() != "Linux" or platform.machine() != "x86_64" or not shutil.which("addr2line"):
        print("pcsample: needs x86-64 Linux and addr2line; skipped")
        return SKIP

    by_binary = collections.defaultdict(list)  # binary -> addresses to symbolize
    with tempfile.TemporaryDirectory() as tmp:
        shim = args.shim or os.path.join(tmp, "pcsample.so")
        if not args.shim:
            subprocess.run([os.environ.get("CXX", "c++"), "-O2", "-shared", "-fPIC", "-o", shim,
                            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         "pcsample.cpp")], check=True)
        env = dict(os.environ, LD_PRELOAD=shim, PCSAMPLE_OUT=os.path.join(tmp, "samples"))
        if subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode != 0:
            print("pcsample: command failed", file=sys.stderr)
            return 1
        for name in os.listdir(tmp):  # one file per process the command ran
            if name.startswith("samples."):
                maps, pcs = read_samples(os.path.join(tmp, name))
                for pc in pcs:
                    hit = next((m for m in maps if m[0] <= pc < m[1]), None)
                    if hit is None:
                        by_binary["(unmapped)"].append(pc)
                        continue
                    lo, _, offset, binary = hit
                    by_binary[binary].append(pc if is_exec(binary) else pc - lo + offset)

    functions, layers = collections.Counter(), collections.Counter()
    for binary, addrs in by_binary.items():
        mapped = binary[0] == "/"
        frames = symbolize(binary, sorted(set(addrs))) if mapped else {}
        symbols = read_symbols(binary) if mapped else ([], [])
        for addr in addrs:
            stack = frames.get(addr) or [("??", "")]
            functions[function_of(addr, stack, symbols, binary)] += 1
            layers[layer_of(stack, binary)] += 1
    total = sum(layers.values())
    if total == 0:
        print("pcsample: no samples", file=sys.stderr)
        return 1
    print("pcsample: %d samples\nby layer:" % total)
    for layer, n in layers.most_common():
        print("  %6.1f%%  %s" % (100.0 * n / total, layer))
    print("by function (innermost inlined frame):")
    for function, n in functions.most_common(TOP_FUNCTIONS):
        print("  %6.1f%%  %s" % (100.0 * n / total, function[:120]))
    if args.expect_layer:
        share = layers[args.expect_layer] / total
        print("pcsample: layer %s holds %.1f%%, %s half" %
              (args.expect_layer, 100 * share, "below" if share < 0.5 else "at least"))
        return 1 if share < 0.5 else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
