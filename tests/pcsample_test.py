#!/usr/bin/env python3
"""Self-test of the leaf-PC sampler's function labels (ctest:
pcsample_label_selftest).

scripts/pcsample/pcsample.py charges a sample without debug information
to the symbol whose extent holds it. A sample past the extent of the
nearest symbol below it, which addr2line would name after that symbol,
must be labelled as unnamed code of its binary instead. Pure function
checks on a synthetic symbol table: no sampling, no preloaded shim.
"""
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "pcsample", os.path.join(ROOT, "scripts", "pcsample", "pcsample.py"))
pcsample = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pcsample)

failures = []


def check(name, got, want):
    ok = got == want
    print(("PASS" if ok else "FAIL") + f": {name}" + ("" if ok else f" (got {got!r}, want {want!r})"))
    if not ok:
        failures.append(name)


LIBC = "/lib/x86_64-linux-gnu/libc.so.6"
# Two exported functions with a gap between them, as in a stripped libc:
# __default_morecore is 0x20 bytes long, and malloc's internals follow
# it unnamed.
TABLE = [(0x1000, 0x1020, "__default_morecore"), (0x3000, 0x3100, "__libc_malloc")]
SYMBOLS = ([start for start, _, _ in TABLE], TABLE)
NO_LINE = [("__default_morecore", "??")]

check("inside a symbol's extent",
      pcsample.function_of(0x1010, NO_LINE, SYMBOLS, LIBC), "__default_morecore")
check("a symbol's first byte", pcsample.function_of(0x3000, NO_LINE, SYMBOLS, LIBC),
      "__libc_malloc")
check("one past a symbol's end",
      pcsample.function_of(0x1020, NO_LINE, SYMBOLS, LIBC), "(unnamed in libc.so.6)")
check("in the gap between symbols",
      pcsample.function_of(0x2abc, NO_LINE, SYMBOLS, LIBC), "(unnamed in libc.so.6)")
check("below every symbol", pcsample.function_of(0x10, [("??", "??")], SYMBOLS, LIBC),
      "(unnamed in libc.so.6)")
check("no symbol table", pcsample.function_of(0x1010, NO_LINE, ([], []), LIBC),
      "(unnamed in libc.so.6)")
check("a frame with a source line keeps addr2line's name",
      pcsample.function_of(0x2abc, [("fabsim::Engine::step()", "/x/src/sim/engine.cpp")],
                           SYMBOLS, "/x/fabricbench"), "fabsim::Engine::step()")
check("an unmapped sample", pcsample.function_of(0x10, [("??", "")], ([], []), "(unmapped)"),
      "(unmapped)")

sys.exit(1 if failures else 0)
