#!/usr/bin/env python3
"""FabricSim source conventions linter (no external tooling required).

Checks, over src/ (and headers everywhere):

  1. pragma-once: every project header starts its preprocessor life with
     `#pragma once` (include guards are not used in this tree).
  2. include-resolution: every `#include "..."` of a project header
     resolves against src/ or the including file's directory — a rename
     that leaves a dangling include is caught without compiling.
  3. no-wall-clock: simulation code must be deterministic; the host
     clock (std::chrono system/steady/high_resolution clocks, ::time,
     gettimeofday, clock_gettime) is banned in src/. Simulated time comes
     from Engine::now() only.
  4. no-naked-new: allocations go through std::make_unique/make_shared
     or, for private constructors, the `unique_ptr<T>(new T(...))` idiom
     (detected across adjacent lines). Anything else is flagged.
  5. no-rand: std::rand/srand/random_shuffle are banned; randomness must
     flow from explicitly seeded std::mt19937 so runs stay reproducible.
  6. post-ref-capture: lambdas handed to Engine::post are deferred — a
     `[&]` default capture roots them in a stack frame that may be gone
     (or mutated) by dispatch time, and FabricExplore legally reorders
     co-enabled events, so by-reference state sharing between posted
     lambdas is a schedule hazard. Capture explicitly (by value, or a
     named pointer/reference whose lifetime is clear).
  7. unordered-iteration: range-for over a std::unordered_map/set makes
     behaviour depend on hash-table order. In simulation code any such
     iteration can feed the run digest (dispatch order, violation order,
     metric order), silently breaking run-to-run determinism and the
     explorer's replay guarantee. Iterate a deterministic container, or
     NOLINT with a written rationale for why order cannot matter.
  8. switch-construction: hw::Switch is only constructed by the
     topo::Topology builders (src/topo/) — they own switch ids, LFT
     computation and endpoint reservations, and a Switch wired up by
     hand bypasses all three. Everything else takes a Topology (or an
     edge switch reference from one). Tests are exempt by scope; an
     intentional exception takes a NOLINT with a rationale.
  9. switch-failure-seam: the hw::Switch failure controls
     (set_port_down/up, set_switch_down, requeue_down_port,
     drain_all_drop) are only driven by the failover layers — src/topo/
     (Topology::fail_/restore_ own the reroute-then-drain ordering and
     the credit accounting) and src/fault/. Any other caller can strand
     credits or leave LFTs pointing at a dead port; route failures
     through topo::Topology, or NOLINT with a rationale.
 10. wall-clock-exemption: the FabricProf host-time profiler is the
     single sanctioned consumer of the host clock — rule 3's wall-clock
     ban is lifted for src/sim/prof.hpp and src/sim/prof.cpp only
     (host-side dispatch profiling is meaningless in simulated time, and
     the Engine keeps all clock reads behind the Profiler seam). Every
     other file touching steady_clock/rdtsc-style time still fails.
 11. no-global-state: mutable namespace-scope/file-scope variables
     (`static` or global non-const) are banned in src/. Hidden global
     state is exactly what the scope/ownership analysis
     (scripts/scope_check.py) cannot see at a post() call site, and it
     couples otherwise scope-confined events — poison for the parallel
     engine and for FabricExplore's commutation claims. Constants
     (const/constexpr/constinit-const) are fine; a deliberate global
     takes a NOLINT(global-state) with a written rationale.
 12. no-stdfunction: `std::function` parameters/members are banned in
     src/sim/ and src/hw/ headers. Type-erased callables heap-allocate
     once the capture outgrows the SBO — exactly the allocation the
     zero-alloc dispatch contract (scripts/hotpath_check.py) exists to
     keep off the hot path. Use sim::InplaceFn (sim/inplace_fn.hpp),
     a template parameter, or a concrete functor; a deliberate use
     takes a NOLINT with a written rationale.

A line containing NOLINT is exempt from 3-9, 11 and 12. Exit status:
0 clean, 1 violations found.
"""
import argparse
import os
import re
import sys

from cxxscan import POST_CALL, source_files

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WALL_CLOCK = re.compile(
    r"system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime"
    r"|(?<![\w:])::time\s*\(|std::time\s*\("
)
NAKED_NEW = re.compile(r"(?<![\w_])new\s+[A-Za-z_(]")
RAND = re.compile(r"(?<![\w_])s?rand\s*\(|random_shuffle")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
REF_CAPTURE = re.compile(r"\[\s*&\s*[\],]")  # [&] or [&, x] default captures only
UNORDERED_DECL = re.compile(r"std::unordered_(?:map|set)\b[^;{=]*?[\s>](\w+)\s*[;{=]")
RANGE_FOR = re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(\w+)\s*\)")
SWITCH_CONSTRUCT = re.compile(
    r"make_(?:unique|shared)<\s*(?:\w+::)*Switch\s*>"
    r"|(?<![\w_])new\s+(?:\w+::)*Switch\b"
    r"|(?<![\w:])(?:\w+::)*Switch\s+\w+\s*[({]"
)
STD_FUNCTION = re.compile(r"std\s*::\s*function\s*<")
SWITCH_FAILURE_SEAM = re.compile(
    r"(?:\.|->)\s*(?:set_port_down|set_port_up|set_switch_down|requeue_down_port"
    r"|drain_all_drop)\s*\("
)
# Rule 10: the one sanctioned wall-clock consumer (FabricProf).
WALL_CLOCK_EXEMPT = {
    os.path.join("src", "sim", "prof.hpp"),
    os.path.join("src", "sim", "prof.cpp"),
}
# Rule 11: a variable declaration at namespace scope. Function
# declarations are excluded by requiring no '(' after the name; keyword
# statements (using/typedef/forward decls/...) by the lookahead.
NS_VAR_DECL = re.compile(
    r"^\s*(?:inline\s+|static\s+|thread_local\s+)*"
    r"(?!using\b|typedef\b|extern\b|template\b|namespace\b|class\b|struct\b"
    r"|enum\b|union\b|friend\b|static_assert\b|return\b|if\b|for\b|while\b)"
    r"(?:const\s+|constexpr\s+|constinit\s+)*"
    r"[A-Za-z_][\w:]*(?:<[^;]*>)?(?:\s*[*&])*\s+[A-Za-z_]\w*"
    r"(?:\s*\[[^\]]*\])?\s*(?:=[^;]*|\{[^;{}]*\})?;\s*$"
)
CONST_QUALIFIED = re.compile(r"\bconst\b|\bconstexpr\b|\bconstinit\b")
NAMESPACE_HEAD = re.compile(r"\bnamespace\b")


def global_state_pass(path, lines, flag):
    """Rule 11: mutable namespace-scope variables. Tracks brace nesting
    (class members and function bodies are out of scope) and tests whole
    `;`-terminated statements, so multi-line function declarations don't
    confuse it."""
    stack = []   # True = namespace scope, False = anything else
    stmt = ""    # statement text since the last ; { or } — classifies
                 # both '{' openers and ';' declarations
    stmt_nolint = False
    for i, raw in enumerate(lines, 1):
        if "NOLINT" in raw:
            stmt_nolint = True
        for c in strip_comments(raw):
            if c == "{":
                stack.append(bool(NAMESPACE_HEAD.search(stmt)) and "(" not in stmt)
                stmt, stmt_nolint = "", False
            elif c == "}":
                if stack:
                    stack.pop()
                stmt, stmt_nolint = "", False
            elif c == ";":
                if (all(stack) and not stmt_nolint and "(" not in stmt
                        and NS_VAR_DECL.match(stmt + ";")
                        and not CONST_QUALIFIED.search(stmt)):
                    flag(path, i, "no-global-state",
                         "mutable namespace-scope state (invisible to the scope/"
                         "ownership analysis and shared across every event scope); "
                         "make it const, move it behind an owner object, or "
                         "NOLINT(global-state) with a rationale")
                stmt, stmt_nolint = "", False
            else:
                stmt += c
        stmt += " "


def strip_comments(line):
    line = re.sub(r"//.*$", "", line)
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)  # string literals too


def lint():
    problems = []

    def flag(path, lineno, rule, text):
        rel = os.path.relpath(path, ROOT)
        problems.append(f"{rel}:{lineno}: [{rule}] {text}")

    # Headers anywhere in the tree: pragma once + resolvable includes.
    header_roots = [SRC, os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "examples")]
    for top in header_roots:
        for path in source_files(top):
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
            if path.endswith((".hpp", ".h")):
                directives = [l.strip() for l in lines if l.strip().startswith("#")]
                if not directives or directives[0] != "#pragma once":
                    flag(path, 1, "pragma-once", "header must start with #pragma once")
            for i, line in enumerate(lines, 1):
                m = INCLUDE.match(line)
                if not m:
                    continue
                target = m.group(1)
                here = os.path.join(os.path.dirname(path), target)
                under_src = os.path.join(SRC, target)
                if not (os.path.exists(here) or os.path.exists(under_src)):
                    flag(path, i, "include-resolution",
                         f'"{target}" resolves against neither src/ nor the including dir')

    # Names declared anywhere in src/ as unordered containers: iteration
    # sites usually live in the .cpp while the member lives in the .hpp,
    # so the name set is collected tree-wide first.
    unordered_names = set()
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for raw in f:
                m = UNORDERED_DECL.search(strip_comments(raw))
                if m:
                    unordered_names.add(m.group(1))

    # Behavioural bans: src/ only (tests may legitimately poke the host).
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        global_state_pass(path, lines, flag)
        prev_code = ""
        for i, raw in enumerate(lines, 1):
            if "NOLINT" in raw:
                prev_code = strip_comments(raw)
                continue
            code = strip_comments(raw)
            if (WALL_CLOCK.search(code)
                    and os.path.relpath(path, ROOT) not in WALL_CLOCK_EXEMPT):
                flag(path, i, "no-wall-clock",
                     "host clock call in simulation code (use Engine::now(); "
                     "host-time profiling belongs in src/sim/prof.* — rule 10)")
            if RAND.search(code):
                flag(path, i, "no-rand", "unseeded C randomness (use seeded std::mt19937)")
            m = NAKED_NEW.search(code)
            if m:
                window = prev_code + code[: m.start()]
                if "_ptr<" not in window and "_ptr (" not in window:
                    flag(path, i, "no-naked-new",
                         "raw new outside a smart-pointer constructor")
            m = REF_CAPTURE.search(code)
            if m and POST_CALL.search(prev_code + code[: m.start()]):
                flag(path, i, "post-ref-capture",
                     "[&] default capture in a lambda handed to Engine::post "
                     "(deferred + reorderable: capture explicitly)")
            m = RANGE_FOR.search(code)
            if m and m.group(1) in unordered_names:
                flag(path, i, "unordered-iteration",
                     f"range-for over unordered container '{m.group(1)}' "
                     "(hash order is not deterministic; use an ordered container "
                     "or NOLINT with a rationale)")
            if SWITCH_CONSTRUCT.search(code) and not path.startswith(
                    os.path.join(SRC, "topo") + os.sep):
                flag(path, i, "switch-construction",
                     "hw::Switch is built only by the topo::Topology builders "
                     "(they own ids, LFTs and endpoint reservations); take a "
                     "Topology instead, or NOLINT with a rationale")
            if (STD_FUNCTION.search(code) and path.endswith((".hpp", ".h"))
                    and path.startswith((os.path.join(SRC, "sim") + os.sep,
                                         os.path.join(SRC, "hw") + os.sep))):
                flag(path, i, "no-stdfunction",
                     "std::function in a sim/hw header (heap-allocates past the "
                     "SBO, breaking the zero-alloc dispatch contract); use "
                     "sim::InplaceFn, a template parameter, or a concrete "
                     "functor, or NOLINT with a rationale")
            if SWITCH_FAILURE_SEAM.search(code) and not path.startswith(
                    (os.path.join(SRC, "topo") + os.sep,
                     os.path.join(SRC, "fault") + os.sep)):
                flag(path, i, "switch-failure-seam",
                     "hw::Switch failure controls are driven only by src/topo/ "
                     "and src/fault/ (reroute-then-drain ordering and credit "
                     "accounting live there); go through topo::Topology, or "
                     "NOLINT with a rationale")
            prev_code = code
    return problems


def main():
    global ROOT, SRC
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT,
                        help="tree to lint (default: this repo; the linter "
                             "self-tests point it at fixture trees)")
    args = parser.parse_args()
    ROOT = os.path.abspath(args.root)
    SRC = os.path.join(ROOT, "src")
    problems = lint()
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"conventions_lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("conventions_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
