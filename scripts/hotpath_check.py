#!/usr/bin/env python3
"""FabricHot-Check: hot-path purity static analyzer for the dispatch path.

ROADMAP item 1 (engine speed campaign) is judged in events/sec, which is
only a trustworthy number if the per-event dispatch path is *pure*: no
heap allocation, no wall-clock/syscall/IO, no throw in steady state.
PR 9 proved scope labels honest with a compiler-free prover; this tool
applies the same playbook to hot-path purity, whole-tree, without
compiling:

Pass A - definitions. Parse every function definition in src/ (both
    `Type Class::method(...) {` out-of-line forms and inline bodies in
    class definitions) and record its FABSIM_HOT / FABSIM_COLD
    annotation (src/sim/hot.hpp), file/line, and body span.

Pass B - roots. The hot set is seeded by `Engine::dispatch` (the loop
    body every event funnels through), every FABSIM_HOT-annotated
    function, and the continuation lambda of every `.post(` / `->post(`
    call site - the bodies the dispatcher will eventually invoke.

Pass C - reachability. From each root, walk the call graph: bare calls
    resolve against the enclosing class (and its base classes) then free
    functions; `obj.method(` / `obj->method(` calls resolve the
    receiver's declared type from function locals/parameters or the
    enclosing class's member declarations; a call on a call's result
    (`a->b().c(`) takes the declared return type of the inner call.
    FABSIM_COLD stops the walk (error/teardown paths are exempt);
    unresolvable calls are recorded in the report, never guessed. The
    walk is depth-limited (--max-depth, default 4).

Pass D - purity scan. Every reached body is scanned for:
      hot_alloc        `new` (placement new exempt), make_unique/shared
      hot_growth       growing container calls (push_back / emplace* /
                       resize / reserve / insert / append / assign)
      hot_stdfunction  std::function construction (type-erased callables
                       heap-allocate past the SBO; use sim::InplaceFn)
      hot_wallclock    host-clock reads (std::chrono::*_clock, time(),
                       gettimeofday, clock_gettime)
      hot_io           stdio / iostream / filesystem / system calls
      hot_throw        `throw` on the steady-state path
    A finding the analyzer cannot prove harmless fails the site unless
    the line (or the line above) carries an inline `// HOT-OK(rationale)`
    waiver - same policy as NOLINT in conventions_lint: allowed, but
    only with a written rationale (recorded in the report). A
    FABSIM_MUTATION_HOTALLOC seam is ignored when dormant and flagged
    under --mutation, which is how CI proves this gate can actually fail.

Artifacts: results/hotpath_report.json (hot set + findings + summary).
Exit status: 0 clean, 1 violations found (or, with --expect-violations,
0 iff violations were found - the mutation gate's polarity).
"""
import argparse
import json
import os
import re
import sys

from cxxscan import (POST_CALL, SourceFile, collect_classes, find_decl_type, innermost_class,
                     line_of, matching, source_files, split_top_level)

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOT_OK = re.compile(r"HOT-OK\(([^)\n]*)\)")
FUNC_HEAD = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*\(")
CALL = re.compile(r"(?:\b([A-Za-z_]\w*)\s*(->|\.)\s*)?\b([A-Za-z_]\w*)\s*\(")

# Not function names / not worth chasing. Resolution failures for names
# outside this set are recorded as unresolved, never treated as hot.
KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "new", "delete", "co_await", "co_return",
    "co_yield", "assert", "defined", "requires", "noexcept", "throw",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "alignas", "operator", "typeid", "this",
}

# std/vocabulary calls that are pure-by-fiat for the walk: chasing them
# is noise (we have no bodies for them) and the purity regexes already
# catch the impure ones by name.
SAFE_CALLS = {
    "move", "forward", "get", "size", "empty", "begin", "end", "min", "max",
    "swap", "data", "front", "back", "count", "find", "at", "c_str",
    "to_string", "abs", "bit_width", "clamp", "exchange", "make_pair",
    "make_tuple", "tie", "top", "pop", "value", "has_value", "reset",
    "resume", "done", "address", "from_address", "push_heap", "pop_heap",
    "first", "second", "length", "substr", "clear", "erase", "contains",
}

FINDING_RULES = [
    # (rule, regex, hard) - hard rules are definite impurities; soft ones
    # are "cannot prove harmless". Both demand a HOT-OK waiver; the split
    # only flavors the message.
    ("hot_alloc",
     re.compile(r"(?<![\w_])new\s+[A-Za-z_:]|\bmake_unique\s*<|\bmake_shared\s*<"),
     True),
    ("hot_growth",
     re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace_front|emplace"
                r"|push_front|resize|reserve|insert|append|assign)\s*\("),
     False),
    ("hot_stdfunction", re.compile(r"std\s*::\s*function\s*<"), True),
    ("hot_wallclock",
     re.compile(r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
                r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
                r"|(?<![\w_])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     True),
    ("hot_io",
     re.compile(r"std\s*::\s*(?:cout|cerr|clog|ofstream|ifstream|fstream)\b"
                r"|\b(?:printf|fprintf|fputs|fopen|fwrite|fflush|system|getenv)\s*\("),
     True),
    ("hot_throw", re.compile(r"(?<![\w_])throw\b"), False),
]
MUTATION_SEAM = re.compile(r"FABSIM_MUTATION_HOTALLOC\s*\(")
MEMBER_ACCESS_END = re.compile(r"(?:\.|->)\s*$")
# The `receiver->callee` (or bare `callee`) ending a text, before its '('.
CALL_TAIL = re.compile(r"(?:\b([A-Za-z_]\w*)\s*(?:->|\.)\s*)?\b([A-Za-z_]\w*)\s*$")
# Declaration words that precede a return type without naming it.
RETURN_TYPE_NOISE = {"inline", "static", "virtual", "constexpr", "explicit", "friend",
                     "FABSIM_HOT", "FABSIM_COLD", "public", "protected", "private"}


class FunctionInfo:
    def __init__(self, cls_name, name, src, head, body_start, body_end, annotation):
        self.cls = cls_name or ""
        self.name = name
        self.src = src
        self.head = head            # offset of the name token
        self.body_start = body_start  # offset of the body's '{'
        self.body_end = body_end
        self.annotation = annotation  # "hot" | "cold" | None

    @property
    def key(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name

    @property
    def line(self):
        return line_of(self.src.raw, self.head)

    def body_masked(self):
        return self.src.masked[self.body_start:self.body_end + 1]


def annotation_before(src, head_offset):
    """FABSIM_HOT / FABSIM_COLD marker in the statement opening at head."""
    begin = max(src.masked.rfind(ch, 0, head_offset) for ch in ";{}")
    window = src.masked[begin + 1:head_offset]
    if re.search(r"\bFABSIM_COLD\b", window):
        return "cold"
    if re.search(r"\bFABSIM_HOT\b", window):
        return "hot"
    return None


def collect_functions(src, classes):
    """Heuristic function-definition finder (out-of-line and inline)."""
    funcs = []
    masked = src.masked
    for m in FUNC_HEAD.finditer(masked):
        name = m.group(2).lstrip("~")
        if name in KEYWORDS or m.group(2).startswith("~"):
            continue
        open_paren = masked.index("(", m.end() - 1)
        close = matching(masked, open_paren, "(", ")")
        if close < 0:
            continue
        # Walk past trailing specifiers / ctor-init list to '{' or bail
        # at ';' (declaration) or another construct.
        i = close + 1
        body_start = -1
        while i < len(masked):
            c = masked[i]
            if c == "{":
                body_start = i
                break
            if c == ";" or c == "=":
                break
            if c == "(":  # e.g. `foo(...)(...)` call chains
                break
            i += 1
        if body_start < 0:
            continue
        body_end = matching(masked, body_start, "{", "}")
        if body_end < 0:
            continue
        cls_name = m.group(1)
        if cls_name is None:
            cls = innermost_class(classes, m.start())
            cls_name = cls.name if cls else None
            # An unqualified head at class scope whose name differs from a
            # definition is still fine - constructors keep cls == name.
        funcs.append(FunctionInfo(cls_name, name, src, m.start(), body_start,
                                  body_end, annotation_before(src, m.start())))
    return funcs


def type_to_class_name(type_text, known=()):
    """Class a declaration's type text names: the outermost project class
    among `known` (`fault::RetransmitWindow<Packet>` -> RetransmitWindow),
    else the last plausible class identifier."""
    if type_text is None:
        return None
    # `std::unique_ptr<iwarp::Rnic>` -> Rnic; `EventQueue` -> EventQueue.
    idents = re.findall(r"[A-Za-z_]\w*", type_text)
    for ident in idents:
        if ident in known:
            return ident
    skip = {"const", "std", "unique_ptr", "shared_ptr", "vector", "deque",
            "optional", "mutable", "volatile", "struct", "class"}
    for ident in reversed(idents):
        if ident not in skip:
            return ident
    return None


class Analyzer:
    def __init__(self, root, mutation, max_depth):
        self.root = root
        self.mutation = mutation
        self.max_depth = max_depth
        self.problems = []       # (rel, line, rule, detail)
        self.sources = []
        self.classes_by_src = {}
        self.classes_by_name = {}
        self.funcs_by_key = {}   # "Cls::name" or "name" -> [FunctionInfo]
        self.funcs_by_name = {}  # bare name -> [FunctionInfo]
        self.hot_set = {}        # key -> {file, line, via, depth}
        self.unresolved = {}     # callee name -> count
        self.findings = []
        self.scanned_spans = set()

    # --- pass A -----------------------------------------------------------
    def load(self):
        src_root = os.path.join(self.root, "src")
        for path in source_files(src_root):
            rel = os.path.relpath(path, self.root)
            if rel.replace(os.sep, "/") == "src/sim/hot.hpp":
                continue  # the marker definitions themselves
            src = SourceFile(path, self.root)
            self.sources.append(src)
            classes = collect_classes(src)
            self.classes_by_src[src.path] = classes
            for cls in classes:
                self.classes_by_name.setdefault(cls.name, []).append(cls)
            for fn in collect_functions(src, classes):
                self.funcs_by_key.setdefault(fn.key, []).append(fn)
                self.funcs_by_name.setdefault(fn.name, []).append(fn)

    def method(self, cls_name, name, seen=()):
        """Definitions of cls::name, else of the nearest base class's."""
        hits = self.funcs_by_key.get(f"{cls_name}::{name}")
        if hits:
            return hits
        for cls in self.classes_by_name.get(cls_name, []):
            for base in cls.bases:
                if base not in seen:
                    hits = self.method(base, name, seen + (cls_name,))
                    if hits:
                        return hits
        return []

    def lookup(self, cls_name, name):
        """Definitions for cls::name (or an inherited one), else a free function."""
        if cls_name:
            hits = self.method(cls_name, name)
            if hits:
                return hits
        return self.funcs_by_key.get(name, [])

    # --- pass C -----------------------------------------------------------
    def receiver_class(self, receiver, cls_name, func_text):
        """Class of a named receiver: declared in the function, else a member."""
        decl = find_decl_type(func_text, receiver)
        if decl is None and cls_name:
            # The enclosing class's member declarations (the class may live
            # in the sibling header).
            for cls in self.classes_by_name.get(cls_name, []):
                decl = find_decl_type(cls.src.raw[cls.start:cls.end], receiver)
                if decl:
                    break
        return type_to_class_name(decl, self.classes_by_name)

    def return_class(self, fn):
        """Class named by a function definition's declared return type."""
        masked = fn.src.masked
        begin = max(masked.rfind(ch, 0, fn.head) for ch in ";{}:") + 1
        words = [w for w in re.findall(r"[A-Za-z_]\w*", masked[begin:fn.head])
                 if w not in RETURN_TYPE_NOISE]
        return type_to_class_name(" ".join(words), self.classes_by_name) if words else None

    def callee_defs(self, text, receiver, callee, callee_start, cls_name, func_text, depth=0):
        """Definitions a call to `callee` at text[callee_start] can reach."""
        if receiver is None and MEMBER_ACCESS_END.search(text[:callee_start]):
            # Member call on an expression (`a->b().c(`): its class is the
            # declared return type of the call the expression ends with -
            # never a free function of the same name.
            head = MEMBER_ACCESS_END.sub("", text[:callee_start])
            close = matching(head[::-1], 0, ")", "(") if head.endswith(")") else -1
            inner = CALL_TAIL.search(head[:len(head) - 1 - close]) if close > 0 else None
            if inner is None or depth >= 2:
                return []
            classes = {self.return_class(fn) for fn in self.callee_defs(
                head, inner.group(1), inner.group(2), inner.start(2), cls_name, func_text,
                depth + 1)}
            owner = classes.pop() if len(classes) == 1 else None
        elif receiver is None or receiver == "this":
            return self.lookup(cls_name, callee)
        else:
            owner = self.receiver_class(receiver, cls_name, func_text)
        return self.method(owner, callee) if owner else []

    def resolve_calls(self, src, body_start, body_end, cls_name, func_text):
        """Called FunctionInfos reachable from one body."""
        body = src.masked[body_start:body_end + 1]
        out = []
        for m in CALL.finditer(body):
            callee = m.group(3)
            if callee in KEYWORDS or callee in SAFE_CALLS:
                continue
            receiver = m.group(1)
            if receiver in ("std", "fabsim"):
                continue
            hits = self.callee_defs(body, receiver, callee, m.start(3), cls_name, func_text)
            if hits:
                out.extend(hits)
            elif receiver is not None or not callee[0].isupper():
                self.unresolved[callee] = self.unresolved.get(callee, 0) + 1
        return out

    # --- pass D -----------------------------------------------------------
    def scan_body(self, src, body_start, body_end, owner_key):
        span = (src.path, body_start)
        if span in self.scanned_spans:
            return
        self.scanned_spans.add(span)
        body_masked = src.masked[body_start:body_end + 1]
        base_line = line_of(src.raw, body_start)
        for idx, mline in enumerate(body_masked.splitlines()):
            lineno = base_line + idx
            raw_line = src.lines[lineno - 1] if lineno - 1 < len(src.lines) else ""
            prev_line = src.lines[lineno - 2] if lineno - 2 >= 0 else ""
            waiver = HOT_OK.search(raw_line) or HOT_OK.search(prev_line)
            rationale = waiver.group(1).strip() if waiver else None
            if waiver and not rationale:
                self.problems.append((src.rel, lineno, "empty_waiver",
                                      "HOT-OK() requires a written rationale"))
            if MUTATION_SEAM.search(mline):
                if self.mutation:
                    self.problems.append((src.rel, lineno, "mutation_hotalloc",
                                          f"{owner_key}: armed FABSIM_MUTATION_HOTALLOC "
                                          "seam allocates on the dispatch path"))
                    self.findings.append({"file": src.rel, "line": lineno,
                                          "function": owner_key,
                                          "rule": "mutation_hotalloc",
                                          "verdict": "violation"})
                continue
            for rule, rx, hard in FINDING_RULES:
                hit = rx.search(mline)
                if not hit:
                    continue
                if rule == "hot_alloc" and re.search(r"(?<![\w_])new\s*\(", mline) \
                        and not re.search(r"\bmake_(?:unique|shared)\s*<", mline):
                    continue  # placement new: constructs, never allocates
                entry = {"file": src.rel, "line": lineno, "function": owner_key,
                         "rule": rule, "excerpt": raw_line.strip()[:100]}
                if rationale:
                    entry["verdict"] = "waived"
                    entry["rationale"] = rationale
                else:
                    entry["verdict"] = "violation"
                    flavor = ("allocates / is impure on" if hard
                              else "cannot be proven allocation-free on")
                    self.problems.append((src.rel, lineno, rule,
                                          f"{owner_key}: `{raw_line.strip()[:80]}` "
                                          f"{flavor} the hot path "
                                          "(fix it or add // HOT-OK(rationale))"))
                self.findings.append(entry)

    # --- traversal --------------------------------------------------------
    def walk(self, fn, via, depth):
        if fn.key in self.hot_set and self.hot_set[fn.key]["depth"] <= depth:
            return
        if fn.annotation == "cold":
            self.hot_set.setdefault(fn.key, {"file": fn.src.rel, "line": fn.line,
                                             "via": via, "depth": depth,
                                             "annotation": "cold"})
            return  # exempt: error/teardown path by declaration
        self.hot_set[fn.key] = {"file": fn.src.rel, "line": fn.line, "via": via,
                                "depth": depth, "annotation": fn.annotation}
        self.scan_body(fn.src, fn.body_start, fn.body_end, fn.key)
        if depth >= self.max_depth:
            return
        func_text = fn.src.raw[fn.head:fn.body_end + 1]
        for callee in self.resolve_calls(fn.src, fn.body_start, fn.body_end,
                                         fn.cls or None, func_text):
            if callee.key != fn.key:
                self.walk(callee, fn.key, depth + 1)

    def post_sites(self):
        """(src, line, lambda body span | None, enclosing class) per site."""
        sites = []
        for src in self.sources:
            for m in POST_CALL.finditer(src.masked):
                open_paren = src.masked.index("(", m.end() - 1)
                close = matching(src.masked, open_paren, "(", ")")
                if close < 0:
                    continue
                arg_text = src.masked[open_paren + 1:close]
                spans = split_top_level(arg_text)
                fn_begin, fn_end = spans[-1]
                fn_masked = arg_text[fn_begin:fn_end]
                line = line_of(src.raw, m.start())
                lb = fn_masked.find("[")
                body = None
                if lb >= 0:
                    rb = matching(fn_masked, lb, "[", "]")
                    brace = fn_masked.find("{", rb) if rb > 0 else -1
                    if brace >= 0:
                        brace_end = matching(fn_masked, brace, "{", "}")
                        if brace_end > 0:
                            body = (open_paren + 1 + fn_begin + brace,
                                    open_paren + 1 + fn_begin + brace_end)
                cls = innermost_class(self.classes_by_src.get(src.path, []), m.start())
                cls_name = cls.name if cls else None
                if cls_name is None:
                    # Out-of-line method body: `Type Class::method(...)`.
                    upto = src.raw[:m.start()]
                    for header_line in reversed(upto.splitlines()):
                        if header_line and header_line[0] not in " \t}#/":
                            hm = re.search(r"([A-Za-z_]\w*)\s*::\s*~?[A-Za-z_]\w*\s*\(",
                                           header_line)
                            if hm:
                                cls_name = hm.group(1)
                            break
                sites.append((src, line, body, cls_name, m.start()))
        return sites

    def run(self):
        self.load()

        # Roots: Engine::dispatch + every FABSIM_HOT function.
        roots = 0
        for fns in self.funcs_by_key.values():
            for fn in fns:
                if fn.key == "Engine::dispatch" or fn.annotation == "hot":
                    self.walk(fn, "<root>", 0)
                    roots += 1

        # Roots: every post() continuation body.
        sites = self.post_sites()
        for src, line, body, cls_name, offset in sites:
            if body is None:
                continue  # opaque callable: dispatch-side audit still applies
            owner = f"{src.rel}:{line}:<post-lambda>"
            self.scan_body(src, body[0], body[1], owner)
            func_text = src.raw[offset:body[1] + 1]
            for callee in self.resolve_calls(src, body[0], body[1], cls_name,
                                             func_text):
                self.walk(callee, owner, 1)
        return roots, sites

    def report(self, roots, sites):
        waived = sum(1 for f in self.findings if f["verdict"] == "waived")
        return {
            "generated_by": "scripts/hotpath_check.py",
            "mode": "mutation" if self.mutation else "clean",
            "max_depth": self.max_depth,
            "summary": {
                "files_scanned": len(self.sources),
                "post_sites": len(sites),
                "post_lambdas": sum(1 for s in sites if s[2] is not None),
                "hot_roots": roots,
                "hot_functions": sum(1 for v in self.hot_set.values()
                                     if v.get("annotation") != "cold"),
                "cold_stops": sum(1 for v in self.hot_set.values()
                                  if v.get("annotation") == "cold"),
                "waived_findings": waived,
                "violations": len(self.problems),
            },
            "hot_set": {k: v for k, v in sorted(self.hot_set.items())},
            "findings": self.findings,
            "unresolved_calls": dict(sorted(self.unresolved.items(),
                                            key=lambda kv: -kv[1])[:40]),
            "violations": [
                {"file": f, "line": l, "rule": r, "detail": d}
                for f, l, r, d in self.problems
            ],
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="repo root to analyze (default: this repo)")
    parser.add_argument("--mutation", action="store_true",
                        help="flag armed FABSIM_MUTATION_HOTALLOC seams")
    parser.add_argument("--max-depth", type=int, default=4,
                        help="call-graph traversal depth from each root (default 4)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: "
                             "results/hotpath_report.json under --root; '-' to skip)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit status: succeed iff violations were "
                             "found (the mutation self-test gate)")
    args = parser.parse_args()

    analyzer = Analyzer(os.path.abspath(args.root), args.mutation, args.max_depth)
    roots, sites = analyzer.run()
    report = analyzer.report(roots, sites)

    out = args.out
    if out is None:
        out = os.path.join(args.root, "results", "hotpath_report.json")
    if out != "-":
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=False)
            f.write("\n")

    problems = analyzer.problems
    for rel, line, rule, detail in problems:
        print(f"{rel}:{line}: [{rule}] {detail}", file=sys.stderr)
    s = report["summary"]
    status = (f"hotpath_check[{report['mode']}]: {s['post_sites']} post sites "
              f"({s['post_lambdas']} lambdas), {s['hot_functions']} hot functions "
              f"({s['cold_stops']} cold stops), {s['waived_findings']} waived, "
              f"{len(problems)} violation(s)")
    if args.expect_violations:
        if problems:
            print(status + " - expected, gate can fail")
            return 0
        print(status + " - but violations were EXPECTED (mutation not caught)",
              file=sys.stderr)
        return 1
    if problems:
        print(status, file=sys.stderr)
        return 1
    print(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
