#!/usr/bin/env python3
"""FabricScope-Check: scope/ownership static analyzer for Engine::post sites.

FabricExplore's DPOR reduction and the InvariantMonitor's scope audit
trust the `scope` label on `Engine::post(at, scope, fn)`:
`ready_events_commute` (src/sim/schedule.hpp) treats two co-enabled
events with different non-negative scopes as commuting. That is only
sound if a scope-labelled continuation really touches nothing but the
labelled node's state. This tool proves the labels honest, whole-tree,
without compiling:

Pass A - annotations. Parse every class/struct in src/ and collect the
    FABSIM_OWNED_BY(expr) / FABSIM_SHARED / FABSIM_ENGINE_LOCAL section
    markers (src/sim/scope.hpp) from their member declarations, giving
    each annotated class an ownership summary: which node expression
    owns its mutable state, and whether it holds cross-node shared
    state.

Pass B - call sites. Find every `.post(` / `->post(` call in src/ and
    parse its argument list (balanced, multi-line). Two-argument calls
    are implicitly scope -1 (no confinement claim - nothing to prove).
    Three-argument calls yield a scope expression; a
    FABSIM_MUTATION_SCOPE(clean, mutated, armed) seam contributes its
    `clean` arm normally and its `mutated` arm under --mutation, which
    is how CI proves this gate can actually fail.

Pass C - capture classification. For each confinement-claiming site,
    resolve the lambda's explicit capture list (conventions_lint rule 6
    bans [&], so captures are enumerable) and classify every capture:
      this           -> the enclosing class's ownership summary must
                        support the claim: its FABSIM_OWNED_BY expr must
                        match the scope expr, and it must not carry
                        FABSIM_SHARED state
      x = std::move(e) -> lambda-owned value: safe
      x (plain)      -> declared type resolved from the enclosing
                        function (params + locals): value copies are
                        safe; pointers/references claim foreign state
      &x             -> reference capture under a confinement claim:
                        unsupported
    Captures the analyzer cannot prove safe fail the site unless the
    call carries an inline `// SCOPE-OK(rationale)` waiver - same
    policy as NOLINT in conventions_lint: allowed, but only with a
    written rationale (recorded in the report).

Pass D - dynamic corroboration. Every class whose `this` lands in a
    confined-scope lambda must have a FABSIM_AUDIT_OWNED trap in its
    implementation, and every FABSIM_SHARED class captured anywhere
    must have a FABSIM_AUDIT_SHARED trap, so an attached InvariantMonitor
    cross-checks each static verdict on real traffic.

Artifacts: results/scope_report.json (per-site records + summary).
Exit status: 0 clean, 1 violations found (or, with --expect-violations,
0 iff violations were found - the mutation gate's polarity).
"""
import argparse
import json
import os
import re
import sys

from cxxscan import (POST_CALL, ClassSpan, SourceFile, collect_classes, find_decl_type,
                     innermost_class, line_of, matching, source_files, split_top_level)

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCOPE_OK = re.compile(r"SCOPE-OK\(([^)\n]*)\)")
MOVE_INIT = re.compile(r"^\s*[A-Za-z_]\w*\s*=\s*std::move\s*\(")


def normalize_expr(raw_text):
    """Strip comments and all whitespace from an expression."""
    no_block = re.sub(r"/\*.*?\*/", "", raw_text, flags=re.S)
    no_line = re.sub(r"//[^\n]*", "", no_block)
    return re.sub(r"\s+", "", no_line)


class ClassInfo(ClassSpan):
    def __init__(self, name, src, start, end):
        super().__init__(name, src, start, end)
        self.owners = []        # FABSIM_OWNED_BY expressions, in order
        self.shared = False
        self.engine_local = False

    @property
    def annotated(self):
        return bool(self.owners) or self.shared or self.engine_local


def collect_markers(src, classes, problems):
    for m in re.finditer(r"FABSIM_OWNED_BY\s*\(", src.masked):
        close = matching(src.masked, m.end() - 1, "(", ")")
        if close < 0:
            continue
        owner = normalize_expr(src.raw[m.end():close])
        cls = innermost_class(classes, m.start())
        if cls is None:
            problems.append((src.rel, line_of(src.raw, m.start()), "marker_outside_class",
                             "FABSIM_OWNED_BY marker outside any class body"))
            continue
        cls.owners.append(owner)
    for pattern, attr in ((r"FABSIM_SHARED\s*;", "shared"),
                          (r"FABSIM_ENGINE_LOCAL\s*;", "engine_local")):
        for m in re.finditer(pattern, src.masked):
            cls = innermost_class(classes, m.start())
            if cls is None:
                problems.append((src.rel, line_of(src.raw, m.start()), "marker_outside_class",
                                 "scope marker outside any class body"))
                continue
            setattr(cls, attr, True)


def enclosing_function(src, offset):
    """(class_name, function_text_up_to_offset) for the def containing offset.

    Function definitions in this tree start at column 0 and name their
    class (`Type Class::method(...)`); the nearest such line above the
    call site opens the enclosing definition.
    """
    upto = src.raw[:offset]
    lines = upto.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        line = lines[i]
        if not line or line[0] in " \t}#/":
            continue
        head = line
        # Allow the parameter list to open on this line or the next.
        m = re.search(r"([A-Za-z_]\w*)\s*::\s*~?[A-Za-z_]\w*\s*\(", head)
        if m and not head.rstrip().endswith(";"):
            return m.group(1), "\n".join(lines[i:])
        if re.match(r"[A-Za-z_][\w:<>,&*\s]*\s[A-Za-z_]\w*\s*\(", head) and \
                not head.rstrip().endswith(";"):
            return None, "\n".join(lines[i:])
    return None, upto


def classify_capture(cap_raw, function_text, class_info):
    """-> (verdict, detail). Verdicts: ok / needs_waiver / violation."""
    cap = cap_raw.strip()
    if not cap:
        return "ok", "empty capture list"
    if cap == "this":
        if class_info is None:
            return "needs_waiver", "`this` captured but the enclosing class is unknown"
        if not class_info.annotated:
            return "needs_waiver", (f"`this` of {class_info.name} captured but the class "
                                    "carries no scope/ownership annotations")
        return "this", ""  # resolved against the class summary by the caller
    if cap.startswith("&"):
        return "needs_waiver", f"by-reference capture `{cap}` under a confinement claim"
    if cap == "*this":
        return "needs_waiver", "`*this` copy capture (copies foreign pointers wholesale)"
    if MOVE_INIT.match(cap):
        return "ok", "lambda-owned (init from std::move)"
    if "=" in cap:
        name, init = cap.split("=", 1)
        init = init.strip()
        # Copy-init from a plain identifier: classify like a plain capture
        # of that identifier; anything deeper is beyond this resolver.
        if re.fullmatch(r"[A-Za-z_]\w*", init):
            cap = init
        else:
            return "needs_waiver", f"init-capture from unresolved expression `{init}`"
    if not re.fullmatch(r"[A-Za-z_]\w*", cap):
        return "needs_waiver", f"unparsable capture `{cap_raw.strip()}`"
    decl = find_decl_type(function_text, cap)
    if decl is None:
        return "needs_waiver", f"no declaration found for captured `{cap}`"
    if "*" in decl or "&" in decl:
        return "needs_waiver", f"`{cap}` declared `{decl.strip()}` - points at foreign state"
    return "ok", f"value copy (`{decl.strip()} {cap}`)"


def classify_this(class_info, scope_norm):
    if class_info.shared:
        return "violation", (
            f"`this` of {class_info.name} captured under scope `{scope_norm}` but the class "
            "holds FABSIM_SHARED state (shared state requires scope -1)")
    if not class_info.owners:
        return "needs_waiver", (
            f"`this` of {class_info.name} captured under scope `{scope_norm}` but the class "
            "declares no FABSIM_OWNED_BY section")
    for owner in class_info.owners:
        if owner == scope_norm:
            return "ok", f"{class_info.name} state is FABSIM_OWNED_BY({owner})"
    return "violation", (
        f"`this` of {class_info.name} captured under scope `{scope_norm}` but its state is "
        f"FABSIM_OWNED_BY({', '.join(class_info.owners)})")


def parse_mutation_scope(scope_norm, mutation):
    """FABSIM_MUTATION_SCOPE(clean, mutated, armed) -> selected arm."""
    inner = scope_norm[len("FABSIM_MUTATION_SCOPE("):-1]
    args = [inner[begin:end] for begin, end in split_top_level(inner)]
    if len(args) != 3:
        return None
    return args[1] if mutation else args[0]


def analyze(root, mutation):
    src_root = os.path.join(root, "src")
    problems = []          # (rel, line, rule, detail)
    classes_by_name = {}   # name -> [ClassInfo]
    sources = []

    for path in source_files(src_root):
        if os.path.join("src", "sim", "scope.hpp") in os.path.relpath(path, root):
            continue  # the marker definitions themselves
        src = SourceFile(path, root)
        sources.append(src)
        file_classes = collect_classes(src, ClassInfo)
        collect_markers(src, file_classes, problems)
        for cls in file_classes:
            classes_by_name.setdefault(cls.name, []).append(cls)

    def resolve_class(name, site_dir):
        candidates = classes_by_name.get(name, [])
        same_dir = [c for c in candidates if os.path.dirname(c.src.path) == site_dir]
        pool = same_dir or candidates
        annotated = [c for c in pool if c.annotated]
        pool = annotated or pool
        return pool[0] if pool else None

    sites = []
    post_total = 0
    confined_this = {}   # class name -> ClassInfo (pass D: owned traps)
    shared_captured = {} # class name -> ClassInfo (pass D: shared traps)

    for src in sources:
        for m in POST_CALL.finditer(src.masked):
            open_paren = src.masked.index("(", m.end() - 1)
            close = matching(src.masked, open_paren, "(", ")")
            if close < 0:
                continue
            post_total += 1
            arg_text = src.masked[open_paren + 1:close]
            spans = split_top_level(arg_text)
            line = line_of(src.raw, m.start())
            record = {"file": src.rel, "line": line, "captures": [], "verdict": "ok"}
            if len(spans) < 3:
                record["scope"] = "-1 (implicit)"
                record["verdict"] = "unscoped"
                sites.append(record)
                continue

            s_begin, s_end = spans[1]
            scope_norm = normalize_expr(
                src.raw[open_paren + 1 + s_begin:open_paren + 1 + s_end])
            record["mutation_seam"] = scope_norm.startswith("FABSIM_MUTATION_SCOPE(")
            if record["mutation_seam"]:
                arm = parse_mutation_scope(scope_norm, mutation)
                if arm is None:
                    problems.append((src.rel, line, "bad_mutation_seam",
                                     "FABSIM_MUTATION_SCOPE needs exactly 3 arguments"))
                    record["verdict"] = "violation"
                    sites.append(record)
                    continue
                scope_norm = arm
            record["scope"] = scope_norm
            if re.fullmatch(r"-\d+", scope_norm) or scope_norm == "(-1)":
                record["verdict"] = "unscoped"
                sites.append(record)
                continue

            # The confinement-claiming site: find the lambda's captures.
            fn_begin, fn_end = spans[-1]
            fn_masked = arg_text[fn_begin:fn_end]
            lb = fn_masked.find("[")
            waiver = SCOPE_OK.search(
                src.raw[m.start():open_paren + 1 + fn_begin +
                        (fn_masked.find("]", lb) + 1 if lb >= 0 else 0)])
            rationale = waiver.group(1).strip() if waiver else None
            if waiver and not rationale:
                problems.append((src.rel, line, "empty_waiver",
                                 "SCOPE-OK() requires a written rationale"))
            class_name, function_text = enclosing_function(src, m.start())
            class_info = resolve_class(class_name, os.path.dirname(src.path)) \
                if class_name else None

            if lb < 0:
                verdicts = [("needs_waiver", "callable is not an inline lambda; "
                             "captures cannot be enumerated")]
                cap_texts = [normalize_expr(fn_masked)[:40]]
            else:
                rb = matching(fn_masked, lb, "[", "]")
                cap_list = fn_masked[lb + 1:rb]
                cap_spans = split_top_level(cap_list) if cap_list.strip() else []
                cap_texts, verdicts = [], []
                for c_begin, c_end in cap_spans:
                    cap_raw = src.raw[open_paren + 1 + fn_begin + lb + 1 + c_begin:
                                      open_paren + 1 + fn_begin + lb + 1 + c_end]
                    cap_texts.append(cap_raw.strip())
                    v = classify_capture(cap_raw, function_text, class_info)
                    if v[0] == "this":
                        v = classify_this(class_info, scope_norm)
                        if class_info is not None:
                            if class_info.shared:
                                shared_captured[class_info.name] = class_info
                            else:
                                confined_this[class_info.name] = class_info
                    verdicts.append(v)

            for cap, (verdict, detail) in zip(cap_texts, verdicts):
                entry = {"capture": cap, "verdict": verdict, "detail": detail}
                if verdict == "needs_waiver":
                    if rationale:
                        entry["verdict"] = "waived"
                        entry["rationale"] = rationale
                    else:
                        entry["verdict"] = "violation"
                        problems.append((src.rel, line, "unprovable_capture",
                                         f"scope `{scope_norm}`: {detail} "
                                         "(prove it or add // SCOPE-OK(rationale))"))
                elif verdict == "violation":
                    problems.append((src.rel, line, "scope_mismatch", detail))
                record["captures"].append(entry)
            if any(c["verdict"] == "violation" for c in record["captures"]):
                record["verdict"] = "violation"
            elif any(c["verdict"] == "waived" for c in record["captures"]):
                record["verdict"] = "waived"
            sites.append(record)

    # Pass D: every statically-trusted class must carry its dynamic trap.
    def has_trap(cls, macro):
        for src in sources:
            if f"{cls.name}::" in src.masked and macro in src.masked:
                return True
        return False

    for name, cls in sorted(confined_this.items()):
        if not has_trap(cls, "FABSIM_AUDIT_OWNED"):
            problems.append((cls.src.rel, line_of(cls.src.raw, cls.start),
                             "missing_dynamic_trap",
                             f"{name} is captured into confined-scope events but has no "
                             "FABSIM_AUDIT_OWNED trap for the monitor's scope audit to corroborate"))
    for name, cls in sorted(shared_captured.items()):
        if not has_trap(cls, "FABSIM_AUDIT_SHARED"):
            problems.append((cls.src.rel, line_of(cls.src.raw, cls.start),
                             "missing_dynamic_trap",
                             f"{name} holds FABSIM_SHARED state but has no "
                             "FABSIM_AUDIT_SHARED trap for the monitor's scope audit to corroborate"))

    all_classes = [c for lst in classes_by_name.values() for c in lst]
    report = {
        "generated_by": "scripts/scope_check.py",
        "mode": "mutation" if mutation else "clean",
        "summary": {
            "files_scanned": len(sources),
            "post_sites": post_total,
            "scoped_sites": sum(1 for s in sites if s["verdict"] != "unscoped"),
            "waived_sites": sum(1 for s in sites if s["verdict"] == "waived"),
            "classes_seen": len(all_classes),
            "classes_annotated": sum(1 for c in all_classes if c.annotated),
            "violations": len(problems),
        },
        "classes": {
            f"{c.src.rel}:{c.name}": {
                "owned_by": c.owners,
                "shared": c.shared,
                "engine_local": c.engine_local,
            }
            for c in sorted(all_classes, key=lambda c: (c.src.rel, c.start))
            if c.annotated
        },
        "sites": sites,
        "violations": [
            {"file": f, "line": l, "rule": r, "detail": d} for f, l, r, d in problems
        ],
    }
    return report, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="repo root to analyze (default: this repo)")
    parser.add_argument("--mutation", action="store_true",
                        help="read the mutated arm of FABSIM_MUTATION_SCOPE seams")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: results/scope_report.json "
                             "under --root; '-' to skip)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit status: succeed iff violations were found "
                             "(the mutation self-test gate)")
    args = parser.parse_args()

    report, problems = analyze(os.path.abspath(args.root), args.mutation)

    out = args.out
    if out is None:
        out = os.path.join(args.root, "results", "scope_report.json")
    if out != "-":
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=False)
            f.write("\n")

    for rel, line, rule, detail in problems:
        print(f"{rel}:{line}: [{rule}] {detail}", file=sys.stderr)
    s = report["summary"]
    status = (f"scope_check[{report['mode']}]: {s['post_sites']} post sites "
              f"({s['scoped_sites']} scoped, {s['waived_sites']} waived), "
              f"{s['classes_annotated']} annotated classes, {len(problems)} violation(s)")
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
