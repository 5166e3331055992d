"""Shared C++ scanning front end for the compiler-free analyzers.

scope_check.py, hotpath_check.py and conventions_lint.py read the tree as
text, without a compiler. This module holds what they share: the source
walker, comment and string masking (offsets are kept, so a match in the
masked text indexes the raw text too), bracket matching, top-level comma
splitting, class-body discovery and the loose declaration-type resolver.
"""
import os
import re

POST_CALL = re.compile(r"(?:->|\.)\s*post\s*\(")  # post_resume does not match
CLASS_DEF = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)\b")


def mask_comments_and_strings(text):
    """Replace comments and string/char literals with spaces (offsets kept)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def matching(masked, start, open_ch, close_ch):
    """Offset of the close matching masked[start] == open_ch, or -1."""
    depth = 0
    for i in range(start, len(masked)):
        c = masked[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_level(masked_text):
    """Split on commas at bracket depth zero; returns (start, end) spans."""
    spans, depth, begin = [], 0, 0
    for i, c in enumerate(masked_text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            spans.append((begin, i))
            begin = i + 1
    spans.append((begin, len(masked_text)))
    return spans


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def source_files(top, exts=(".hpp", ".h", ".cpp")):
    for dirpath, dirnames, names in os.walk(top):
        dirnames.sort()
        # Fixture trees are deliberately dirty; skip them unless they ARE
        # the scan root (the self-tests point --root at one).
        if "lint_fixtures" in os.path.relpath(dirpath, top).split(os.sep):
            continue
        for name in sorted(names):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


class SourceFile:
    def __init__(self, path, root):
        self.path = path
        self.rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            self.raw = f.read()
        self.masked = mask_comments_and_strings(self.raw)
        self.lines = self.raw.splitlines()


class ClassSpan:
    """A class/struct definition and the offsets of its body braces."""

    def __init__(self, name, src, start, end):
        self.name = name
        self.src = src
        self.start = start  # offset of the class body's '{'
        self.end = end
        self.bases = []     # unqualified base-class names, in declaration order


def base_names(head):
    """Base classes named in a class head (`X final : public ns::B, C` -> [B, C])."""
    if ":" not in head.replace("::", ""):
        return []
    clause = re.split(r"(?<!:):(?!:)", head, maxsplit=1)[1]
    names = []
    for base in clause.split(","):
        idents = re.findall(r"[A-Za-z_]\w*", base.split("<")[0])
        if idents:
            names.append(idents[-1])
    return names


def collect_classes(src, make=ClassSpan):
    """Class/struct definitions in `src`, each built as make(name, src, start, end)."""
    classes = []
    for m in CLASS_DEF.finditer(src.masked):
        # Walk to the first of '{' or ';' after the head; ';' means a
        # forward declaration (or data member like `class X* p;`).
        i = m.end()
        while i < len(src.masked) and src.masked[i] not in "{;":
            # A '(' before the brace means this was `struct tm buf(...)`
            # or similar expression context - not a definition.
            if src.masked[i] == "(":
                i = -1
                break
            i += 1
        if i < 0 or i >= len(src.masked) or src.masked[i] != "{":
            continue
        end = matching(src.masked, i, "{", "}")
        if end < 0:
            continue
        cls = make(m.group(2), src, i, end)
        cls.bases = base_names(src.masked[m.end():i])
        classes.append(cls)
    return classes


def innermost_class(classes, offset):
    best = None
    for c in classes:
        if c.start < offset < c.end:
            if best is None or c.start > best.start:
                best = c
    return best


# Declaration of `name` as a typed local/parameter/member. The type group
# is deliberately loose: callers only need its *s and &s, or its trailing
# identifier chain.
def find_decl_type(text, name):
    decl = re.compile(
        r"(?:^|[(,;{]|\bconst\s)\s*"
        r"((?:const\s+)?[A-Za-z_][\w:]*(?:<[^;{}]*?>)?(?:\s*const)?[\s*&]+)"
        rf"{re.escape(name)}\s*(?:=|;|,|\)|\{{|\[)", re.M)
    last = None
    for m in decl.finditer(text):
        type_text = m.group(1)
        if type_text.split()[0] in ("return", "delete", "new", "case", "goto", "else"):
            continue
        last = type_text
    return last
