#!/usr/bin/env python3
"""optsched-lint -- concurrency-discipline checker for the optsched tree.

Enforces the locking/ordering rules that clang -Wthread-safety cannot
express (the analysis is structural, not semantic -- see
docs/static_analysis.md for the full rationale):

  atomic-memory-order    every std::atomic operation in src/runtime,
                         src/trace, src/ingress, src/task, and src/sched
                         spells its std::memory_order explicitly;
                         implicit operator forms (=, ++, +=) on known atomic
                         members are flagged too -- they are silent seq_cst.
  dual-lock-rank         DualLockGuard acquisition order comes from queue
                         indices (the machine-wide rank), never from
                         comparing lock addresses.
  load-publish-context   stores to a runqueue's published load words
                         (published_*) happen only in functions that are
                         OPTSCHED_REQUIRES-annotated or follow the *Locked
                         naming convention -- readers take no lock, so the
                         queue lock is the only thing serializing writers.
  mc-hook-coverage       every raw std::atomic member in src/runtime,
                         src/ingress (mailbox sync state included),
                         src/task, and src/sched carries
                         a "// mc: kOp, ..." tag naming the
                         mc_hooks::SyncPoint / BlockUntil announcements that
                         cover it (announcements must exist in the same file
                         or its header/source sibling), so new synchronization
                         state cannot silently escape the model checker's
                         schedule exploration.
  hot-path-alloc         OPTSCHED_HOT_PATH function bodies contain no
                         allocation or container growth (operator new,
                         malloc/calloc/realloc, make_unique/make_shared,
                         push_back/emplace/resize/reserve/insert/append,
                         ItemRing's PushBack/PushBatch); function
                         templates included.

Suppressions: "// optsched-lint: allow(<rule>): <reason>" on the offending
line or on its own line directly above. The reason is mandatory; a
suppression without one is itself a diagnostic.

Tree mode (default):
    optsched_lint.py [--root DIR] [--build BUILDDIR] [files...]
With --build, compile_commands.json is loaded and every .cc under
src/runtime, src/trace, src/task, src/ingress, src/sched, and src/workload
must appear in it -- a translation unit that is not built is a translation
unit the lint (and -Wthread-safety) silently stopped covering.

Fixture mode:
    optsched_lint.py --fixtures DIR
Lints seeded-violation files with every rule (path scopes ignored) and
requires the produced diagnostics to match "// expect-lint: <rule>"
annotations exactly: a missing diagnostic means a rule stopped firing, an
unexpected one means a rule over-triggers. Used by ctest
(lint_fixtures_test) so that disabling any single rule fails CI.

Exit codes: 0 clean, 1 diagnostics (or fixture mismatch), 2 usage/setup
error.
"""

import argparse
import json
import os
import re
import sys

RULES = (
    "atomic-memory-order",
    "dual-lock-rank",
    "load-publish-context",
    "mc-hook-coverage",
    "hot-path-alloc",
)

# Tree-mode path scope per rule (prefix match on the repo-relative path).
RULE_SCOPES = {
    "atomic-memory-order": ("src/runtime/", "src/trace/", "src/ingress/",
                            "src/task/", "src/sched/"),
    "dual-lock-rank": ("src/",),
    "load-publish-context": ("src/",),
    "mc-hook-coverage": ("src/runtime/", "src/ingress/", "src/task/", "src/sched/"),
    "hot-path-alloc": ("src/",),
}

MC_TAG_RE = re.compile(r"//\s*mc:\s*(?P<ops>k\w+(?:\s*,\s*k\w+)*)\s*$")

ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:alignas\([^)]*\)\s*)?"
    r"std::atomic<[^;&()]*>\s+(?P<name>\w+)\s*(?:\[[^\]]*\])?\s*"
    r"(?:\{[^;]*\})?\s*;")
DUAL_GUARD_RE = re.compile(r"\bDualLockGuard\b")
ADDRESS_CMP_RE = re.compile(
    r"&\s*[A-Za-z_][\w.\[\]]*(?:(?:->|\.)\w+(?:\(\))?)*\s*[<>]=?\s*&")
PUBLISH_STORE_RE = re.compile(
    r"\bpublished_\w*\s*\.\s*(store|exchange|fetch_\w+|compare_exchange_\w+)\s*\(")
SYNC_ANNOUNCE_RE = re.compile(r"SyncOp::(k\w+)")
HOT_PATH_TOKEN = "OPTSCHED_HOT_PATH"

BANNED_ALLOC = (
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:std::)?(?:malloc|calloc|realloc)\s*\("), "C allocation"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "smart-pointer allocation"),
    # std containers plus ItemRing, whose PushBack/PushBatch grow the ring
    # past its high-water size.
    (re.compile(
        r"\.\s*(push_back|emplace_back|emplace|resize|reserve|insert|append|"
        r"PushBack|PushBatch)\s*\("), "container growth"),
)

# Keywords that open a block but are not function definitions.
NON_FUNCTION_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "do", "else", "try", "return",
    "namespace", "class", "struct", "enum", "union", "template", "using",
    "extern", "case", "default",
}
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "decltype", "alignas", "static_assert"}


class Diagnostic:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blanks comments and string/char literal contents, preserving line
    structure, so the rules never fire on prose or literals."""
    out = []
    i, n = 0, len(text)
    prev_code = ""  # last non-space emitted char (to tell 'c' from 1'000)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or (c == "'" and not (prev_code.isalnum() or
                                            prev_code == "_")):
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                elif text[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                elif text[i] == "\n":  # unterminated literal: give up politely
                    out.append("\n")
                    i += 1
                    break
                else:
                    out.append(" ")
                    i += 1
            prev_code = quote
        else:
            out.append(c)
            if not c.isspace():
                prev_code = c
            i += 1
    return "".join(out).split("\n")


class Directives:
    """Suppressions, tags and fixture expectations parsed from the raw
    (unstripped) source. A directive on its own comment line binds to the
    next line as well as its own.

    The syntax is shared by both analyzers; each passes its own prefixes and
    tag regex. `tool` heads a suppression ("// <tool>: allow(<rule>):
    <reason>"), `expect` a fixture expectation ("// <expect>: <rule>"), and
    `tag_re` matches a site tag whose first group lists comma-separated
    items: the lint's mc hook ops, the atomics audit's order rules."""

    def __init__(self, raw_lines, tool="optsched-lint", expect="expect-lint",
                 tag_re=MC_TAG_RE):
        allow_head = (r"//\s*" + re.escape(tool) +
                      r":\s*allow\((?P<rule>[a-z-]+)\)")
        allow_re = re.compile(allow_head + r"\s*:\s*(?P<reason>\S.*)")
        malformed_re = re.compile(allow_head + r"\s*:?\s*$")
        expect_re = re.compile(
            r"//\s*" + re.escape(expect) + r":\s*(?P<rule>[a-z-]+)")
        self.allow = {}    # 0-based line -> {rule: reason}
        self.tags = {}     # 0-based line -> [items]
        self.expects = []  # (0-based binding line, rule)
        self.malformed = []  # 0-based lines with reason-less suppressions
        for idx, line in enumerate(raw_lines):
            m = allow_re.search(line)
            if m:
                self.allow.setdefault(idx, {})[m.group("rule")] = \
                    m.group("reason")
            elif malformed_re.search(line):
                self.malformed.append(idx)
            m = tag_re.search(line)
            if m:
                self.tags[idx] = [item.strip()
                                  for item in m.group(1).split(",")]
            m = expect_re.search(line)
            if m:
                standalone = line.lstrip().startswith("//")
                bind = idx + 1 if standalone else idx
                self.expects.append((bind, m.group("rule")))

    def suppressed(self, idx, rule):
        for at in (idx, idx - 1):
            if rule in self.allow.get(at, {}):
                return True
        return False

    def tag_for(self, idx):
        for at in (idx, idx - 1):
            if at in self.tags:
                return self.tags[at]
        return None


def strip_template_head(header):
    """Drops a leading `template <...>` so a function template is classified
    by the declaration that follows it."""
    m = re.match(r"template\s*<", header)
    if not m:
        return header
    depth = 0
    for k in range(m.end() - 1, len(header)):
        if header[k] == "<":
            depth += 1
        elif header[k] == ">":
            depth -= 1
            if depth == 0:
                return header[k + 1:].strip()
    return header


class Block:
    __slots__ = ("open_line", "close_line", "header", "name", "is_function",
                 "hot")

    def __init__(self, open_line, header):
        self.open_line = open_line
        self.close_line = None
        self.header = header
        self.name = ""
        self.is_function = False
        self.hot = HOT_PATH_TOKEN in header
        h = re.sub(r"\b(public|private|protected)\s*:", " ", header).strip()
        h = strip_template_head(h)
        if "(" not in h:
            return
        first = re.match(r"[A-Za-z_~][\w]*", h)
        if first and first.group(0) in NON_FUNCTION_KEYWORDS:
            return
        if re.search(r"=\s*\[", h) or h.startswith("["):
            return  # lambda: transparent, the enclosing function owns it
        for m in re.finditer(r"([A-Za-z_~]\w*)\s*\(", h):
            if m.group(1) not in CONTROL_KEYWORDS:
                self.name = m.group(1)
                self.is_function = True
                return


def scan_blocks(stripped_lines):
    """Single pass over the stripped source: brace matching plus block-header
    classification. Returns line_funcs, where line_funcs[i] is the innermost
    *function* Block alive at any point during line i (None at file scope)."""
    line_funcs = [None] * len(stripped_lines)
    stack = []
    header = []

    def innermost_function():
        for block in reversed(stack):
            if block.is_function:
                return block
        return None

    for idx, line in enumerate(stripped_lines):
        best = innermost_function()
        if line.lstrip().startswith("#"):
            line_funcs[idx] = best
            continue  # preprocessor lines neither open blocks nor belong
        for c in line:
            if c == "{":
                stack.append(Block(idx, "".join(header)))
                header = []
                cand = innermost_function()
                if cand is not None:
                    best = cand
            elif c == "}":
                if stack:
                    stack.pop().close_line = idx
                header = []
            elif c == ";":
                header = []
            else:
                header.append(c)
        header.append(" ")  # line break inside a multi-line signature
        line_funcs[idx] = best
    return line_funcs


def paren_args(stripped_lines, idx, start_col, max_span=6):
    """Text from the '(' at/after start_col on line idx to its matching ')',
    spanning up to max_span lines. Empty string if unbalanced."""
    depth = 0
    collected = []
    for j in range(idx, min(idx + max_span, len(stripped_lines))):
        line = stripped_lines[j]
        col = start_col if j == idx else 0
        for k in range(col, len(line)):
            c = line[k]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    collected.append(line[col:k + 1])
                    return "\n".join(collected)
        collected.append(line[col:])
    return ""


def load_stripped(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw = text.split("\n")
    return raw, strip_code(text)


def sibling_of(path):
    if path.endswith(".h"):
        return path[:-2] + ".cc"
    if path.endswith(".cc"):
        return path[:-3] + ".h"
    return None


def announced_ops(path, stripped_lines):
    """SyncOp enumerators announced (SyncPoint/BlockUntil) in this file or
    its header/source sibling."""
    ops = set(SYNC_ANNOUNCE_RE.findall("\n".join(stripped_lines)))
    sib = sibling_of(path)
    if sib and os.path.exists(sib):
        _, sib_stripped = load_stripped(sib)
        ops |= set(SYNC_ANNOUNCE_RE.findall("\n".join(sib_stripped)))
    return ops


def declared_sync_ops(root):
    """Valid SyncOp enumerators from src/runtime/mc_hooks.h (None when the
    header is absent, e.g. fixture self-tests)."""
    path = os.path.join(root, "src", "runtime", "mc_hooks.h")
    if not os.path.exists(path):
        return None
    _, stripped = load_stripped(path)
    text = "\n".join(stripped)
    m = re.search(r"enum\s+class\s+SyncOp[^{]*\{(?P<body>[^}]*)\}", text)
    if not m:
        return None
    return set(re.findall(r"\bk\w+", m.group("body")))


def atomic_member_names(raw_lines, stripped_lines, path):
    names = set()
    for line in stripped_lines:
        m = ATOMIC_MEMBER_RE.match(line)
        if m:
            names.add(m.group("name"))
    sib = sibling_of(path)
    if sib and os.path.exists(sib):
        _, sib_stripped = load_stripped(sib)
        for line in sib_stripped:
            m = ATOMIC_MEMBER_RE.match(line)
            if m:
                names.add(m.group("name"))
    return names


# ---------------------------------------------------------------------------
# Rules. Each takes a Context and appends Diagnostics.
# ---------------------------------------------------------------------------

class Context:
    def __init__(self, path, rel, root):
        self.path = path
        self.rel = rel
        self.root = root
        self.raw, self.stripped = load_stripped(path)
        self.directives = Directives(self.raw)
        self.line_funcs = scan_blocks(self.stripped)
        self.diags = []

    def report(self, idx, rule, message):
        if not self.directives.suppressed(idx, rule):
            self.diags.append(Diagnostic(self.rel, idx + 1, rule, message))


def count_top_level_orders(args):
    """memory_order tokens at paren depth 1 of an argument list. Orders
    inside nested calls (a fetch that feeds a store) sit at depth >= 2 and
    do not count for the outer op."""
    count = 0
    depth = 0
    i, n = 0, len(args)
    token = "memory_order_"
    while i < n:
        c = args[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif (depth == 1 and args.startswith(token, i) and
              (i == 0 or not (args[i - 1].isalnum() or args[i - 1] == "_"))):
            count += 1
            i += len(token)
            continue
        i += 1
    return count


def rule_atomic_memory_order(ctx):
    for idx, line in enumerate(ctx.stripped):
        for m in ATOMIC_OP_RE.finditer(line):
            op = m.group(1)
            args = paren_args(ctx.stripped, idx, m.end() - 1)
            n = count_top_level_orders(args)
            if n == 0:
                ctx.report(idx, "atomic-memory-order",
                           f"atomic {op}() without an explicit "
                           "std::memory_order argument (implicit seq_cst)")
            elif op.startswith("compare_exchange") and n < 2:
                ctx.report(idx, "atomic-memory-order",
                           f"atomic {op}() spells only the success order -- "
                           "the failure order is then derived implicitly; "
                           "spell both (the failure position is where "
                           "silent seq_cst->acquire downgrades hide)")
    names = atomic_member_names(ctx.raw, ctx.stripped, ctx.path)
    if names:
        op_re = re.compile(
            r"(?:\+\+|--)\s*(?P<pre>" + "|".join(map(re.escape, names)) +
            r")\b|\b(?P<name>" + "|".join(map(re.escape, names)) +
            r")\s*(?:\+\+|--|[+\-|&^]=|=(?!=))")
        for idx, line in enumerate(ctx.stripped):
            if ATOMIC_MEMBER_RE.match(line):
                continue  # the declaration itself ({0} initializers etc.)
            for m in op_re.finditer(line):
                var = m.group("pre") or m.group("name")
                ctx.report(idx, "atomic-memory-order",
                           f"implicit seq_cst operator on atomic '{var}' -- "
                           "use load/store/fetch_* with an explicit order")


def rule_dual_lock_rank(ctx):
    for idx, line in enumerate(ctx.stripped):
        if not DUAL_GUARD_RE.search(line):
            continue
        lo = max(0, idx - 10)
        hi = min(len(ctx.stripped), idx + 3)
        for j in range(lo, hi):
            if ADDRESS_CMP_RE.search(ctx.stripped[j]):
                ctx.report(idx, "dual-lock-rank",
                           "DualLockGuard ordered by comparing lock "
                           f"addresses (line {j + 1}); rank by queue index "
                           "-- the machine-wide order the proofs and the "
                           "model checker assume")
                break


def rule_load_publish_context(ctx):
    for idx, line in enumerate(ctx.stripped):
        if not PUBLISH_STORE_RE.search(line):
            continue
        func = ctx.line_funcs[idx]
        if func is None:
            ctx.report(idx, "load-publish-context",
                       "published-load store outside any function body")
            continue
        if "OPTSCHED_REQUIRES" in func.header or func.name.endswith("Locked"):
            continue
        ctx.report(idx, "load-publish-context",
                   f"published-load store from '{func.name}', which is neither "
                   "OPTSCHED_REQUIRES-annotated nor *Locked -- writers must "
                   "hold the owning queue's lock")


def rule_mc_hook_coverage(ctx, valid_ops):
    announced = None  # computed lazily; most files have no atomic members
    for idx, line in enumerate(ctx.stripped):
        m = ATOMIC_MEMBER_RE.match(line)
        if not m:
            continue
        name = m.group("name")
        tag = ctx.directives.tag_for(idx)
        if tag is None:
            ctx.report(idx, "mc-hook-coverage",
                       f"atomic member '{name}' has no '// mc: kOp, ...' tag "
                       "naming its mc_hooks announcements (or an explicit "
                       "suppression) -- the model checker would not explore "
                       "schedules around it")
            continue
        if announced is None:
            announced = announced_ops(ctx.path, ctx.stripped)
        for op in tag:
            if valid_ops is not None and op not in valid_ops:
                ctx.report(idx, "mc-hook-coverage",
                           f"mc tag on '{name}' names '{op}', which is not a "
                           "mc_hooks::SyncOp enumerator")
            elif op not in announced:
                ctx.report(idx, "mc-hook-coverage",
                           f"mc tag on '{name}' names '{op}', but no "
                           "SyncPoint/BlockUntil announces it in this file "
                           "or its sibling")


def rule_hot_path_alloc(ctx):
    for idx, line in enumerate(ctx.stripped):
        func = ctx.line_funcs[idx]
        if func is None or not func.hot:
            continue
        for pattern, label in BANNED_ALLOC:
            m = pattern.search(line)
            if m:
                ctx.report(idx, "hot-path-alloc",
                           f"{label} in OPTSCHED_HOT_PATH function "
                           f"'{func.name}' -- the steal path is audited "
                           "allocation-free (D7); hoist the allocation or "
                           "justify it with a suppression")


def rule_suppression_hygiene(ctx):
    for idx in ctx.directives.malformed:
        ctx.diags.append(Diagnostic(
            ctx.rel, idx + 1, "suppression-syntax",
            "optsched-lint suppression without a reason -- write "
            "'// optsched-lint: allow(rule): why it is safe'"))
    for idx, rules in ctx.directives.allow.items():
        for rule in rules:
            if rule not in RULES:
                ctx.diags.append(Diagnostic(
                    ctx.rel, idx + 1, "suppression-syntax",
                    f"suppression names unknown rule '{rule}'"))


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------

def lint_file(path, rel, root, valid_ops, ignore_scopes=False):
    ctx = Context(path, rel, root)
    posix_rel = rel.replace(os.sep, "/")

    def in_scope(rule):
        return ignore_scopes or any(
            posix_rel.startswith(p) for p in RULE_SCOPES[rule])

    if in_scope("atomic-memory-order"):
        rule_atomic_memory_order(ctx)
    if in_scope("dual-lock-rank"):
        rule_dual_lock_rank(ctx)
    if in_scope("load-publish-context"):
        rule_load_publish_context(ctx)
    if in_scope("mc-hook-coverage"):
        rule_mc_hook_coverage(ctx, valid_ops)
    if in_scope("hot-path-alloc"):
        rule_hot_path_alloc(ctx)
    rule_suppression_hygiene(ctx)
    return ctx


def collect_tree_files(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def check_compile_commands(root, build):
    """Every runtime/trace translation unit must be in compile_commands.json;
    a TU that drops out of the build drops out of -Wthread-safety too."""
    diags = []
    cc_path = os.path.join(build, "compile_commands.json")
    if not os.path.exists(cc_path):
        print(f"optsched-lint: {cc_path} not found -- configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON (the tree default)",
              file=sys.stderr)
        sys.exit(2)
    with open(cc_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    built = set()
    for entry in entries:
        built.add(os.path.realpath(
            os.path.join(entry.get("directory", "."), entry["file"])))
    for sub in ("src/runtime", "src/trace", "src/task", "src/ingress",
                "src/sched", "src/workload"):
        subdir = os.path.join(root, sub)
        if not os.path.isdir(subdir):
            continue
        for dirpath, _, names in os.walk(subdir):
            for name in sorted(names):
                if not name.endswith(".cc"):
                    continue
                full = os.path.realpath(os.path.join(dirpath, name))
                if full not in built:
                    rel = os.path.relpath(full, root)
                    diags.append(Diagnostic(
                        rel, 1, "compile-commands",
                        "translation unit missing from "
                        "compile_commands.json -- not built, so neither "
                        "-Wthread-safety nor the linters' build-backed "
                        "assumptions cover it"))
    return diags


def run_tree(args):
    root = os.path.realpath(args.root)
    valid_ops = declared_sync_ops(root)
    files = [os.path.realpath(f) for f in args.files] or \
        collect_tree_files(root)
    diags = []
    for path in files:
        rel = os.path.relpath(path, root)
        diags.extend(lint_file(path, rel, root, valid_ops).diags)
    if args.build:
        diags.extend(check_compile_commands(root, os.path.realpath(args.build)))
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.rule)):
        print(d)
    if diags:
        print(f"optsched-lint: {len(diags)} diagnostic(s)", file=sys.stderr)
        return 1
    print(f"optsched-lint: {len(files)} file(s) clean", file=sys.stderr)
    return 0


def run_fixtures(args):
    fixtures = os.path.realpath(args.fixtures)
    if not os.path.isdir(fixtures):
        print(f"optsched-lint: fixture dir {fixtures} not found",
              file=sys.stderr)
        sys.exit(2)
    root = os.path.realpath(args.root)
    valid_ops = None  # fixtures declare fake ops; skip enumerator validation
    failures = []
    checked = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith((".h", ".cc")):
            continue
        checked += 1
        path = os.path.join(fixtures, name)
        ctx = lint_file(path, name, root, valid_ops, ignore_scopes=True)
        actual = {(d.line, d.rule) for d in ctx.diags}
        expected = {(bind + 1, rule) for bind, rule in ctx.directives.expects}
        for line, rule in sorted(expected - actual):
            failures.append(
                f"{name}:{line}: expected [{rule}] diagnostic was NOT "
                "produced -- the rule stopped firing")
        for line, rule in sorted(actual - expected):
            msg = next(d.message for d in ctx.diags
                       if (d.line, d.rule) == (line, rule))
            failures.append(
                f"{name}:{line}: unexpected [{rule}] diagnostic: {msg}")
    for failure in failures:
        print(failure)
    if failures:
        print(f"optsched-lint: fixture mismatch ({len(failures)})",
              file=sys.stderr)
        return 1
    if checked == 0:
        print("optsched-lint: no fixture files found", file=sys.stderr)
        return 2
    print(f"optsched-lint: {checked} fixture(s) verified", file=sys.stderr)
    return 0


def main():
    default_root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parser = argparse.ArgumentParser(
        prog="optsched-lint",
        description="concurrency-discipline checks beyond -Wthread-safety")
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: two dirs up)")
    parser.add_argument("--build", default=None,
                        help="build dir; verifies runtime/trace TUs appear "
                             "in its compile_commands.json")
    parser.add_argument("--fixtures", default=None,
                        help="lint a seeded-violation fixture dir and match "
                             "expect-lint annotations exactly")
    parser.add_argument("files", nargs="*",
                        help="explicit files (default: all of src/)")
    args = parser.parse_args()
    if args.fixtures:
        sys.exit(run_fixtures(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
