#!/usr/bin/env python3
"""atomics-audit -- memory-order protocol analyzer for the optsched tree.

Statically proves every std::atomic access site in the concurrent source
dirs against the declarative per-structure protocol specs in
tools/analysis/protocols/*.json (docs/static_analysis.md section 4). Where
optsched-lint checks that an order is SPELLED, this tool checks that the
spelled order is the RIGHT one for the documented happens-before argument --
the static complement of the mc checker's dynamic bounds (the checker
explores interleavings at 4 workers / preemption bound 2; this gate covers
every site, every build, at any scale).

Passes:
  extract   every atomic access site in src/runtime, src/trace, src/ingress,
            src/task, src/sched into a site table: field, op kind
            (load/store/exchange/fetch_*/compare_exchange_{weak,strong},
            including implicit operator forms and two-order CAS), memory
            order(s), justification tag, plus per-file
            std::atomic_thread_fence shapes and atomic member declarations.
  check     each site against its structure's spec: per-op minimum orders
            (CAS success/failure positions separately), and the relaxed-site
            allowlist -- every relaxed (or below-minimum but justifiable)
            site must carry a "// order: <spec-rule>" tag citing a rule the
            spec's justify list allows for that op.
  mc        cross-check against the SyncOp enum in src/runtime/mc_hooks.h:
            every spec'd atomic either declares its mc hook ops (which must
            match the member's "// mc:" tag and exist in the enum) or
            carries a spec-declared hook-free exemption.
  report    JSON site/coverage report (--json), per-scope site-count floors
            (--min-sites), and TU coverage via compile_commands.json
            (--build, shared with optsched-lint).

Checks (diagnostic categories):
  unspecified-site      atomic op on a field no protocol spec covers
  unspecified-member    declared atomic member absent from every spec
  unspecified-op        op kind performed on a field whose spec entry does
                        not list it
  implicit-order        implicit operator form (=/++/--/+=) on a spec'd
                        field -- no order to check (lint flags the spelling;
                        this keeps the site table honest)
  order-too-weak        order below the spec minimum for that op/position
                        and not justified by a citable rule
  unjustified-relaxed   relaxed site without a valid "// order:" tag
  unknown-rule          "// order:" tag citing a rule the governing spec
                        does not declare or allow for that site
  mc-mismatch           spec mc ops vs member "// mc:" tag vs SyncOp enum
                        disagreement (or a missing hook-free exemption)
  fence-shape           a file's atomic_thread_fence sequence differs from
                        the spec's declared shape
  stale-spec            spec field with no sites anywhere (anchored to the
                        spec's first file) -- specs must track the code
  suppression-syntax    malformed "// atomics-audit: allow(...)" suppression

Suppressions: "// atomics-audit: allow(<check>): <reason>" on the offending
line or on its own line directly above. The reason is mandatory.

Tree mode (default):
    atomics_audit.py [--root DIR] [--build BUILDDIR] [--specs DIR]
                     [--json OUT] [--min-sites PREFIX=N]...
Fixture mode:
    atomics_audit.py --fixtures DIR
Analyzes seeded-violation files against DIR/protocols/*.json and requires
the produced diagnostics to match "// expect-atomics: <check>" annotations
exactly, mirroring lint_fixtures_test: a missing diagnostic means a pass
stopped firing, an unexpected one means a pass over-triggers.

Exit codes: 0 clean, 1 diagnostics (or fixture mismatch), 2 usage/setup
error.
"""

import argparse
import json
import os
import re
import sys

_LINT_DIR = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "lint"))
sys.path.insert(0, _LINT_DIR)
import optsched_lint as lint  # noqa: E402  (shared tokenizer/fixture machinery)

SCOPES = ("src/runtime/", "src/trace/", "src/ingress/", "src/task/",
          "src/sched/")

CHECKS = (
    "unspecified-site",
    "unspecified-member",
    "unspecified-op",
    "implicit-order",
    "order-too-weak",
    "unjustified-relaxed",
    "unknown-rule",
    "mc-mismatch",
    "fence-shape",
    "stale-spec",
    "suppression-syntax",
)

# The C++ order lattice, with acquire/release incomparable one-way fences:
# an order satisfies a minimum iff it is at least as strong AND provides the
# required direction (acquire-minimums are not met by release and vice
# versa; acq_rel/seq_cst provide both).
ORDER_RANK = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
              "acq_rel": 3, "seq_cst": 4}
DIRECTIONAL = {
    "consume": {"consume", "acquire", "acq_rel", "seq_cst"},
    "acquire": {"acquire", "acq_rel", "seq_cst"},
    "release": {"release", "acq_rel", "seq_cst"},
}

CAS_OPS = ("compare_exchange_weak", "compare_exchange_strong")
# C++ [atomics.types.operations]: the one-argument CAS derives its failure
# order from the success order by dropping the release half.
DERIVED_FAILURE = {"relaxed": "relaxed", "consume": "consume",
                   "acquire": "acquire", "release": "relaxed",
                   "acq_rel": "acquire", "seq_cst": "seq_cst"}

ORDER_TAG_RE = re.compile(
    r"//\s*order:\s*(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\s*$")
FENCE_RE = re.compile(r"\batomic_thread_fence\s*\(\s*std::memory_order_(\w+)")
# Member declarations, including atomic arrays and atomics behind
# unique_ptr<T[]> / vector<T> storage (e.g. slots_) that the
# lint's narrower decl regex does not track.
MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:alignas\([^)]*\)\s*)?(?:const\s+)?"
    r"(?:std::(?:unique_ptr|vector|array)<\s*)?"
    r"std::atomic<[^;&()]*?>(?:\s*\[\s*\]\s*>|\s*>)?"
    r"\s+(?P<name>\w+)\s*(?:\[[^\]]*\])?\s*(?:\{[^;]*\})?\s*;")

ORDER_TOKEN = "memory_order_"


def order_satisfies(order, minimum):
    if minimum in DIRECTIONAL:
        return order in DIRECTIONAL[minimum]
    return ORDER_RANK.get(order, -1) >= ORDER_RANK.get(minimum, 99)


def top_level_orders(args_text):
    """memory_order tokens at paren depth 1 of an argument list (nested
    atomic calls contribute their orders at depth >= 2 and are skipped)."""
    orders = []
    depth = 0
    i, n = 0, len(args_text)
    while i < n:
        c = args_text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif (depth == 1 and args_text.startswith(ORDER_TOKEN, i) and
              (i == 0 or not (args_text[i - 1].isalnum() or
                              args_text[i - 1] == "_"))):
            j = i + len(ORDER_TOKEN)
            k = j
            while k < n and (args_text[k].isalnum() or args_text[k] == "_"):
                k += 1
            orders.append(args_text[j:k])
            i = k
            continue
        i += 1
    return orders


def base_identifier(line, dot_col):
    """The member identifier the '.op(' at dot_col is invoked on: walks back
    over whitespace and one or more [...] index groups to the identifier
    (the last component of any a.b->c chain)."""
    i = dot_col - 1
    while True:
        while i >= 0 and line[i].isspace():
            i -= 1
        if i >= 0 and line[i] == "]":
            depth = 1
            i -= 1
            while i >= 0 and depth > 0:
                if line[i] == "]":
                    depth += 1
                elif line[i] == "[":
                    depth -= 1
                i -= 1
            continue
        break
    end = i + 1
    while i >= 0 and (line[i].isalnum() or line[i] == "_"):
        i -= 1
    return line[i + 1:end]


def audit_directives(raw_lines):
    """The audit's "// order:", "// atomics-audit: allow(...)" and
    "// expect-atomics:" directives, parsed by the lint's Directives."""
    return lint.Directives(raw_lines, tool="atomics-audit",
                           expect="expect-atomics", tag_re=ORDER_TAG_RE)


class Spec:
    def __init__(self, path, data):
        self.path = path
        for key in ("name", "structure", "files", "fields"):
            if key not in data:
                raise ValueError(f"{path}: spec missing required key '{key}'")
        self.name = data["name"]
        self.structure = data["structure"]
        self.files = list(data["files"])
        self.doc = data.get("doc", "")
        self.rules = dict(data.get("rules", {}))
        self.aliases = dict(data.get("aliases", {}))
        self.fields = dict(data.get("fields", {}))
        self.fences = dict(data.get("fences", {}))
        for field, entry in self.fields.items():
            if ("mc" in entry) == ("hook_free" in entry):
                raise ValueError(
                    f"{path}: field '{field}' must declare exactly one of "
                    "'mc' (hook ops) or 'hook_free' (exemption reason)")
            for op, op_rule in entry.get("ops", {}).items():
                want = ("min_success", "min_failure") if op in CAS_OPS \
                    else ("min",)
                for k in want:
                    if k not in op_rule:
                        raise ValueError(
                            f"{path}: field '{field}' op '{op}' missing "
                            f"'{k}'")
                for jkey in ("justify", "justify_success", "justify_failure"):
                    for rule in op_rule.get(jkey, []):
                        if rule not in self.rules:
                            raise ValueError(
                                f"{path}: field '{field}' op '{op}' cites "
                                f"undeclared rule '{rule}'")

    def resolve(self, name):
        """Spec field entry for a source identifier (direct or alias)."""
        if name in self.fields:
            return name, self.fields[name]
        alias = self.aliases.get(name)
        if alias is not None and alias in self.fields:
            return alias, self.fields[alias]
        return None, None


class Site:
    __slots__ = ("rel", "line", "spec", "field", "op", "orders", "implicit",
                 "tag")

    def __init__(self, rel, line, spec, field, op, orders, implicit, tag):
        self.rel = rel
        self.line = line  # 1-based
        self.spec = spec  # Spec or None
        self.field = field
        self.op = op
        self.orders = orders  # list: [order] or [success, failure]
        self.implicit = implicit
        self.tag = tag  # [rule ids] or None

    def as_json(self):
        return {
            "file": self.rel,
            "line": self.line,
            "structure": self.spec.structure if self.spec else None,
            "field": self.field,
            "op": self.op,
            "orders": self.orders,
            "implicit": self.implicit,
            "justification": self.tag,
        }


class Auditor:
    def __init__(self, specs, valid_ops):
        self.specs = specs
        self.valid_ops = valid_ops  # SyncOp enumerators, or None to skip
        self.sites = []
        self.diags = []
        self.fences = {}           # rel -> [orders]
        self.members = {}          # rel -> [(line idx, name)]
        self.fields_seen = set()   # (spec name, field) with >= 1 site

    def specs_for(self, rel):
        return [s for s in self.specs if rel in s.files]

    # --- extract + check one file ------------------------------------------

    def audit_file(self, path, rel):
        raw, stripped = lint.load_stripped(path)
        lint_dirs = lint.Directives(raw)   # mc tags ride the lint syntax
        audit_dirs = audit_directives(raw)

        def report(idx, check, message):
            if not audit_dirs.suppressed(idx, check):
                self.diags.append(
                    lint.Diagnostic(rel, idx + 1, check, message))

        for idx in audit_dirs.malformed:
            self.diags.append(lint.Diagnostic(
                rel, idx + 1, "suppression-syntax",
                "atomics-audit suppression without a reason -- write "
                "'// atomics-audit: allow(check): why it is safe'"))
        for idx, checks in audit_dirs.allow.items():
            for check in checks:
                if check not in CHECKS:
                    self.diags.append(lint.Diagnostic(
                        rel, idx + 1, "suppression-syntax",
                        f"suppression names unknown check '{check}'"))

        specs_here = self.specs_for(rel)

        # Fences (pass A), compared against the declared shape (pass B).
        fence_lines = []
        for idx, line in enumerate(stripped):
            for m in FENCE_RE.finditer(line):
                fence_lines.append((idx, m.group(1)))
        self.fences[rel] = [order for _, order in fence_lines]
        declared = None
        for spec in specs_here:
            if rel in spec.fences:
                declared = spec.fences[rel]
                break
        self.check_fences(rel, fence_lines, declared, report)

        # Member declarations (pass A) + mc cross-check (pass C).
        self.members[rel] = []
        for idx, line in enumerate(stripped):
            m = MEMBER_RE.match(line)
            if not m:
                continue
            name = m.group("name")
            self.members[rel].append((idx, name))
            field, entry, spec = None, None, None
            for s in specs_here:
                field, entry = s.resolve(name)
                if entry is not None:
                    spec = s
                    break
            if entry is None:
                report(idx, "unspecified-member",
                       f"atomic member '{name}' is not covered by any "
                       "protocol spec -- add it to a spec in "
                       "tools/analysis/protocols/ (or a hook-free entry)")
                continue
            self.check_mc(rel, idx, name, entry, spec,
                          lint_dirs.tag_for(idx), report)

        # Access sites (pass A) + order checks (pass B).
        # Implicit-operator scan uses direct field names only: aliases are
        # local lvalues (e.g. the chase_lev 'slot' pointer) whose own
        # declaration/assignment lines are not atomic ops.
        known_names = set()
        for s in specs_here:
            known_names |= set(s.fields)
        for idx, line in enumerate(stripped):
            for m in lint.ATOMIC_OP_RE.finditer(line):
                if MEMBER_RE.match(line):
                    continue  # a declaration's initializer, not a site
                op = m.group(1)
                base = base_identifier(line, m.start())
                args = lint.paren_args(stripped, idx, m.end() - 1)
                orders = top_level_orders(args)
                self.record_site(rel, idx, base, op, orders,
                                 audit_dirs.tag_for(idx), specs_here, report)
            if known_names:
                self.scan_implicit(rel, idx, line, known_names, specs_here,
                                   report)

    def scan_implicit(self, rel, idx, line, names, specs_here, report):
        if MEMBER_RE.match(line):
            return  # {0} initializers on the declaration itself
        pattern = (r"(?:\+\+|--)\s*(?P<pre>" +
                   "|".join(map(re.escape, sorted(names))) +
                   r")\b|\b(?P<name>" +
                   "|".join(map(re.escape, sorted(names))) +
                   r")\s*(?:\+\+|--|[+\-|&^]=|=(?!=))")
        for m in re.finditer(pattern, line):
            var = m.group("pre") or m.group("name")
            spec, field = None, None
            for s in specs_here:
                field, entry = s.resolve(var)
                if entry is not None:
                    spec = s
                    break
            if spec is None:
                continue
            self.sites.append(Site(rel, idx + 1, spec, field, "implicit",
                                   ["seq_cst"], True, None))
            self.fields_seen.add((spec.name, field))
            report(idx, "implicit-order",
                   f"implicit operator on atomic '{var}' -- the protocol "
                   "check needs an explicit load/store/fetch_* form")

    def record_site(self, rel, idx, base, op, orders, tag, specs_here,
                    report):
        spec, field, entry = None, None, None
        for s in specs_here:
            field, entry = s.resolve(base)
            if entry is not None:
                spec = s
                break
        site = Site(rel, idx + 1, spec, field if spec else base, op, orders,
                    False, tag)
        self.sites.append(site)
        if spec is None:
            report(idx, "unspecified-site",
                   f"atomic {op}() on '{base}', which no protocol spec "
                   "covers -- every atomic site must be provable against "
                   "a spec in tools/analysis/protocols/")
            return
        self.fields_seen.add((spec.name, field))
        op_rule = entry.get("ops", {}).get(op)
        if op_rule is None:
            report(idx, "unspecified-op",
                   f"{spec.structure}::{field} spec does not list op "
                   f"'{op}' -- declare its minimum order (or remove the "
                   "site)")
            return
        if op in CAS_OPS:
            if len(orders) == 0:
                orders = ["seq_cst", "seq_cst"]  # implicit seq_cst CAS
            elif len(orders) == 1:
                orders = [orders[0], DERIVED_FAILURE.get(orders[0],
                                                         "relaxed")]
            self.check_position(rel, idx, spec, field, op, "success",
                                orders[0], op_rule["min_success"],
                                op_rule.get("justify_success", []), tag,
                                report)
            self.check_position(rel, idx, spec, field, op, "failure",
                                orders[1], op_rule["min_failure"],
                                op_rule.get("justify_failure", []), tag,
                                report)
        else:
            order = orders[0] if orders else "seq_cst"  # implicit seq_cst
            self.check_position(rel, idx, spec, field, op, None, order,
                                op_rule["min"], op_rule.get("justify", []),
                                tag, report)

    def check_position(self, rel, idx, spec, field, op, position, order,
                       minimum, justify, tag, report):
        """One order position of one site: order >= spec minimum, and any
        relaxed (or below-minimum but justifiable) use must cite a rule the
        spec allows for this op."""
        where = f"{spec.structure}::{field} {op}()" + \
            (f" {position} order" if position else "")
        if order not in ORDER_RANK:
            report(idx, "order-too-weak",
                   f"{where} uses unrecognized order '{order}'")
            return
        ok = order_satisfies(order, minimum)
        needs_tag = (not ok) or order == "relaxed"
        if not needs_tag:
            return
        if tag is not None:
            unknown = [r for r in tag if r not in spec.rules]
            if unknown:
                report(idx, "unknown-rule",
                       f"'// order:' tag cites '{unknown[0]}', which spec "
                       f"'{spec.name}' does not declare")
                return
            if any(r in justify for r in tag):
                return  # justified by a rule the spec allows for this op
            if justify:
                report(idx, "unknown-rule",
                       f"{where}: cited rule(s) {', '.join(tag)} do not "
                       f"justify this position -- allowed: "
                       f"{', '.join(justify)}")
                return
        if not ok:
            hint = (f" (justifiable via: {', '.join(justify)})" if justify
                    else " (no rule justifies weakening this -- it carries "
                         "the happens-before argument)")
            report(idx, "order-too-weak",
                   f"{where} is '{order}' but the protocol requires at "
                   f"least '{minimum}'{hint}")
        else:
            report(idx, "unjustified-relaxed",
                   f"{where} is relaxed without a '// order: <rule>' tag "
                   f"citing one of: {', '.join(justify) if justify else '(none -- relaxed is not allowed here)'}")

    def check_mc(self, rel, idx, name, entry, spec, mc_tag, report):
        if "hook_free" in entry:
            if mc_tag is not None:
                report(idx, "mc-mismatch",
                       f"'{name}' is spec'd hook-free "
                       f"({entry['hook_free']}) but carries a '// mc:' tag "
                       "-- drop the exemption or the tag")
            return
        want = set(entry["mc"])
        if self.valid_ops is not None:
            for op in sorted(want):
                if op not in self.valid_ops:
                    report(idx, "mc-mismatch",
                           f"spec '{spec.name}' names '{op}' for '{name}', "
                           "which is not a mc_hooks::SyncOp enumerator")
        if mc_tag is None:
            report(idx, "mc-mismatch",
                   f"'{name}' has no '// mc:' tag but spec '{spec.name}' "
                   f"requires hooks {', '.join(sorted(want))} -- the model "
                   "checker would not explore schedules around it")
        elif set(mc_tag) != want:
            report(idx, "mc-mismatch",
                   f"'{name}' mc tag ({', '.join(sorted(mc_tag))}) differs "
                   f"from spec '{spec.name}' "
                   f"({', '.join(sorted(want))})")

    def check_fences(self, rel, fence_lines, declared, report):
        actual = [order for _, order in fence_lines]
        if declared is None:
            if fence_lines:
                idx = fence_lines[0][0]
                report(idx, "fence-shape",
                       "atomic_thread_fence in a file no spec declares a "
                       "fence shape for -- fences are protocol structure "
                       "and must be spec'd")
            return
        for i in range(min(len(actual), len(declared))):
            if actual[i] != declared[i]:
                report(fence_lines[i][0], "fence-shape",
                       f"fence #{i + 1} is '{actual[i]}' but the spec "
                       f"declares '{declared[i]}'")
                return
        if len(actual) < len(declared):
            idx = fence_lines[-1][0] if fence_lines else 0
            report(idx, "fence-shape",
                   f"file has {len(actual)} atomic_thread_fence(s) but the "
                   f"spec declares {len(declared)} -- a fence was removed "
                   "or reordered out")
        elif len(actual) > len(declared):
            report(fence_lines[len(declared)][0], "fence-shape",
                   f"file has {len(actual)} atomic_thread_fence(s) but the "
                   f"spec declares {len(declared)} -- declare the new "
                   "fence's place in the protocol")

    # --- cross-file passes --------------------------------------------------

    def finish(self):
        for spec in self.specs:
            for field in spec.fields:
                if (spec.name, field) not in self.fields_seen:
                    self.diags.append(lint.Diagnostic(
                        spec.files[0], 1, "stale-spec",
                        f"spec '{spec.name}' field '{field}' has no access "
                        "sites in its files -- the spec no longer tracks "
                        "the code"))

    def counts(self):
        per_scope = {}
        for site in self.sites:
            top = "/".join(site.rel.split("/")[:2])
            per_scope[top] = per_scope.get(top, 0) + 1
        relaxed = sum(1 for s in self.sites
                      if "relaxed" in s.orders and not s.implicit)
        justified = sum(1 for s in self.sites
                        if "relaxed" in s.orders and s.tag)
        return {
            "sites": len(self.sites),
            "sites_per_scope": dict(sorted(per_scope.items())),
            "specs": len(self.specs),
            "spec_fields": sum(len(s.fields) for s in self.specs),
            "spec_rules": sum(len(s.rules) for s in self.specs),
            "relaxed_sites": relaxed,
            "justified_relaxed_sites": justified,
            "fences": sum(len(v) for v in self.fences.values()),
        }


def load_specs(specs_dir, root):
    if not os.path.isdir(specs_dir):
        print(f"atomics-audit: spec dir {specs_dir} not found",
              file=sys.stderr)
        sys.exit(2)
    specs = []
    for name in sorted(os.listdir(specs_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(specs_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as f:
                specs.append(Spec(path, json.load(f)))
        except (ValueError, KeyError) as err:
            print(f"atomics-audit: bad spec {path}: {err}", file=sys.stderr)
            sys.exit(2)
    if not specs:
        print(f"atomics-audit: no specs in {specs_dir}", file=sys.stderr)
        sys.exit(2)
    for spec in specs:
        for rel in spec.files:
            if not os.path.exists(os.path.join(root, rel)):
                print(f"atomics-audit: spec '{spec.name}' lists missing "
                      f"file {rel}", file=sys.stderr)
                sys.exit(2)
    return specs


def collect_scoped_files(root):
    files = []
    for scope in SCOPES:
        subdir = os.path.join(root, scope.rstrip("/"))
        if not os.path.isdir(subdir):
            continue
        for dirpath, _, names in os.walk(subdir):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def write_report(out_path, auditor, diags):
    report = {
        "counts": auditor.counts(),
        "specs": [{"name": s.name, "structure": s.structure,
                   "files": s.files, "fields": sorted(s.fields),
                   "rules": sorted(s.rules)} for s in auditor.specs],
        "sites": [s.as_json() for s in auditor.sites],
        "fences": auditor.fences,
        "diagnostics": [{"file": d.path, "line": d.line, "check": d.rule,
                         "message": d.message} for d in diags],
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


def run_tree(args):
    root = os.path.realpath(args.root)
    specs_dir = args.specs or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "protocols")
    specs = load_specs(specs_dir, root)
    valid_ops = lint.declared_sync_ops(root)
    auditor = Auditor(specs, valid_ops)
    for path in collect_scoped_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        auditor.audit_file(path, rel)
    auditor.finish()
    diags = list(auditor.diags)
    if args.build:
        diags.extend(lint.check_compile_commands(
            root, os.path.realpath(args.build)))
    counts = auditor.counts()
    for floor in args.min_sites or []:
        prefix, _, want = floor.partition("=")
        try:
            want = int(want)
        except ValueError:
            print(f"atomics-audit: bad --min-sites '{floor}' (want "
                  "PREFIX=N)", file=sys.stderr)
            sys.exit(2)
        have = sum(1 for s in auditor.sites if s.rel.startswith(prefix))
        if have < want:
            diags.append(lint.Diagnostic(
                prefix, 1, "stale-spec",
                f"site-count floor: {have} atomic sites extracted under "
                f"{prefix}, expected >= {want} -- extraction regressed "
                "(or sites moved; update the floor)"))
    if args.json:
        write_report(args.json, auditor, diags)
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.rule)):
        print(d)
    if diags:
        print(f"atomics-audit: {len(diags)} diagnostic(s)", file=sys.stderr)
        return 1
    print(f"atomics-audit: {counts['sites']} site(s) across "
          f"{counts['specs']} spec(s) clean "
          f"({counts['justified_relaxed_sites']}/{counts['relaxed_sites']} "
          "relaxed sites justified)", file=sys.stderr)
    return 0


def run_fixtures(args):
    fixtures = os.path.realpath(args.fixtures)
    if not os.path.isdir(fixtures):
        print(f"atomics-audit: fixture dir {fixtures} not found",
              file=sys.stderr)
        sys.exit(2)
    specs = load_specs(os.path.join(fixtures, "protocols"), fixtures)
    auditor = Auditor(specs, valid_ops=None)  # fixtures declare fake ops
    expected = set()
    checked = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith((".h", ".cc")):
            continue
        checked += 1
        path = os.path.join(fixtures, name)
        raw, _ = lint.load_stripped(path)
        for bind, check in audit_directives(raw).expects:
            expected.add((name, bind + 1, check))
        auditor.audit_file(path, name)
    auditor.finish()
    actual = {(d.path, d.line, d.rule) for d in auditor.diags}
    failures = []
    for name, line, check in sorted(expected - actual):
        failures.append(
            f"{name}:{line}: expected [{check}] diagnostic was NOT "
            "produced -- the pass stopped firing")
    for name, line, check in sorted(actual - expected):
        msg = next(d.message for d in auditor.diags
                   if (d.path, d.line, d.rule) == (name, line, check))
        failures.append(
            f"{name}:{line}: unexpected [{check}] diagnostic: {msg}")
    for failure in failures:
        print(failure)
    if failures:
        print(f"atomics-audit: fixture mismatch ({len(failures)})",
              file=sys.stderr)
        return 1
    if checked == 0:
        print("atomics-audit: no fixture files found", file=sys.stderr)
        return 2
    print(f"atomics-audit: {checked} fixture(s) verified "
          f"({len(expected)} seeded diagnostics)", file=sys.stderr)
    return 0


def main():
    default_root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parser = argparse.ArgumentParser(
        prog="atomics-audit",
        description="prove atomic memory orders against protocol specs")
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: two dirs up)")
    parser.add_argument("--build", default=None,
                        help="build dir; verifies scoped TUs appear in its "
                             "compile_commands.json (shared with the lint)")
    parser.add_argument("--specs", default=None,
                        help="protocol spec dir (default: "
                             "tools/analysis/protocols)")
    parser.add_argument("--json", default=None,
                        help="write the site/coverage report here")
    parser.add_argument("--min-sites", action="append", default=[],
                        metavar="PREFIX=N",
                        help="fail unless >= N sites extracted under PREFIX "
                             "(repeatable; pins extraction coverage)")
    parser.add_argument("--fixtures", default=None,
                        help="audit a seeded-violation fixture dir against "
                             "DIR/protocols and match expect-atomics "
                             "annotations exactly")
    args = parser.parse_args()
    if args.fixtures:
        sys.exit(run_fixtures(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
