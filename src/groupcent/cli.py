"""Command-line front end: analyze one group, run the check suite, search,
and export Cayley files.

Exit codes: 0 success, 1 check failures, 2 usage errors, 3 input errors
(and checks that raised).
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import checks
from .analytics import (
    central_partition,
    cent_count,
    conjugate_type,
    is_CA_group,
    is_F_group,
    is_I_group,
    is_extraspecial,
    is_semi_extraspecial,
    is_ultraspecial,
)
from .checks import CatalogEntry, CheckSettings, SearchQuery
from .core import FiniteGroup, _center_elements, is_abelian, is_cyclic, is_nilpotent, is_perfect
from .errors import GroupTheoryError, SpecParseError
from .specs import build_group, load_cayley, load_permutations, parse_spec, save_cayley

__all__ = [
    "Report",
    "build_analysis",
    "parse_spec",
    "build_group",
    "load_cayley",
    "load_permutations",
    "save_cayley",
    "main",
    "entrypoint",
]

USAGE_ERROR = 2
INPUT_ERROR = 3

# (n-1)! has at most 4300 digits, the default limit of int-to-str
# conversion, up to n = 1559. Above it the analysis body writes the bound as
# the string "<n-1>!", so every order still serializes.
_EXACT_FACTORIAL_MAX_N = 1559


@dataclass
class Report:
    """A rendered report: text for humans, JSON that round-trips."""

    kind: str  # "analysis" | "suite" | "search"
    format: str  # "text" | "json"
    body: dict

    def render(self) -> str:
        if self.format == "json":
            try:
                return _json(self.body, "") + "\n"
            except RecursionError:
                # json.dumps refuses a circular body with its own error
                return json.dumps(self.body, indent=2) + "\n"
        return _TEXT_RENDERERS[self.kind](self.body)


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, indent: str) -> str:
    """``json.dumps(value, indent=2)``, with its later lines prefixed by
    indent, in one pass of string joins: the stdlib encoder writes indented
    JSON through its pure-Python generators.

    Only str, int, bool, None, lists and str-keyed dicts of exactly those
    types are written here; any other value, subclasses included, goes to
    json.dumps itself, which writes it or raises as it would in place. Its
    newlines all lie between tokens (ensure_ascii escapes those in strings),
    so prefixing each one re-indents it."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and value:
        inner = indent + "  "
        try:
            items = [_encode_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        except TypeError:
            # a key that is not a str, which json.dumps converts or refuses,
            # or a value below that it refuses, raising here as it would
            return _dumped(value, indent)
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return _dumped(value, indent)


def _dumped(value, indent: str) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def build_analysis(G: FiniteGroup, settings: CheckSettings | None = None) -> dict:
    """The full single-group analysis body, with fixed key order."""
    abelian = is_abelian(G)
    body: dict = {
        "group": G.name,
        "order": G.order,
        "center_order": _center_elements(G).size,
        "cent_count": None if abelian else cent_count(G),
        "conjugate_type": None,
        # a non-abelian group is not cyclic; an abelian one is nilpotent and,
        # its center being all of it, none of the three p-group kinds below
        "flags": {
            "abelian": abelian,
            "cyclic": abelian and is_cyclic(G),
            "nilpotent": is_nilpotent(G),
            "perfect": is_perfect(G),
            "f_group": None if abelian else is_F_group(G),
            "ca_group": None if abelian else is_CA_group(G),
            "i_group": None if abelian else is_I_group(G),
            "extraspecial": is_extraspecial(G),
            "semi_extraspecial": is_semi_extraspecial(G),
            "ultraspecial": is_ultraspecial(G),
        },
        "partition": None,
        "bounds": None,
    }
    if not abelian:
        ct = conjugate_type(G)
        body["conjugate_type"] = {"uniform": ct.is_uniform, "m": ct.m, "p": ct.p, "k": ct.k}
        part = central_partition(G)
        body["partition"] = {
            "is_partition": part.is_partition,
            "is_normal": part.is_normal,
            "component_sizes": sorted(len(c) for c in part.components),
            "witness": dict(part.witness) if part.witness else None,
        }
        rep = checks._bound_report(G)
        body["bounds"] = {
            "n": rep.n,
            "quotient_order": rep.q_order,
            "bound_f": rep.bound_f,
            "bound_general": rep.bound_general,
            "factorial_bound": (
                rep.factorial_bound if rep.n <= _EXACT_FACTORIAL_MAX_N else f"{rep.n - 1}!"
            ),
            "satisfied": dict(rep.satisfied),
        }
    body["checks"] = [r.as_dict() for r in checks._check_rows(G, settings)]
    return body


def _render_analysis_text(body: dict) -> str:
    lines = [
        f"group:        {body['group']}",
        f"order:        {body['order']}",
        f"center order: {body['center_order']}",
        f"cent count:   {body['cent_count']}",
    ]
    ct = body["conjugate_type"]
    if ct is None:
        lines.append("conj type:    (abelian)")
    elif ct["uniform"]:
        lines.append(f"conj type:    ({ct['m']}, 1)")
    else:
        lines.append("conj type:    not uniform")
    flags = ", ".join(k for k, v in body["flags"].items() if v is True)
    lines.append(f"flags:        {flags or '(none)'}")
    if body["partition"] is not None:
        p = body["partition"]
        lines.append(
            f"partition:    partition={p['is_partition']} normal={p['is_normal']} "
            f"sizes={p['component_sizes']}"
        )
    if body["bounds"] is not None:
        b = body["bounds"]
        lines.append(
            f"bounds:       |G/Z|={b['quotient_order']} (n-2)^2={b['bound_f']} "
            f"general={b['bound_general']} satisfied={b['satisfied']}"
        )
    lines.append("checks:")
    for c in body["checks"]:
        note = ""
        if c["status"] in ("skip", "error"):
            note = f"  ({c['details'].get('reason', '')})"
        elif c["status"] == "fail":
            note = f"  {c['details']}"
        lines.append(f"  {c['status']:<13} {c['check']}{note}")
    return "\n".join(lines) + "\n"


def _render_suite_text(body: dict) -> str:
    lines = []
    for r in body["results"]:
        note = ""
        if r["status"] == "fail":
            note = f"  :: {json.dumps(r['details'], sort_keys=True)}"
        elif r["status"] == "error":
            note = f"  :: {r['details'].get('reason', '')}"
        lines.append(f"{r['status']:<13} {r['check']:<10} {r['group']}{note}")
    s = body["summary"]
    lines.append(
        f"summary: total={s['total']} pass={s['pass']} fail={s['fail']} "
        f"skip={s['skip']} indeterminate={s['indeterminate']} error={s['error']}"
    )
    return "\n".join(lines) + "\n"


def _render_search_text(body: dict) -> str:
    lines = []
    for h in body["matches"]:
        tag = h["family"] if h["family"] else "OUTSIDE-KNOWN-FAMILIES"
        lines.append(
            f"{h['group']:<14} order={h['order']:<5} |Z|={h['center_order']:<4} "
            f"cent={h['cent_count']:<4} F={str(h['f_group']):<5} CA={str(h['ca_group']):<5} {tag}"
        )
    lines.append(f"matches: {len(body['matches'])}")
    return "\n".join(lines) + "\n"


_TEXT_RENDERERS = {
    "analysis": _render_analysis_text,
    "suite": _render_suite_text,
    "search": _render_search_text,
}


def _load_catalog_file(path: str) -> list[CatalogEntry]:
    """A catalog file is a JSON list of {name, spec, expected?} objects: name
    and spec are strings, expected an object or null."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise SpecParseError("catalog file must contain a JSON list")
    entries = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "name" not in item or "spec" not in item:
            raise SpecParseError(f"catalog entry {i} needs 'name' and 'spec' fields")
        if not isinstance(item["name"], str) or not isinstance(item["spec"], str):
            raise SpecParseError(f"catalog entry {i}: 'name' and 'spec' must be strings")
        if not isinstance(item.get("expected"), (dict, type(None))):
            raise SpecParseError(f"catalog entry {i}: 'expected' must be an object or null")
        entries.append(CatalogEntry(item["name"], item["spec"], item.get("expected")))
    return entries


def cmd_analyze(args) -> int:
    G = build_group(args.spec)
    settings = CheckSettings(seed=args.seed)
    body = build_analysis(G, settings)
    sys.stdout.write(Report("analysis", args.format, body).render())
    return INPUT_ERROR if any(c["status"] == checks.ERROR for c in body["checks"]) else 0


def cmd_verify(args) -> int:
    catalog = None if args.catalog == "default" else _load_catalog_file(args.catalog)
    settings = CheckSettings(seed=args.seed)
    suite = checks.run_suite(catalog, jobs=args.jobs, settings=settings)
    body = {
        "results": [r.as_dict() for r in suite.results],
        "summary": dict(suite.summary),
    }
    report = Report("suite", args.format, body)
    sys.stdout.write(report.render())
    if suite.summary["fail"]:
        return 1
    if suite.summary["error"]:
        return INPUT_ERROR
    return 0


def cmd_search(args) -> int:
    restrict = {"f-group": "f", "ca-group": "ca", None: None}[args.restrict]
    query = SearchQuery(args.predicate, max_order=args.max_order, restrict=restrict)
    hits = checks.search(query)
    body = {
        "query": {
            "predicate": args.predicate,
            "max_order": args.max_order,
            "restrict": args.restrict,
        },
        "matches": [h.as_dict() for h in hits],
    }
    report = Report("search", args.format, body)
    sys.stdout.write(report.render())
    return 0


def cmd_export(args) -> int:
    G = build_group(args.spec)
    save_cayley(G, args.path)
    sys.stderr.write(f"wrote {G.name} (order {G.order}) to {args.path}\n")
    return 0


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: its choices,
    defaults and handlers are all fixed at import."""
    parser = argparse.ArgumentParser(
        prog="groupcent",
        description="Centralizer structure of finite groups, with a built-in check suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=lambda v: int(v, 0), default=checks.DEFAULT_SEED,
                       help="sampling seed for large-group pair checks")

    p = sub.add_parser("analyze", help="full report for one group")
    p.add_argument("spec", help="e.g. builtin:dihedral:14 or cayley:path or a*b product")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run the check suite over a catalog")
    p.add_argument("--catalog", default="default", help="'default' or a JSON catalog file")
    p.add_argument("--jobs", type=_jobs, default=1, help="worker threads for the suite, at least 1")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="query the catalog for centralizer-count predicates")
    p.add_argument("predicate", choices=sorted(checks._NAMED_PREDICATES))
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--restrict", choices=("f-group", "ca-group"), default=None)
    common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("export", help="write a builtin group as a Cayley file")
    p.add_argument("spec")
    p.add_argument("path")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except (GroupTheoryError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
