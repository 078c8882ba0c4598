"""Command-line front end: generate, construct, transform, verify, search, suites.

Machine output is JSON on stdout; ``--format dot`` renders graphs (with
labels when available) for graphviz; suites default to a table.  Exit
status: 0 on success/pass, 1 on verification failure, failed theorem
report, or budget refusal, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional

from . import analysis, constructions, search
from .graphs import (CaterpillarSpec, FamilyHandle, Graph, GraphError, graph_from_dict,
                     graph_of, build_caterpillar, build_complete_bipartite, build_cycle,
                     build_double_star, build_lobster, build_path, build_star)
from .labelings import LabelingError, TotalLabeling, classify, is_graceful

_BUDGET_ENV = "MAGILAB_BUDGET"


class CliError(Exception):
    """Bad input surfaced with a message and exit code 2."""


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """The integer ``text`` spells: an optional sign and ASCII digits only.

    ``int()`` also takes ``1_0``, surrounding whitespace and non-ASCII
    digits such as ``٣``; those raise ValueError here, so no input is
    silently read as a number it does not spell.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its refusal: "invalid int value"


class _DuplicateKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key: ``json`` would
    keep its last value without a word."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(f"duplicate key {key!r}")
            seen.add(key)
    return record


def _env_budget(explicit: Optional[int]) -> Optional[int]:
    if explicit is not None:
        if explicit < 1:
            raise CliError(f"--budget must be at least 1, got {explicit}")
        return explicit
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return None
    try:
        budget = _int(raw)
    except ValueError:
        raise CliError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")
    if budget < 1:
        raise CliError(f"{_BUDGET_ENV} must be at least 1, got {raw!r}")
    return budget


def _parse_spine(text: str) -> CaterpillarSpec:
    try:
        counts = tuple(map(_int, text.split(",")))
    except ValueError:
        raise CliError(f"malformed spine spec {text!r}; expected comma-separated integers")
    return CaterpillarSpec(len(counts), counts)


def _read_json(path: str) -> object:
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}")


def _write(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}")
    else:
        print(text)


def to_dot(graph: Graph, labeling: Optional[TotalLabeling] = None,
           name_map: Optional[dict] = None) -> str:
    """Graphviz rendering with labeling values as node/edge labels."""
    names = {}
    if name_map:
        names = {v: name for name, v in name_map.items()}
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        if labeling is not None:
            label = str(labeling.vertex_labels[v])
        else:
            label = names.get(v, str(v))
        lines.append(f'  {v} [label="{label}"];')
    for i, (u, v) in enumerate(graph.edges):
        if labeling is not None:
            lines.append(f'  {u} -- {v} [label="{labeling.edge_labels[i]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def _bundle(handle_or_graph, labeling: TotalLabeling) -> dict:
    graph = graph_of(handle_or_graph)
    record = (handle_or_graph.to_dict() if isinstance(handle_or_graph, FamilyHandle)
              else graph.to_dict())
    return {
        "graph": record,
        "labeling": labeling.to_dict(),
        "classification": classify(graph, labeling).to_dict(),
    }


def _load_bundle(data: object) -> tuple[Graph, TotalLabeling]:
    if not isinstance(data, dict) or "graph" not in data or "labeling" not in data:
        raise CliError("expected a bundle object with 'graph' and 'labeling' keys")
    graph = graph_of(graph_from_dict(data["graph"]))
    labeling = TotalLabeling.from_dict(data["labeling"])
    return graph, labeling


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    handle = args.build(args)
    if args.format == "dot":
        _write(to_dot(handle.graph, name_map=handle.name_map), args.out)
    else:
        _write(json.dumps(handle.to_dict(), indent=2), args.out)
    return 0


def _cmd_construct(args) -> int:
    handle, labeling = args.build(args)
    if args.format == "dot":
        _write(to_dot(handle.graph, labeling), args.out)
    else:
        _write(json.dumps(_bundle(handle, labeling), indent=2), args.out)
    return 0


# transform choice -> name of its function in ``constructions``, looked up per call
_TRANSFORMS = {"dual": "dual", "lambda-star": "lambda_star", "graceful": "to_graceful",
               "super": "to_super_edge_magic"}


def _cmd_transform(args) -> int:
    graceful = args.transform == "graceful"
    if graceful and args.format == "dot":
        raise CliError("transform graceful writes JSON only, not dot")
    graph, labeling = _load_bundle(_read_json(args.bundle))
    try:
        out_lab = getattr(constructions, _TRANSFORMS[args.transform])(graph, labeling)
    except (constructions.ConstructionError, LabelingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if graceful:
        payload = {"graph": graph.to_dict(), "graceful": out_lab.to_dict(),
                   "is_graceful": is_graceful(graph, out_lab)}
        _write(json.dumps(payload, indent=2), args.out)
    elif args.format == "dot":
        _write(to_dot(graph, out_lab), args.out)
    else:
        _write(json.dumps(_bundle(graph, out_lab), indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.labeling is None:
        graph, labeling = _load_bundle(_read_json(args.graph))
    else:
        graph = graph_of(graph_from_dict(_read_json(args.graph)))
        labeling = TotalLabeling.from_dict(_read_json(args.labeling))
    try:
        result = classify(graph, labeling)
    except LabelingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(json.dumps(result.to_dict(), indent=2), args.out)
    return 0 if result.magic_constant is not None else 1


def _cmd_search(args) -> int:
    graph = graph_of(graph_from_dict(_read_json(args.graph)))
    budget = _env_budget(args.budget)
    try:
        if args.b == "all":
            given = [flag for flag, value in (("--k", args.k), ("--limit", args.limit))
                     if value is not None]
            if args.canonical:
                given.append("--canonical")
            if given:
                raise CliError(f"{', '.join(given)} cannot be used with --b all")
            feasible = search.feasible_b_set(graph, budget=budget)
            _write(json.dumps({"feasible_b": sorted(feasible), "exhausted": True}),
                   args.out)
            return 0
        b = None
        if args.b is not None:
            try:
                b = _int(args.b)
            except ValueError:
                raise CliError(f"--b expects an integer or 'all', got {args.b!r}")
        query = search.SearchQuery(graph, b=b, magic_constant=args.k, limit=args.limit,
                                   canonical_only=args.canonical)
        find = search.find_edge_magic if b is None else search.find_consecutive
        report = find(query, budget=budget)
    except search.BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 1
    _write(json.dumps(report.to_dict()), args.out)
    return 0


def _cmd_analyze(args) -> int:
    witness = analysis.constant_form_check(args.m, args.n, args.k)
    _write(json.dumps(witness.to_dict()), args.out)
    return 0 if witness.t is not None else 1


# suite choice -> name of its function in ``analysis``, looked up per call
_SUITES = {"closing": "closing_claims_suite", "caterpillar": "caterpillar_suite",
           "lobster": "lobster_suite", "double-star": "double_star_suite"}


def _cmd_suite(args) -> int:
    budget = _env_budget(args.budget)
    cap = {"max_labels": args.max_labels} if args.suite == "caterpillar" else {}
    try:
        reports = getattr(analysis, _SUITES[args.suite])(budget=budget, **cap)
    except analysis.SuiteLimitError as exc:  # reworded to name the flag
        raise CliError(str(exc).replace("max_labels", "--max-labels"))
    if args.format == "json":
        _write(json.dumps([r.to_dict() for r in reports], indent=2), args.out)
    else:
        _write(analysis.format_report_table(reports), args.out)
    refused = sum(r.verdict == analysis.OUT_OF_BUDGET for r in reports)
    if refused:
        print(f"warning: {refused} of {len(reports)} rows refused by the label budget; "
              f"--budget raises the limit", file=sys.stderr)
    failed = [r for r in reports if r.verdict == analysis.FAIL]
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="magilab",
        description="Consecutive edge-magic labelings: generate, construct, "
                    "transform, verify, search, and run theorem suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=("json", "dot"), **defaults):
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
        p.set_defaults(**defaults)

    # Each family and construction binds its builder here.  A builder names
    # library functions through this module's globals or a module attribute,
    # so every call looks them up afresh: a wrapper installed after the parser
    # is built still sees the call.
    p = sub.add_parser("gen", help="generate a named family graph")
    gensub = p.add_subparsers(dest="family", required=True)
    g = gensub.add_parser("caterpillar")
    g.add_argument("--spine", required=True, help="comma-separated leaf counts, e.g. 2,1,2")
    add_common(g, build=lambda a: build_caterpillar(_parse_spine(a.spine)))
    g = gensub.add_parser("double-star")
    g.add_argument("m", type=_int)
    g.add_argument("n", type=_int)
    add_common(g, build=lambda a: build_double_star(a.m, a.n))
    g = gensub.add_parser("lobster")
    g.add_argument("-p", type=_int, required=True, help="number of legs")
    add_common(g, build=lambda a: build_lobster(a.p))
    g = gensub.add_parser("cycle")
    g.add_argument("-l", "--length", type=_int, required=True)
    add_common(g, build=lambda a: build_cycle(a.length))
    g = gensub.add_parser("path")
    g.add_argument("-n", type=_int, required=True, help="number of vertices")
    add_common(g, build=lambda a: build_path(a.n))
    g = gensub.add_parser("star")
    g.add_argument("-p", type=_int, required=True, help="number of leaves")
    add_common(g, build=lambda a: build_star(a.p))
    g = gensub.add_parser("kmn")
    g.add_argument("m", type=_int)
    g.add_argument("n", type=_int)
    add_common(g, build=lambda a: build_complete_bipartite(a.m, a.n))
    p.set_defaults(func=_cmd_gen)

    def caterpillar_construct(closed_form):
        def build(args):
            spec = _parse_spine(args.spine)
            return build_caterpillar(spec), getattr(constructions, closed_form)(spec)
        return build

    p = sub.add_parser("construct", help="build an explicit labeling")
    consub = p.add_subparsers(dest="construction", required=True)
    c = consub.add_parser("caterpillar-beta")
    c.add_argument("--spine", required=True)
    add_common(c, build=caterpillar_construct("caterpillar_beta_labeling"))
    c = consub.add_parser("caterpillar-super")
    c.add_argument("--spine", required=True)
    add_common(c, build=caterpillar_construct("caterpillar_super_labeling"))
    c = consub.add_parser("double-star")
    c.add_argument("m", type=_int)
    c.add_argument("n", type=_int)
    c.add_argument("--variant", type=_int, choices=(1, 2), default=1)
    add_common(c, build=lambda a: (build_double_star(a.m, a.n),
                                   constructions.double_star_consecutive(a.m, a.n, a.variant)))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("transform", help="apply a labeling transform to a bundle")
    p.add_argument("transform", choices=tuple(_TRANSFORMS))
    p.add_argument("bundle", nargs="?", default="-",
                   help="bundle file with graph+labeling ('-' for stdin)")
    add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="classify a labeling against a graph")
    p.add_argument("graph", help="graph JSON, or a bundle / '-' for bundle on stdin")
    p.add_argument("labeling", nargs="?", default=None, help="labeling JSON file")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive labeling search")
    p.add_argument("--graph", required=True, help="graph JSON file ('-' for stdin)")
    p.add_argument("--b", default=None,
                   help="block offset, or 'all' for the feasible set; omit for edge-magic")
    p.add_argument("--k", type=_int, default=None, help="restrict to one magic constant")
    p.add_argument("--limit", type=_int, default=None)
    p.add_argument("--canonical", action="store_true",
                   help="break label symmetry between twin vertices")
    p.add_argument("--budget", type=_int, default=None,
                   help=f"label-count budget (default {search.DEFAULT_BUDGET}, "
                        f"env {_BUDGET_ENV})")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("analyze", help="constant-form analysis")
    ansub = p.add_subparsers(dest="analysis", required=True)
    a = ansub.add_parser("constant-form")
    a.add_argument("m", type=_int)
    a.add_argument("n", type=_int)
    a.add_argument("k", type=_int)
    a.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("suite", help="run a theorem verification suite")
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--max-labels", type=_int, default=19,
                   help="caterpillar suite size cap on |V|+|E|")
    p.add_argument("--budget", type=_int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphError, LabelingError, search.SearchError,
            constructions.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
