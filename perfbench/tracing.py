"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps magilab's public functions from outside: ``instrument``
replaces each target under every name magilab's modules bind it to (so
``analysis.feasible_b_set`` and ``cli.classify`` are wrapped along with
``search.feasible_b_set`` and ``labelings.classify``), and puts the
originals back on exit.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import magilab
from magilab import analysis, cli, constructions, graphs, labelings, search

MODULES = (magilab, graphs, labelings, constructions, search, analysis, cli)


def _suite_rows(rows, *args, **kwargs):
    return len(rows), sum(r.verdict != analysis.PASS for r in rows)


def _offsets(feasible, graph, *args, **kwargs):
    return graph.vertex_count + 1, len(feasible)


def _solutions(report, *args, **kwargs):
    return report.solution_count


# (span name, module or class that defines the targets, attribute names, result describer)
TARGETS = [
    ("graphs.build", graphs, ("build_caterpillar", "build_double_star", "build_lobster",
                              "build_cycle", "build_path", "build_star",
                              "build_complete_bipartite"), None),
    ("graphs.json", graphs, ("graph_from_dict",), None),
    ("graphs.json", graphs.Graph, ("to_dict", "from_dict"), None),
    ("graphs.json", graphs.FamilyHandle, ("to_dict",), None),
    ("labelings.classify", labelings, ("classify",), None),
    ("labelings.checks", labelings, ("is_graceful", "neighbor_block_holds"), None),
    ("constructions.closed_form", constructions, ("caterpillar_beta_labeling",
                                                  "caterpillar_super_labeling",
                                                  "double_star_consecutive"), None),
    ("constructions.transform", constructions, ("dual", "lambda_star", "to_graceful",
                                                "to_super_edge_magic"), None),
    ("search.feasible_b_set", search, ("feasible_b_set",), _offsets),
    ("search.find_consecutive", search, ("find_consecutive",), _solutions),
    ("search.find_edge_magic", search, ("find_edge_magic",), _solutions),
    ("search.count_canonical", search, ("count_canonical",), None),
    ("search.compute_automorphisms", search, ("compute_automorphisms",), None),
    ("search.find_graceful", search, ("find_graceful",), None),
    ("analysis.suite", analysis, ("caterpillar_suite", "lobster_suite",
                                  "closing_claims_suite", "double_star_suite"), _suite_rows),
    ("cli.main", cli, ("main",), None),
]

# per-layer metric -> unit; a traced run reports every one of them
LAYER_METRICS = {
    "search.feasible_b_set.calls": "count",
    "search.feasible_b_set.self_s": "s",
    "search.feasible_b_set.offsets": "count",
    "search.feasible_b_set.feasible_frac": "frac",
    "search.find_consecutive.calls": "count",
    "search.find_consecutive.self_s": "s",
    "search.find_consecutive.feasible_s": "s",
    "search.find_consecutive.infeasible_s": "s",
    "search.find_consecutive.solutions": "count",
    "search.find_edge_magic.self_s": "s",
    "search.find_edge_magic.solutions": "count",
    "search.count_canonical.self_s": "s",
    "search.compute_automorphisms.calls": "count",
    "search.compute_automorphisms.self_s": "s",
    "search.find_graceful.self_s": "s",
    "analysis.suite.self_s": "s",
    "analysis.rows": "count",
    "analysis.rows_not_pass": "count",
    "constructions.closed_form.calls": "count",
    "constructions.closed_form.self_s": "s",
    "constructions.transform.calls": "count",
    "constructions.transform.self_s": "s",
    "constructions.refused": "count",
    "labelings.classify.calls": "count",
    "labelings.classify.self_s": "s",
    "labelings.checks.self_s": "s",
    "graphs.build.calls": "count",
    "graphs.build.self_s": "s",
    "graphs.json.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "host.speed": "ratio",
    "trace.overhead_frac": "frac",
}
# computed by run.py from pass timings, not from spans
RUN_METRICS = ("host.speed", "trace.overhead_frac")


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "info", "error")

    def __init__(self, name, start, end, parent, pass_id, info=None, error=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.pass_id, self.info, self.error = parent, pass_id, info, error

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.pass_id, self.info, self.error]


class Recorder:
    """In-memory span log; a span's parent is the index of the span open when it began."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.pass_id)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if describe is not None:
                span.info = describe(result, *args, **kwargs)
            return result
        return traced


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap every target under each name magilab binds it to; restore on exit."""
    patched = []
    try:
        for name, owner, attrs, describe in TARGETS:
            for attr in attrs:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__, describe)))
                    continue
                wrapper = recorder.wrap(name, raw, describe)
                holders = [owner] if isinstance(owner, type) else MODULES
                for holder in holders:
                    if vars(holder).get(attr) is raw:
                        patched.append((holder, attr, raw))
                        setattr(holder, attr, wrapper)
        yield recorder
    finally:
        for holder, attr, raw in reversed(patched):
            setattr(holder, attr, raw)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list) -> dict[int, dict]:
    """Per-layer metrics (all but RUN_METRICS) of each traced pass, by pass id."""
    raw = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, self_times(spans)):
        m, layer = raw[span.pass_id], span.name
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
        if span.info is None:
            if layer == "constructions.transform" and span.error == "ConstructionError":
                m["constructions.refused"] += 1
        elif layer == "search.feasible_b_set":
            m["search.feasible_b_set.offsets"] += span.info[0]
            m["feasible_offsets"] += span.info[1]
        elif layer == "search.find_consecutive":
            m[f"{layer}.solutions"] += span.info
            m[f"{layer}.{'feasible_s' if span.info else 'infeasible_s'}"] += self_s
        elif layer == "search.find_edge_magic":
            m[f"{layer}.solutions"] += span.info
        elif layer == "analysis.suite":
            m["analysis.rows"] += span.info[0]
            m["analysis.rows_not_pass"] += span.info[1]
    out = {}
    for pass_id, m in raw.items():
        offsets = m["search.feasible_b_set.offsets"]
        m["search.feasible_b_set.feasible_frac"] = m["feasible_offsets"] / offsets if offsets else 0.0
        out[pass_id] = {name: int(m[name]) if unit == "count" else m[name]
                        for name, unit in LAYER_METRICS.items() if name not in RUN_METRICS}
    return out
