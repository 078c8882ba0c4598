"""Theorem-level predictions compared against exhaustive search.

Every suite here produces :class:`TheoremReport` rows whose verdicts come
from the search oracle, never from the predictions themselves: a mismatch
between the predicted feasible set and the exhausted search result fails
loudly.  Out-of-budget items are reported as such instead of being silently
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graphs import (CaterpillarSpec, Graph, GraphError, _bfs, _double_star_sizes,
                     _require_int, bipartition_of, build_caterpillar, build_complete_bipartite,
                     build_cycle, build_double_star, build_lobster)
from .search import (BudgetExceeded, SearchError, SearchQuery, feasible_b_set,
                     find_consecutive, find_edge_magic, find_graceful)

PASS = "pass"
FAIL = "fail"
OUT_OF_BUDGET = "out-of-budget"


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    graph_description: str
    predicted: object
    observed: object
    verdict: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "graph": self.graph_description,
            "predicted": _jsonable(self.predicted),
            "observed": _jsonable(self.observed),
            "verdict": self.verdict,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ConstantFormWitness:
    """Expression of a candidate magic constant as d*t + 6 with d = gcd(m, n)."""

    m: int
    n: int
    d: int
    k: int
    t: Optional[int]

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "d": self.d, "k": self.k, "t": self.t}


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):  # the double-star rows hold (orbits, constants)
        return [_jsonable(v) for v in value]
    return value


def _verdict(predicted, observed) -> str:
    return PASS if predicted == observed else FAIL


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def _sides(graph: Graph, message: str):
    """``bipartition_of(graph)``, with a disconnected graph refused as a
    :class:`SearchError` carrying ``message``."""
    try:
        return bipartition_of(graph)
    except GraphError:  # disconnected
        raise SearchError(message) from None


def predicted_b_candidates(graph: Graph) -> set[int]:
    """Admissible block offsets: four side-derived values when bipartite,
    only the two extremes otherwise."""
    n = graph.vertex_count
    bipartition = _sides(graph, "predicted_b_candidates requires a connected graph")
    if bipartition is None:
        return {0, n}
    x, y = bipartition.sizes
    return {0, x, y, n}


def caterpillar_b_set(spec: CaterpillarSpec) -> set[int]:
    """Exact feasible offsets for a caterpillar: {0, beta, alpha, alpha+beta}."""
    return {0, spec.beta, spec.alpha, spec.alpha + spec.beta}


def lobster_b_set(p: int) -> set[int]:
    """Feasible offsets for the two-level spider with p legs.

    From three legs up only the extremes survive; the one- and two-leg
    spiders are paths, where all four side values are feasible.  ``p``
    must be exactly an int, as in ``build_lobster``: ``True`` and ``2.0``
    raise :class:`GraphError`.
    """
    _require_int("lobster parameter", "p", p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if p >= 3:
        return {0, 2 * p + 1}
    return {0, p, p + 1, 2 * p + 1}


def constant_form_check(m: int, n: int, k: int) -> ConstantFormWitness:
    """Try to write k as gcd(m,n)*t + 6 with t >= 0.

    The double star S_{m,n} exists only for ints m, n >= 1; other sizes,
    ``True`` and ``1.5`` included, raise :class:`GraphError`, and so does a
    k that is not exactly an int.
    """
    _double_star_sizes(m, n)
    _require_int("magic constant", "k", k)
    d = math.gcd(m, n)
    t = None
    if k >= 6 and (k - 6) % d == 0:
        t = (k - 6) // d
    return ConstantFormWitness(m, n, d, k, t)


# ---------------------------------------------------------------------------
# verdict machinery
# ---------------------------------------------------------------------------

def classify_trichotomy(graph: Graph, feasible: set[int],
                        description: str = "") -> TheoremReport:
    """Assign a connected bipartite graph to one of the three possible shapes.

    (i) no consecutive magic labeling at all; (ii) only the extreme offsets
    0 and |V|; (iii) a tree realizing all four side values.  The verdict
    fails when the observed set matches none of them.  ``feasible`` comes
    from an exhausted search; a search refused by the label budget is
    reported by :func:`_row`, not here.
    """
    bipartition = _sides(graph, "trichotomy applies to connected graphs")
    if bipartition is None:
        raise SearchError("trichotomy applies to bipartite graphs")
    desc = description or f"bipartite graph on {graph.vertex_count} vertices"
    n = graph.vertex_count
    x, y = bipartition.sizes
    is_tree = graph.edge_count == n - 1
    if feasible == set():
        case = "case (i): none"
    elif feasible == {0, n}:
        case = "case (ii): extremes only"
    elif is_tree and feasible == {0, x, y, n}:
        case = "case (iii): tree with all four"
    else:
        case = "no case"
    verdict = FAIL if case == "no case" else PASS
    return TheoremReport("bipartite-trichotomy", desc, "one of cases (i)-(iii)", case,
                         verdict, detail=f"feasible={sorted(feasible)}")


def _row(theorem: str, desc: str, predicted, check) -> TheoremReport:
    """One report row from ``check()``, which returns (observed, verdict, detail).

    ``check`` runs at once, so it may read its caller's loop variables.  A
    search inside it refused by the label budget makes the row "not run"
    with verdict out-of-budget, carrying the refusal message.
    """
    try:
        observed, verdict, detail = check()
    except BudgetExceeded as exc:
        return TheoremReport(theorem, desc, predicted, "not run", OUT_OF_BUDGET, str(exc))
    return TheoremReport(theorem, desc, predicted, observed, verdict, detail)


def _feasible_report(theorem: str, desc: str, graph: Graph, predicted: set[int],
                     budget: Optional[int]) -> TheoremReport:
    """Row grading the searched feasible offsets against ``predicted``."""
    def check():
        observed = feasible_b_set(graph, budget=budget)
        return observed, _verdict(predicted, observed), ""
    return _row(theorem, desc, predicted, check)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def closing_claims_suite(budget: Optional[int] = None) -> list[TheoremReport]:
    """Desk-scale check of the closing claims about cycles and K_{m,n}.

    Odd cycles must realize exactly {0, length}.  The even-cycle existence
    claim is contested: the dual argument says an offset-0 labeling exists
    iff an offset-|V| one does, and even cycles admit no super labeling.
    The suite therefore records the searched answer and passes on internal
    consistency of that equivalence rather than on either reading.  Those
    rows search b = 0 and b = |V| themselves: ``feasible_b_set`` answers
    the offsets above |V|/2 by that very equivalence, so reading its set
    would grade the equivalence against itself.
    """
    reports: list[TheoremReport] = []
    for length in (3, 5, 7):
        g = build_cycle(length).graph
        reports.append(_feasible_report("odd-cycle", f"C_{length}", g,
                                        {0, length}, budget))
    for length in (4, 6):
        def even_check():
            graph = build_cycle(length).graph
            observed = feasible_b_set(graph, budget=budget)
            ends = [find_consecutive(SearchQuery(graph, b=b, limit=1),
                                     budget=budget).solution_count > 0 for b in (0, length)]
            consistent = ends[0] == ends[1]
            return (consistent, _verdict(True, consistent),
                    f"feasible={sorted(observed)}; even-cycle existence claim "
                    f"treated as suspected typo, checking 0-feasible iff |V|-feasible")
        reports.append(_row("even-cycle", f"C_{length}", True, even_check))
    for n in (1, 2, 3, 4):
        def star_check():
            observed = feasible_b_set(build_complete_bipartite(1, n).graph, budget=budget)
            return ("nonempty" if observed else "empty", PASS if observed else FAIL,
                    f"feasible={sorted(observed)}")
        reports.append(_row("complete-bipartite", f"K_1,{n}", "nonempty", star_check))
    for m, n in ((2, 2), (2, 3), (3, 3)):
        g = build_complete_bipartite(m, n).graph
        reports.append(_feasible_report("complete-bipartite", f"K_{m},{n}",
                                        g, set(), budget))
    return reports


def _caterpillar_specs(max_vertices: int):
    """All (r; n_1..n_r) with at least one edge and at most max_vertices vertices."""
    for total in range(2, max_vertices + 1):
        for r in range(1, total + 1):
            yield from _compositions(total - r, r)


def _compositions(total: int, parts: int, prefix=()):
    if parts == 1:
        yield CaterpillarSpec(len(prefix) + 1, prefix + (total,))
        return
    for head in range(total + 1):
        yield from _compositions(total - head, parts - 1, prefix + (head,))


def _tree_certificate(graph: Graph) -> str:
    """Canonical string for a tree: rooted encoding minimized over centers."""
    # the centres are the middle of a longest path a..b: a is a vertex
    # farthest from any vertex, b a vertex farthest from a; in a tree each
    # vertex but a has one neighbour nearer to a, so walking those from b
    # follows the path
    a = _bfs(graph, 0)[0][-1]
    reached, from_a = _bfs(graph, a)
    adj = graph.adjacency

    def toward_a(v: int) -> int:
        return next(u for u in adj[v] if from_a[u] < from_a[v])

    b = v = reached[-1]
    for _ in range(from_a[b] // 2):
        v = toward_a(v)
    centers = [v, toward_a(v)] if from_a[b] % 2 else [v]

    def encode(v: int, parent: int) -> str:
        subs = sorted(encode(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return min(encode(c, -1) for c in centers)


class SuiteLimitError(ValueError):
    """A suite limit so small that the suite would check nothing."""


def caterpillar_suite(max_labels: int = 19,
                      budget: Optional[int] = None) -> list[TheoremReport]:
    """Both directions of the caterpillar feasibility characterization.

    Every caterpillar spec with |V|+|E| <= max_labels is checked; specs
    describing isomorphic trees share one exhaustive search, and each
    spelling's predicted set must match it.  A cap that is not an int, or
    is below 3, the label count of P2, the smallest caterpillar, raises.
    """
    if type(max_labels) is not int:
        raise SuiteLimitError(f"max_labels must be an integer, got {max_labels!r}")
    if max_labels < 3:
        raise SuiteLimitError(f"max_labels must be at least 3, got {max_labels}")
    max_vertices = (max_labels + 1) // 2
    groups: dict[str, list[CaterpillarSpec]] = {}
    handles: dict[str, Graph] = {}
    for spec in _caterpillar_specs(max_vertices):
        graph = build_caterpillar(spec).graph
        cert = _tree_certificate(graph)
        groups.setdefault(cert, []).append(spec)
        handles.setdefault(cert, graph)
    reports = []
    for cert, specs in sorted(groups.items()):
        rep = specs[0]
        desc = "S_" + ",".join(str(c) for c in rep.leaf_counts)
        if len(specs) > 1:
            desc += f" (+{len(specs) - 1} isomorphic spellings)"
        predictions = {frozenset(caterpillar_b_set(s)) for s in specs}
        if len(predictions) > 1:
            reports.append(TheoremReport(
                "caterpillar-iff", desc, "one prediction per isomorphism class",
                f"{len(predictions)} distinct predictions", FAIL))
            continue
        predicted = set(next(iter(predictions)))
        reports.append(_feasible_report("caterpillar-iff", desc,
                                        handles[cert], predicted, budget))
    return reports


def lobster_suite(budget: Optional[int] = None) -> list[TheoremReport]:
    """Feasible offsets for L_1..L_4 plus the gracefulness of L_4."""
    reports = [_feasible_report("lobster-feasible", f"L_{p}", build_lobster(p).graph,
                                lobster_b_set(p), budget) for p in range(1, 5)]

    def graceful_check():
        found = find_graceful(build_lobster(4).graph, limit=1, budget=budget)
        if not found:
            return "none", FAIL, ""
        return "found", PASS, f"vertex labels {list(found[0].vertex_labels)}"
    reports.append(_row("lobster-graceful", "L_4", "graceful labeling exists", graceful_check))
    return reports


def double_star_suite(budget: Optional[int] = None) -> list[TheoremReport]:
    """Uniqueness counts and the gcd form of double-star magic constants."""
    reports = []
    for m, n in ((1, 1), (1, 2), (2, 2), (1, 3)):
        handle = build_double_star(m, n)
        offsets = {m + 1: 4 * m + 2 * n + 6, n + 1: 2 * m + 4 * n + 6}
        for b, expected_k in sorted(offsets.items()):
            predicted = (2, {expected_k})

            def unique_check():
                report = find_consecutive(SearchQuery(handle.graph, b=b, canonical_only=True),
                                          budget=budget)
                observed = (report.orbit_count, set(report.constants_found))
                return (observed, _verdict(predicted, observed),
                        f"{report.solution_count} raw labelings")
            reports.append(_row("double-star-uniqueness", f"S_{m},{n} at b={b}",
                                predicted, unique_check))
    for m, n in ((2, 2), (2, 4), (3, 3)):
        def form_check():
            graph = build_double_star(m, n).graph
            report = find_edge_magic(SearchQuery(graph, canonical_only=True), budget=budget)
            missing = [k for k in sorted(report.constants_found)
                       if constant_form_check(m, n, k).t is None]
            return ("all expressible" if not missing else f"inexpressible: {missing}",
                    PASS if not missing else FAIL,
                    f"constants={sorted(report.constants_found)}")
        reports.append(_row("double-star-constant-form", f"S_{m},{n}",
                            "all constants of form gcd*t+6", form_check))
    return reports


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_report_table(reports: list[TheoremReport]) -> str:
    rows = [("theorem", "graph", "predicted", "observed", "verdict")]
    for r in reports:
        rows.append((r.theorem_id, r.graph_description,
                     str(_jsonable(r.predicted)), str(_jsonable(r.observed)),
                     r.verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(5)))
    return "\n".join(lines)
