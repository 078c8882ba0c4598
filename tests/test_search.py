"""The exhaustive search oracle: enumeration, symmetry, budgets."""

import gc
import json
import sys
import time
from itertools import islice, permutations
from math import factorial, gcd
from random import Random

import pytest

import magilab.search as search_module
from magilab.constructions import dual
from magilab.graphs import (CaterpillarSpec, Graph, build_caterpillar,
                            build_complete_bipartite, build_cycle,
                            build_double_star, build_lobster, build_path,
                            build_star)
from magilab.labelings import (LabelingError, TotalLabeling, classify, is_graceful,
                               magic_constant_of)
from magilab.search import (BudgetExceeded, SearchError, SearchQuery,
                            SearchReport, compute_automorphisms, count_canonical,
                            feasible_b_set, feasible_k_set, find_consecutive,
                            find_edge_magic, find_graceful, _enumerate_consecutive,
                            _k_window, _plan, _r_and_t, _weights)

P3 = build_path(3).graph


def test_p3_offset2_enumeration():
    report = find_consecutive(SearchQuery(P3, b=2))
    assert report.exhausted
    assert report.solution_count == 2
    assert [lab.vertex_labels for lab in report.labelings] == [(1, 5, 2), (2, 5, 1)]
    assert report.constants_found == frozenset({10})


def test_p3_offset0_matches_duals_of_super():
    zero = find_consecutive(SearchQuery(P3, b=0))
    sup = find_consecutive(SearchQuery(P3, b=3))
    assert zero.labelings
    dualled = sorted(dual(P3, lab) for lab in sup.labelings)
    assert sorted(zero.labelings) == dualled


def test_lobster3_middle_offset_empty():
    l3 = build_lobster(3).graph
    report = find_consecutive(SearchQuery(l3, b=3))
    assert report.exhausted
    assert report.solution_count == 0
    assert report.labelings == ()


def test_search_results_verify():
    """No trust in the search's own bookkeeping: re-check every labeling."""
    for b in range(P3.vertex_count + 1):
        report = find_consecutive(SearchQuery(P3, b=b))
        for lab in report.labelings:
            assert classify(P3, lab).consecutive_index == b
            assert magic_constant_of(P3, lab) in report.constants_found


def test_find_consecutive_preconditions():
    with pytest.raises(SearchError):
        find_consecutive(SearchQuery(P3))
    with pytest.raises(SearchError):
        find_consecutive(SearchQuery(Graph(4, ((0, 1), (2, 3))), b=1))
    with pytest.raises(SearchError):
        find_consecutive(SearchQuery(Graph(1, ()), b=0))
    with pytest.raises(SearchError):
        SearchQuery(P3, b=4)


def test_limit_truncates():
    report = find_consecutive(SearchQuery(P3, b=2, limit=1))
    assert report.solution_count == 1
    assert not report.exhausted


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_rejected(limit):
    with pytest.raises(SearchError):
        SearchQuery(P3, b=2, limit=limit)


P4 = build_path(4).graph


@pytest.mark.parametrize("field,value", [
    ("b", True), ("b", False), ("b", 1.0), ("b", "1"),
    ("magic_constant", 12.0), ("magic_constant", True),
    ("limit", 2.5), ("limit", True), ("limit", 1.0),
])
def test_query_parameters_must_be_ints(field, value):
    # b=True was searched as b=1 and limit=2.5 returned 3 labelings
    with pytest.raises(SearchError, match=f"{field} must be an integer"):
        SearchQuery(P4, **{field: value})


@pytest.mark.parametrize("limit", [1.5, True, 2.0])
def test_find_graceful_limit_must_be_an_int(limit):
    with pytest.raises(SearchError, match="limit must be an integer"):
        find_graceful(P4, limit=limit)


@pytest.mark.parametrize("value", ["no", "", 0, 1, None])
def test_canonical_only_must_be_a_bool(value):
    # canonical_only="no" was taken as true and returned 1 of K1,3's 6 labelings at b=3
    with pytest.raises(SearchError, match="canonical_only must be a bool"):
        SearchQuery(build_star(3).graph, b=3, canonical_only=value)


@pytest.mark.parametrize("search", [
    lambda g, budget: find_consecutive(SearchQuery(g, b=1), budget=budget),
    lambda g, budget: find_edge_magic(SearchQuery(g), budget=budget),
    lambda g, budget: feasible_b_set(g, budget=budget),
    lambda g, budget: feasible_k_set(g, budget=budget),
    lambda g, budget: find_graceful(g, budget=budget),
], ids=["find_consecutive", "find_edge_magic", "feasible_b_set", "feasible_k_set",
        "find_graceful"])
@pytest.mark.parametrize("budget,named", [
    (0, "budget must be at least 1, got 0"), (-1, "budget must be at least 1, got -1"),
    (True, "budget must be an integer"), (2.5, "budget must be an integer"),
    (22.0, "budget must be an integer"),
])
def test_budget_must_be_an_int_of_at_least_1(search, budget, named):
    # budget=True acted as 1, 2.5 as a cap, and 0 raised BudgetExceeded
    with pytest.raises(SearchError, match=named):
        search(P3, budget)


def test_magic_constant_filter():
    report = find_consecutive(SearchQuery(P3, b=2, magic_constant=10))
    assert report.solution_count == 2
    report = find_consecutive(SearchQuery(P3, b=2, magic_constant=11))
    assert report.solution_count == 0


def test_canonical_only_breaks_leaf_twins():
    # the two leaves of a path's center are twins; ascending order keeps one rep
    report = find_consecutive(SearchQuery(P3, b=2, canonical_only=True))
    assert [lab.vertex_labels for lab in report.labelings] == [(1, 5, 2)]


def test_feasible_sets():
    assert feasible_b_set(build_lobster(3).graph) == {0, 7}
    assert feasible_b_set(build_cycle(3).graph) == {0, 3}
    assert feasible_b_set(build_double_star(1, 2).graph) == {0, 2, 3, 5}


def test_feasible_set_of_edgeless_graph_is_empty():
    assert feasible_b_set(Graph(0, ())) == set()
    assert feasible_b_set(Graph(1, ())) == set()


def test_feasible_set_rejects_disconnected():
    with pytest.raises(SearchError):
        feasible_b_set(Graph(4, ((0, 1), (2, 3))))


def test_edge_magic_p3_golden():
    # degree identity: twice the constant is the center label plus 15,
    # so only 8, 9, 10 are possible; the search realizes all three
    report = find_edge_magic(SearchQuery(P3))
    assert report.exhausted
    assert report.constants_found == frozenset({8, 9, 10})
    for lab in report.labelings:
        assert magic_constant_of(P3, lab) is not None


def test_edge_magic_rejects_offset_query_and_disconnected():
    with pytest.raises(SearchError):
        find_edge_magic(SearchQuery(P3, b=2))
    with pytest.raises(SearchError):
        find_edge_magic(SearchQuery(Graph(4, ((0, 1), (2, 3)))))


@pytest.mark.parametrize("n", [0, 1])
def test_edge_magic_search_of_a_graph_without_edges_is_empty_and_exhausted(n):
    report = find_edge_magic(SearchQuery(Graph(n)))
    assert report.exhausted
    assert (report.labelings, report.constants_found, report.solution_count) == ((), frozenset(), 0)


def test_edge_magic_double_star_constants_even():
    report = find_edge_magic(SearchQuery(build_double_star(2, 2).graph,
                                         canonical_only=True))
    assert report.constants_found
    assert all((k - 6) % 2 == 0 for k in report.constants_found)


def test_budget_refusal():
    big = build_caterpillar(CaterpillarSpec(6, (2, 2, 2, 2, 2, 2))).graph
    assert big.label_count > 22
    with pytest.raises(BudgetExceeded):
        feasible_b_set(big)
    with pytest.raises(BudgetExceeded):
        find_edge_magic(SearchQuery(big))
    l4 = build_lobster(4).graph  # 17 labels
    with pytest.raises(BudgetExceeded):
        find_graceful(l4, budget=16)
    assert find_graceful(l4, budget=17)
    with pytest.raises(BudgetExceeded):
        find_graceful(big)
    # explicit budget raises the cap
    assert feasible_b_set(build_path(3).graph, budget=5) == {0, 1, 2, 3}
    with pytest.raises(BudgetExceeded):
        feasible_b_set(build_path(4).graph, budget=5)


def test_feasible_set_matches_full_searches():
    # feasible_b_set stops at the first witness and mirrors the offsets above
    # |V|/2; here every offset is searched on its own, on both parities of |V|
    net = Graph(6, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)))  # triangle, pendant leaves
    graphs = [h.graph for h in (build_path(4), build_star(3), build_cycle(3), build_cycle(4),
                                build_cycle(5), build_cycle(7), build_double_star(1, 2),
                                build_double_star(2, 3), build_complete_bipartite(2, 3),
                                build_lobster(2), build_lobster(3))] + [net]
    for g in graphs:
        full = {b for b in range(g.vertex_count + 1)
                if find_consecutive(SearchQuery(g, b=b, limit=1)).solution_count > 0}
        assert feasible_b_set(g) == full


def test_find_consecutive_budget():
    l3 = build_lobster(3).graph  # 13 labels
    with pytest.raises(BudgetExceeded):
        find_consecutive(SearchQuery(l3, b=7), budget=12)
    assert find_consecutive(SearchQuery(l3, b=7), budget=13).solution_count
    big = build_caterpillar(CaterpillarSpec(6, (2, 2, 2, 2, 2, 2))).graph
    with pytest.raises(BudgetExceeded):
        find_consecutive(SearchQuery(big, b=0, limit=1))


# Graphs small enough to enumerate every edge-magic labeling (<= 13 labels).
CROSS_ENGINE = [build_path(4), build_path(5), build_cycle(5), build_star(3),
                build_complete_bipartite(2, 2), build_double_star(1, 2),
                build_lobster(2), build_caterpillar(CaterpillarSpec(3, (1, 0, 1)))]
_CROSS_IDS = ["P4", "P5", "C5", "K1,3", "K2,2", "DS1,2", "L2", "CS1,0,1"]


@pytest.mark.parametrize("handle", CROSS_ENGINE, ids=_CROSS_IDS)
def test_sum_window_engine_matches_k_loop_engine(handle):
    """The consecutive engine against the edge-magic engine, grouped by offset."""
    g = handle.graph
    e = g.edge_count
    by_offset = {b: set() for b in range(g.vertex_count + 1)}
    every = find_edge_magic(SearchQuery(g))
    assert every.exhausted and every.labelings
    for lab in every.labelings:
        lo = min(lab.edge_labels)
        if sorted(lab.edge_labels) == list(range(lo, lo + e)):
            by_offset[lo - 1].add(lab)
    got = {b: set(find_consecutive(SearchQuery(g, b)).labelings) for b in by_offset}
    assert got == by_offset


@pytest.mark.parametrize("handle", CROSS_ENGINE, ids=_CROSS_IDS)
def test_pinned_constant_and_limit_agree_with_full_search(handle):
    g = handle.graph
    for b in range(g.vertex_count + 1):
        full = find_consecutive(SearchQuery(g, b))
        for k in sorted(full.constants_found):
            pinned = find_consecutive(SearchQuery(g, b, magic_constant=k))
            assert pinned.exhausted and pinned.constants_found <= {k}
            assert set(pinned.labelings) == {lab for lab in full.labelings
                                             if magic_constant_of(g, lab) == k}
        for k in (0, 3 * g.label_count):  # outside every degree-sum window
            pinned = find_consecutive(SearchQuery(g, b, magic_constant=k))
            assert pinned.exhausted and pinned.labelings == () and pinned.solution_count == 0
        for limit in (1, 2, 3):
            part = find_consecutive(SearchQuery(g, b, limit=limit))
            assert part.solution_count == min(limit, full.solution_count)
            assert set(part.labelings) <= set(full.labelings)
            assert part.exhausted == (full.solution_count < limit)


def test_output_deterministic_and_sorted():
    report = find_consecutive(SearchQuery(build_star(3).graph, b=3))
    vectors = [lab.vertex_labels for lab in report.labelings]
    assert vectors == sorted(vectors)
    again = find_consecutive(SearchQuery(build_star(3).graph, b=3))
    assert report == again


def test_reports_are_fully_sorted_with_distinct_vertex_vectors():
    """A report sorts its labelings on their vertex labels alone, which is
    the full (vertex labels, edge labels) order because no two kept
    labelings share their vertex labels.  Checked on every offset of the
    connected atlas graphs with at most 6 vertices, and every edge-magic
    listing of those with at most 12 labels, both ``canonical_only``
    values, under no limit and limits 1 and 2; each report is also built
    again from its labelings in reverse, so the order cannot come from the
    order the leaves arrive in."""
    kept = 0
    for g in [g for g in _connected_atlas(6) if g.edge_count]:
        reports = [find_consecutive(SearchQuery(g, b, limit=limit, canonical_only=canonical))
                   for b in range(g.vertex_count + 1)
                   for canonical in (False, True) for limit in (None, 1, 2)]
        if g.label_count <= 12:
            reports += [find_edge_magic(SearchQuery(g, limit=limit, canonical_only=canonical))
                        for canonical in (False, True) for limit in (None, 1, 2)]
        for report in reports:
            assert report.labelings == tuple(sorted(report.labelings))
            vectors = {lab.vertex_labels for lab in report.labelings}
            assert len(vectors) == len(report.labelings)
            kept += len(vectors)
            leaves = search_module._Leaves(g, None, None, False)
            leaves.sols = [(lab.vertex_labels, lab.edge_labels)
                           for lab in reversed(report.labelings)]
            assert leaves.report(report.b).labelings == report.labelings
    assert kept > 50_000


# ---------------------------------------------------------------------------
# automorphisms and orbit counting
# ---------------------------------------------------------------------------

def _brute_automorphisms(graph):
    """Exact automorphism group via degree refinement plus backtracking.

    The reference group of the plan and orbit tests, independent of the
    plan: the refinement collapses most of the search and the backtracker
    checks adjacency against every previously mapped vertex.
    """
    n = graph.vertex_count
    if n == 0:
        return ((),)
    adj = [frozenset(nbrs) for nbrs in graph.adjacency]
    color = [len(adj[v]) for v in range(n)]
    while True:
        sig = [(color[v], tuple(sorted(color[u] for u in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [palette[s] for s in sig]
        if refined == color:
            break
        color = refined

    mapping = [-1] * n
    used = [False] * n
    perms: list[tuple[int, ...]] = []

    def extend(v: int) -> None:
        if v == n:
            perms.append(tuple(mapping))
            return
        for w in range(n):
            if used[w] or color[w] != color[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (mapping[u] in adj[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                mapping[v] = -1

    extend(0)
    return tuple(perms)


@pytest.mark.parametrize("handle,order", [
    (build_path(4), 2),
    (build_star(3), 6),
    (build_cycle(4), 8),
    (build_complete_bipartite(2, 3), 12),
    (build_double_star(2, 2), 8),
    (build_lobster(3), 6),
])
def test_automorphism_group_orders(handle, order):
    perms = compute_automorphisms(handle.graph)
    assert len(perms) == order
    edge_set = set(handle.graph.edges)
    for perm in perms:
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edge_set}
        assert mapped == edge_set


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_count_canonical_double_stars(m, n):
    g = build_double_star(m, n).graph
    assert count_canonical(g, m + 1) == 2
    report = find_consecutive(SearchQuery(g, b=m + 1))
    assert report.constants_found == frozenset({4 * m + 2 * n + 6})


def test_count_canonical_consistent_with_raw_orbits():
    g = build_double_star(2, 2).graph
    raw = find_consecutive(SearchQuery(g, b=3))
    auts = _brute_automorphisms(g)
    n = g.vertex_count
    orbits = {min(tuple(lab.vertex_labels[p[i]] for i in range(n)) for p in auts)
              for lab in raw.labelings}
    assert count_canonical(g, 3) == len(orbits) == 2


def _group_orbits(graph, labelings):
    """Orbit count by the automorphism group, the reference for ``orbit_count``."""
    auts = _brute_automorphisms(graph)
    n = graph.vertex_count
    seen, orbits = set(), 0
    for lab in labelings:
        vl = lab.vertex_labels
        if vl not in seen:
            orbits += 1
            seen.update(tuple(vl[p[i]] for i in range(n)) for p in auts)
    return orbits


def _small_trees(most=7):
    nx = pytest.importorskip("networkx")
    return [Graph(t.number_of_nodes(), tuple(sorted(tuple(sorted(e)) for e in t.edges)))
            for n in range(2, most + 1) for t in nx.nonisomorphic_trees(n)]


@pytest.mark.parametrize("canonical_only", [False, True])
def test_count_orbits_matches_the_automorphism_group(canonical_only):
    """The orbit count a search reports, full or cut by a limit, is the number of
    orbits the listed group splits its labelings into."""
    graphs = _small_trees() + [build_cycle(n).graph for n in (4, 5, 6)] + [
        build_complete_bipartite(2, 3).graph, build_double_star(1, 2).graph]
    compared = 0
    for g in graphs:
        queries = [SearchQuery(g, b=b, limit=limit, canonical_only=canonical_only)
                   for b in range(g.vertex_count + 1) for limit in (None, 1, 2, 5)]
        if g.label_count <= 9:
            queries += [SearchQuery(g, limit=limit, canonical_only=canonical_only)
                        for limit in (None, 2)]
        for query in queries:
            search = find_edge_magic if query.b is None else find_consecutive
            report = search(query)
            assert report.orbit_count == _group_orbits(g, report.labelings), query
            compared += report.solution_count > 0
    assert compared > 200


# ---------------------------------------------------------------------------
# graceful search
# ---------------------------------------------------------------------------

def test_find_graceful_paths_and_lobster():
    for handle in (build_path(4), build_lobster(4)):
        found = find_graceful(handle.graph, limit=1)
        assert found
        assert is_graceful(handle.graph, found[0])


@pytest.mark.parametrize("limit", [1, None])
def test_find_graceful_of_the_empty_graph_is_empty(limit):
    # K0 is connected and has no vertex to place: the search finds nothing
    assert find_graceful(Graph(0, ()), limit=limit) == []


def test_find_graceful_c5_empty():
    # every vertex has even degree, so the difference sum is even, but
    # 1+2+3+4+5 is odd: no graceful labeling can exist
    assert find_graceful(build_cycle(5).graph, limit=None) == []


def test_find_graceful_exhaustive_count_matches_limit():
    g = build_path(3).graph
    unlimited = find_graceful(g, limit=None)
    assert len(unlimited) >= 2
    assert find_graceful(g, limit=2) == unlimited[:2]


@pytest.mark.parametrize("limit", [0, -1])
def test_find_graceful_limit_below_one_rejected(limit):
    with pytest.raises(SearchError, match="limit must be at least 1"):
        find_graceful(build_path(4).graph, limit=limit)


def _brute_force_graceful(graph):
    """Reference enumerator: every injective assignment of 0..|E| to the vertices.

    An assignment is accepted when its |E| edge differences are distinct,
    which for values in 1..|E| means they are exactly 1..|E|.
    """
    e = graph.edge_count
    return {vl for vl in permutations(range(e + 1), graph.vertex_count)
            if len({abs(vl[u] - vl[v]) for u, v in graph.edges}) == e}


@pytest.mark.parametrize("handle", [
    build_path(2), build_path(3), build_path(4), build_path(5), build_path(6),
    build_star(3), build_star(4), build_cycle(4), build_cycle(5),
    build_complete_bipartite(2, 3), build_double_star(1, 2), build_lobster(2),
], ids=["P2", "P3", "P4", "P5", "P6", "K1,3", "K1,4", "C4", "C5", "K2,3", "DS1,2", "L2"])
def test_graceful_search_matches_brute_force(handle):
    g = handle.graph
    found = [lab.vertex_labels for lab in find_graceful(g, limit=None)]
    assert len(found) == len(set(found))
    assert set(found) == _brute_force_graceful(g)
    assert [lab.vertex_labels for lab in find_graceful(g, limit=2)] == found[:2]


def test_disconnected_graph_is_refused_before_the_budget():
    # one guard admits graphs to every search: connectivity is checked first
    g = Graph(24, ((0, 1),))
    assert g.label_count > 22
    searches = [lambda: find_consecutive(SearchQuery(g, b=0)),
                lambda: find_edge_magic(SearchQuery(g)),
                lambda: feasible_b_set(g),
                lambda: find_graceful(g)]
    for search in searches:
        with pytest.raises(SearchError, match="connected"):
            search()


def _brute_force_consecutive(graph, b):
    """Reference enumerator: try every pool permutation and edge arrangement."""
    n, e = graph.vertex_count, graph.edge_count
    total = n + e
    pool = list(range(1, b + 1)) + list(range(b + e + 1, total + 1))
    block = list(range(b + 1, b + e + 1))
    found = set()
    for vl in permutations(pool):
        sums = {vl[u] + vl[v] for u, v in graph.edges}
        for el in permutations(block):
            k = vl[graph.edges[0][0]] + vl[graph.edges[0][1]] + el[0]
            if all(vl[u] + vl[v] + el[i] == k
                   for i, (u, v) in enumerate(graph.edges)):
                found.add((vl, el))
    return found


@pytest.mark.parametrize("handle", [
    build_path(2), build_path(3), build_path(4),
    build_star(3), build_cycle(3), build_cycle(4), build_double_star(1, 1),
], ids=lambda h: h.family.get("kind", "?") + str(h.graph.vertex_count))
def test_backtracker_matches_brute_force(handle):
    """Independent cross-check of the search against naked permutation scans."""
    g = handle.graph
    for b in range(g.vertex_count + 1):
        report = find_consecutive(SearchQuery(g, b=b))
        got = {(lab.vertex_labels, lab.edge_labels) for lab in report.labelings}
        assert got == _brute_force_consecutive(g, b)


def _place_calls(run, engine="_enumerate_consecutive"):
    """Run ``run()`` and return its result and the (i, w) arguments of every
    call it makes to the ``place`` of ``engine``: one per DFS node below the
    root, counted by a profile hook.  w is ``place``'s last argument, the
    degree-sum state (``w`` in the consecutive engine, ``r`` in the
    edge-magic one).  ``place`` is found as the code object among the
    engine's constants, which every supported Python has (``co_qualname``
    appeared only in 3.11)."""
    calls = []
    place, = [c for c in getattr(search_module, engine).__code__.co_consts
              if getattr(c, "co_name", None) == "place"]

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code is place:
            last = code.co_varnames[code.co_argcount - 1]
            calls.append((frame.f_locals["i"], frame.f_locals[last]))

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


# DFS nodes of the full search at b = 0..|V|; no root here is the closing step
PLACE_CALLS = [
    ("P10", build_path(10), [16350, 0, 0, 0, 0, 3474, 0, 0, 0, 0, 16350]),
    ("L4", build_lobster(4), [766, 0, 0, 203, 188, 189, 203, 0, 0, 766]),
    ("C9", build_cycle(9), [1430, 0, 0, 0, 0, 0, 0, 0, 0, 1430]),
    ("CS4;2,2,2,0", build_caterpillar(CaterpillarSpec(4, (2, 2, 2, 0))),
     [4298, 0, 0, 111, 268, 480, 268, 111, 0, 0, 4298]),
    ("DS2,3", build_double_star(2, 3), [153, 0, 25, 53, 53, 25, 0, 153]),
]


@pytest.mark.parametrize("handle, nodes", [row[1:] for row in PLACE_CALLS],
                         ids=[row[0] for row in PLACE_CALLS])
def test_consecutive_search_tree_is_pinned(handle, nodes):
    """The DFS visits exactly these many nodes at each offset: the counts
    of a search that checks the degree sum only at the closing step, where
    it is exact, and not on the candidates before it.

    An offset the root check (``_root_lows``) refutes runs no DFS, so it
    visits 0 nodes; every such offset here is one the full DFS finds
    absent.  Before the closing step only the k window and the span mask
    prune; the closing step's sieve and window cut keep exactly the
    candidates an exact sum check would keep, and the leaves after it,
    unchecked, are offered only what it kept.  A loosened prune costs
    nodes and changes no labeling, so only a pin on the node count sees it.
    """
    g = handle.graph
    assert [len(_place_calls(lambda: find_consecutive(SearchQuery(g, b=b)))[1])
            for b in range(g.vertex_count + 1)] == nodes


def test_root_check_never_refutes_a_feasible_offset(monkeypatch):
    """The root check refutes only offsets with no labeling.  The reference
    is the same search with ``_root_lows`` passing every L in its range,
    which runs the full DFS whenever the k window leaves some L; the
    check's own verdict is recorded on the way.  Over the connected atlas
    graphs with at most 6 vertices and the free trees with 7 to 9, it
    refutes exactly 990 of the 1,249 absent offsets, so a check that
    stops refuting fails here too."""
    graphs = [g for g in _connected_atlas(6) if g.edge_count] + [
        t for t in _small_trees(9) if t.vertex_count > 6]
    lows = search_module._root_lows
    verdicts, reference = [], [True]

    def root_lows(pool, e, lo, hi):
        verdicts.append(lows(pool, e, lo, hi))
        return lo <= hi if reference[0] else verdicts[-1]

    monkeypatch.setattr(search_module, "_root_lows", root_lows)
    refuted = absent = 0
    for g in graphs:
        for b in range(g.vertex_count + 1):
            query = SearchQuery(g, b=b, limit=1, canonical_only=True)
            verdicts.clear()
            reference[0] = True
            report = find_consecutive(query)
            absent += not report.labelings
            if not verdicts[0]:
                assert not report.labelings, (g, b)
                refuted += 1
                # the report the check builds by hand is the reference's, field by field
                reference[0] = False
                own = find_consecutive(query)
                assert own == report, (g, b)
                assert json.dumps(own.to_dict()) == json.dumps(report.to_dict()), (g, b)
    assert (refuted, absent) == (990, 1249)


def test_a_refuted_offset_builds_no_plan(monkeypatch):
    """The root check needs only the pool and the degrees, so the plan is
    built only at an offset it leaves open: on P10 at b = 0, 5 and 10 (the
    three offsets whose DFS runs, see ``PLACE_CALLS``), on C6, K2,2 and K3,4
    at none.  ``feasible_b_set`` builds at most one plan, at the first
    offset left open, so none where the check refutes every offset.  A
    graph the entry check refuses, disconnected or over budget, reaches
    neither the root check nor the plan at any offset."""
    plans, roots = [], []
    plan, lows = search_module._plan, search_module._root_lows
    monkeypatch.setattr(search_module, "_plan", lambda g: plans.append(g) or plan(g))
    monkeypatch.setattr(search_module, "_root_lows",
                        lambda *args: roots.append(args) or lows(*args))

    def planned(g):
        built = []
        for b in range(g.vertex_count + 1):
            plans.clear()
            find_consecutive(SearchQuery(g, b=b))
            built += [b] * len(plans)
        return built

    assert planned(build_path(10).graph) == [0, 5, 10]
    for handle in (build_cycle(6), build_complete_bipartite(2, 2),
                   build_complete_bipartite(3, 4)):
        assert planned(handle.graph) == []
    for handle, count in ((build_cycle(6), 0), (build_complete_bipartite(2, 2), 0),
                          (build_complete_bipartite(3, 4), 0), (build_path(10), 1),
                          (build_cycle(9), 1)):
        plans.clear()
        feasible_b_set(handle.graph)
        assert len(plans) == count, handle.family

    apart = Graph(16, tuple((2 * i, 2 * i + 1) for i in range(8)))  # 24 labels
    big = build_caterpillar(CaterpillarSpec(6, (2, 2, 2, 2, 2, 2))).graph
    plans.clear()
    roots.clear()
    for g, error, message in ((Graph(4, ((0, 1), (2, 3))), SearchError, "connected"),
                              (apart, SearchError, "connected"),
                              (big, BudgetExceeded, "over the budget")):
        for b in range(g.vertex_count + 1):
            with pytest.raises(error, match=message):
                find_consecutive(SearchQuery(g, b=b))
        with pytest.raises(error, match=message):
            feasible_b_set(g)
    assert not plans and not roots


@pytest.mark.parametrize("n", range(9, 22, 2))
def test_odd_cycles_have_only_the_extreme_offsets(n):
    """The root check refutes every inner offset of an odd cycle, so even
    C21, whose inner offsets took the DFS minutes, answers at once."""
    assert feasible_b_set(build_cycle(n).graph, budget=2 * n) == {0, n}


# DFS nodes of the full edge-magic search, over every k of the window
EDGE_MAGIC_CALLS = [
    ("P6", build_path(6), 1277), ("C6", build_cycle(6), 2138),
    ("K2,3", build_complete_bipartite(2, 3), 2447), ("L3", build_lobster(3), 3085),
    ("DS2,3", build_double_star(2, 3), 3073),
]


@pytest.mark.parametrize("handle, nodes", [row[1:] for row in EDGE_MAGIC_CALLS],
                         ids=[row[0] for row in EDGE_MAGIC_CALLS])
def test_edge_magic_search_tree_is_pinned(handle, nodes):
    """The edge-magic DFS visits exactly these many nodes: the counts of a
    degree-sum check on every candidate before the closing step, the one
    label that completes the sum at it, and no check on the leaves after
    it.  As in the consecutive engine, a loosened prune costs nodes and
    changes no labeling, so only a pin on the node count sees it."""
    report, calls = _place_calls(lambda: find_edge_magic(SearchQuery(handle.graph)),
                                 "_enumerate_edge_magic")
    assert report.exhausted and report.labelings
    assert len(calls) == nodes


def test_feasible_k_set_matches_the_full_listing():
    """One witness per constant finds exactly the constants of the full
    listing: on the 78 connected atlas graphs with at most 13 labels, the
    free trees with at most 7 vertices and the double stars with at most 17
    labels.  The listing breaks the twins too (``canonical_only``), which
    keeps its constants and spares it the orbits' twin orders."""
    atlas = [g for g in _connected_atlas(7) if g.label_count <= 13]
    assert len(atlas) == 78
    stars = [build_double_star(m, n).graph for m in range(1, 4) for n in range(m, 8 - m)]
    for g in atlas + _small_trees() + stars:
        listing = find_edge_magic(SearchQuery(g, canonical_only=True))
        assert feasible_k_set(g) == set(listing.constants_found), g.edges


@pytest.mark.parametrize("n", [0, 1])
def test_feasible_k_set_of_an_edgeless_graph_is_empty(n):
    assert feasible_k_set(Graph(n)) == set()


@pytest.mark.parametrize("graph, budget", [
    (Graph(4, ((0, 1), (2, 3))), None),
    (build_caterpillar(CaterpillarSpec(6, (2, 2, 2, 2, 2, 2))).graph, None),
    (P3, 4),
], ids=["disconnected", "over-default-budget", "over-budget"])
def test_feasible_k_set_refuses_what_find_edge_magic_refuses(graph, budget):
    with pytest.raises((SearchError, BudgetExceeded)) as listing:
        find_edge_magic(SearchQuery(graph), budget=budget)
    with pytest.raises(listing.type) as witnesses:
        feasible_k_set(graph, budget=budget)
    assert str(witnesses.value) == str(listing.value)


def test_feasible_k_set_builds_one_plan_and_a_pinned_absent_constant_none(monkeypatch):
    """``feasible_k_set`` builds at most one plan, at the first k it searches,
    and ``find_edge_magic`` pinned to a constant outside the degree-sum
    window builds none: it returns the empty, exhausted report at once."""
    plans = []
    plan = search_module._plan
    monkeypatch.setattr(search_module, "_plan", lambda g: plans.append(g) or plan(g))
    empty = SearchReport((), frozenset(), True, 0)
    for handle in (build_path(3), build_path(6), build_cycle(6), build_star(5),
                   build_complete_bipartite(2, 3), build_double_star(2, 4)):
        g = handle.graph
        plans.clear()
        assert feasible_k_set(g)
        assert len(plans) == 1, handle.family
        klo, khi = _k_window(g, list(range(1, g.label_count + 1)), _weights(g))
        for k in (klo - 1, khi + 1, 0, -3):
            plans.clear()
            report = find_edge_magic(SearchQuery(g, magic_constant=k))
            assert not plans, (handle.family, k)
            assert report == empty and report.to_dict() == empty.to_dict()
        plans.clear()
        find_edge_magic(SearchQuery(g, magic_constant=klo))
        assert len(plans) == 1


def _labeling_set(report):
    return {(lab.vertex_labels, lab.edge_labels) for lab in report.labelings}


@pytest.mark.parametrize("graph, offsets", [
    (build_complete_bipartite(2, 3).graph, range(6)),
    (Graph(6, ((0, 3), (0, 4), (1, 4), (2, 4), (3, 4), (3, 5))), (0, 1)),
], ids=["K2,3", "triangle-with-three-pendants"])
def test_closing_step_returns_at_once_when_g_does_not_divide_w(graph, offsets):
    """At the closing step |E| * L = w + dw * c needs g = gcd(dw, |E|) to
    divide w.  On these graphs g > 1 and the DFS reaches the closing step
    with w not divisible by g, where it returns at once; it still finds
    every labeling the brute force finds (24 at b = 0 on the second)."""
    plan = _plan(graph)
    closing = max(i for i, step in enumerate(plan.steps) if step[4])
    g = gcd(plan.steps[closing][4], graph.edge_count)
    assert g > 1
    refused = 0
    for b in offsets:
        report, calls = _place_calls(lambda: find_consecutive(SearchQuery(graph, b=b)))
        refused += sum(i == closing and w % g != 0 for i, w in calls)
        assert _labeling_set(report) == _brute_force_consecutive(graph, b)
    assert refused


@pytest.mark.parametrize("handle, nodes", [
    (build_path(2), [3, 3, 3]), (build_star(2), [8, 5, 5, 8]),
    (build_star(3), [16, 10, 4, 10, 16]), (build_star(4), [32, 20, 5, 5, 20, 32]),
], ids=["K2", "K1,2", "K1,3", "K1,4"])
def test_a_root_that_closes_the_degree_sum_sieves_its_own_labels(handle, nodes):
    """In a star the root is the only vertex with weight, and in K2 no
    vertex has any, so the root is the closing step: the root loop sieves
    its labels and cuts the sum window itself, and the leaves run
    unchecked.  Both engines still find every labeling the brute force
    finds, at every offset.  The DFS node counts are pinned: the sieve
    drops the root labels no labeling can follow (trying every root label,
    with the window cut only at those the sieve keeps, visits 68, 43, 23,
    23, 43, 68 nodes on K1,4), and without the window cut the unchecked
    leaves would add nodes."""
    g = handle.graph
    assert not _plan(g).steps[0][5]  # nothing weighs after the root
    counts = []
    for b in range(g.vertex_count + 1):
        report, calls = _place_calls(lambda: find_consecutive(SearchQuery(g, b=b)))
        assert _labeling_set(report) == _brute_force_consecutive(g, b)
        counts.append(len(calls))
    assert counts == nodes
    assert _labeling_set(find_edge_magic(SearchQuery(g))) == \
        {(vl, el) for vl, el, _ in _brute_force_edge_magic(g)}


def _sum_window_scan(graph, b):
    """Reference vertex labelings at offset b: every pool permutation whose edge
    sums are distinct and span |E| - 1.

    ``test_backtracker_matches_brute_force`` checks that sum-window lemma
    against the plain scan over edge-label arrangements on smaller graphs.
    """
    n, e = graph.vertex_count, graph.edge_count
    pool = list(range(1, b + 1)) + list(range(b + e + 1, n + e + 1))
    found = set()
    for vl in permutations(pool):
        sums = {vl[u] + vl[v] for u, v in graph.edges}
        if len(sums) == e and max(sums) - min(sums) == e - 1:
            found.add(vl)
    return found


def test_search_matches_the_sum_window_scan():
    """The root, window and sum checks cut no labeling: on
    every tree with at most 7 vertices, two cycles and two K_m,n, at every
    offset, the search finds exactly the reference labelings, and with
    ``canonical_only`` exactly those that label each twin group in
    ascending vertex order."""
    graphs = _small_trees() + [build_cycle(6).graph, build_cycle(7).graph,
                               build_complete_bipartite(2, 3).graph,
                               build_complete_bipartite(3, 3).graph]
    absent = 0
    for g in graphs:
        groups: dict = {}
        for v in range(g.vertex_count):
            groups.setdefault(g.adjacency[v], []).append(v)
        for b in range(g.vertex_count + 1):
            want = _sum_window_scan(g, b)
            absent += not want
            for canonical_only in (False, True):
                if canonical_only:
                    want = {vl for vl in want
                            if all(vl[u] < vl[w] for group in groups.values()
                                   for u, w in zip(group, group[1:]))}
                report = find_consecutive(SearchQuery(g, b=b, canonical_only=canonical_only))
                assert {lab.vertex_labels for lab in report.labelings} == want, (g, b)
                assert report.solution_count == len(want)
    assert absent > 20


def test_search_report_json_round_trip():
    report = find_consecutive(SearchQuery(P3, b=2))
    record = json.loads(json.dumps(report.to_dict()))
    assert record["b"] == 2 and record["exhausted"] is True
    assert record["constants"] == [10]
    back = [TotalLabeling.from_dict(d) for d in record["labelings"]]
    assert tuple(back) == report.labelings


def _brute_force_edge_magic(graph):
    """Reference enumerator: every injective vertex assignment and every k.

    An assignment and k are accepted when the forced edge labels
    k - f(u) - f(v) are distinct and fill the labels the vertices left.
    Only the k that keep every forced label in 1..|V|+|E| are tried.
    """
    n, total = graph.vertex_count, graph.label_count
    found = set()
    for vl in permutations(range(1, total + 1), n):
        rest = sorted(set(range(1, total + 1)) - set(vl))
        sums = [vl[u] + vl[v] for u, v in graph.edges]
        for k in range(max(sums) + 1, min(sums) + total + 1):
            el = tuple(k - s for s in sums)
            if sorted(el) == rest:
                found.add((vl, el, k))
    return found


@pytest.mark.parametrize("g", [h.graph for h in (
    build_path(2), build_path(3), build_path(4), build_star(3),
    build_cycle(3), build_cycle(4), build_cycle(5), build_double_star(1, 1))] + [
    Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))],
    ids=["P2", "P3", "P4", "K1,3", "C3", "C4", "C5", "DS1,1", "K4-e"])
def test_edge_magic_engine_matches_brute_force(g):
    assert g.label_count <= 10
    report = find_edge_magic(SearchQuery(g))
    expected = _brute_force_edge_magic(g)
    assert report.exhausted and report.solution_count == len(expected)
    assert {(lab.vertex_labels, lab.edge_labels) for lab in report.labelings} == \
        {(vl, el) for vl, el, _ in expected}
    assert report.constants_found == {k for _, _, k in expected}


def _twin_pairs(graph):
    """(u, v) with u < v for every two vertices with equal neighborhoods."""
    adj = [frozenset(a) for a in graph.adjacency]
    n = graph.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] == adj[v]]


# L_2 is the path P5, which has no twins; L_1 (P3) stands in for the lobsters
TWIN_GRAPHS = [build_star(3), build_complete_bipartite(2, 2),
               build_complete_bipartite(2, 3), build_double_star(2, 2), build_lobster(1)]


@pytest.mark.parametrize("handle", TWIN_GRAPHS, ids=["K1,3", "K2,2", "K2,3", "DS2,2", "L1"])
def test_canonical_only_keeps_twins_in_index_order(handle):
    """canonical_only drops exactly the labelings with a twin pair out of order."""
    g = handle.graph
    pairs = _twin_pairs(g)
    assert pairs

    def ordered(report):
        return [lab for lab in report.labelings
                if all(lab.vertex_labels[u] < lab.vertex_labels[v] for u, v in pairs)]

    for b in range(g.vertex_count + 1):
        full = find_consecutive(SearchQuery(g, b))
        canon = find_consecutive(SearchQuery(g, b, canonical_only=True))
        assert list(canon.labelings) == ordered(full)
    full = find_edge_magic(SearchQuery(g))
    canon = find_edge_magic(SearchQuery(g, canonical_only=True))
    assert full.labelings and list(canon.labelings) == ordered(full)


# ---------------------------------------------------------------------------
# the placement plan
# ---------------------------------------------------------------------------

def _relabelled(graph, perm):
    """The same graph with vertex v renamed perm[v]."""
    return Graph(graph.vertex_count,
                 tuple(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges))


# C5 with a pendant leaf on two of its vertices, and K2,3 with one leaf
_C5_LEAVES = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (2, 6)))
_K23_LEAF = Graph(6, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (4, 5)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
Q3 = Graph(8, tuple((u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit))
# graphs #152, #167 and #174 of the Atlas of Graphs (Read and Wilson): on
# #152 the class backtracker meets classes of one colour that no
# automorphism swaps; #167 and #174 have consecutive labelings (40 and 72)
ATLAS_152 = Graph(6, ((0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)))
ATLAS_167 = Graph(6, ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
ATLAS_174 = Graph(6, ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)))
PLAN_GRAPHS = [build_path(2).graph, build_path(3).graph, build_path(5).graph,
               build_star(4).graph, build_double_star(2, 3).graph,
               build_caterpillar(CaterpillarSpec(3, (2, 0, 1))).graph,
               build_caterpillar(CaterpillarSpec(4, (1, 3, 0, 2))).graph,
               build_caterpillar(CaterpillarSpec(5, (0, 1, 0, 1, 0))).graph,
               _C5_LEAVES, _K23_LEAF, build_complete_bipartite(2, 3).graph,
               build_cycle(4).graph, build_cycle(6).graph, K4, Q3,
               ATLAS_152, ATLAS_167, ATLAS_174]
_PLAN_IDS = ["K2", "P3", "P5", "K1,4", "DS2,3", "CS2,0,1", "CS1,3,0,2", "CS0,1,0,1,0",
             "C5+leaves", "K2,3+leaf", "K2,3", "C4", "C6", "K4", "Q3",
             "atlas152", "atlas167", "atlas174"]


def _stabiliser_bounds(graph, order):
    """Reference ``below`` from the listed group: for each vertex v, the latest
    earlier v_i whose orbit under the pointwise stabiliser of v_1..v_(i-1)
    holds v, or ``n`` when there is none."""
    n = graph.vertex_count
    stabiliser = _brute_automorphisms(graph)
    below = [n] * n
    for i, v in enumerate(order):
        for p in stabiliser:
            if p[v] != v:
                below[p[v]] = v  # later i overwrite earlier ones
        stabiliser = [p for p in stabiliser if p[v] == v]
    return below


def _plan_input(graph, relabel):
    """``graph`` as named, reversed or shuffled (seeded by its size)."""
    perm = list(range(graph.vertex_count))
    if relabel == "reversed":
        perm.reverse()
    elif relabel == "shuffled":
        Random(graph.vertex_count).shuffle(perm)
    return _relabelled(graph, perm)


@pytest.mark.parametrize("relabel", ["identity", "reversed", "shuffled"])
@pytest.mark.parametrize("graph", PLAN_GRAPHS, ids=_PLAN_IDS)
def test_plan_places_leaves_last_and_closes_an_edge_at_every_step(graph, relabel):
    n = graph.vertex_count
    g = _plan_input(graph, relabel)
    steps = _plan(g).steps
    assert all(len(step) == 6 for step in steps)
    order = [step[0] for step in steps]
    assert sorted(order) == list(range(n))
    degree = [len(g.adjacency[v]) for v in order]
    # every vertex of degree >= 2 comes before every leaf
    assert degree == sorted(degree, key=lambda d: d < 2)
    pos = {v: i for i, v in enumerate(order)}
    assert steps[0][1] is None
    for i, step in enumerate(steps[1:], 1):
        assert step[1] is not None and pos[step[1]] < i
    # each twin group is placed in ascending vertex order
    groups = {}
    for v in order:
        groups.setdefault(frozenset(g.adjacency[v]), []).append(v)
    for group in groups.values():
        assert group == sorted(group)
    # one lower bound per step breaks the whole group, as the listed group says
    below = _stabiliser_bounds(g, order)
    assert [step[3] for step in steps] == [below[v] for v in order]
    # the root: highest degree, then least eccentricity, then lowest number
    root = order[0]
    top = max(len(nbrs) for nbrs in g.adjacency)
    eccentricity = {v: max(_distances(g, v)) for v in range(n) if len(g.adjacency[v]) == top}
    assert root in eccentricity
    assert eccentricity[root] == min(eccentricity.values())
    assert root == min(v for v, ecc in eccentricity.items() if ecc == eccentricity[root])
    assert root == min(groups[frozenset(g.adjacency[root])])


@pytest.mark.parametrize("relabel", ["identity", "reversed", "shuffled"])
@pytest.mark.parametrize("graph", PLAN_GRAPHS, ids=_PLAN_IDS)
def test_plan_order_is_a_bfs_over_the_non_leaves_then_the_leaves(graph, relabel):
    """The exact order, against a two-pass reference from the same root: a
    BFS over the non-leaves, then the leaves by their neighbour's position,
    a neighbour's leaves in ascending order."""
    g = _plan_input(graph, relabel)
    adj = g.adjacency
    order = [step[0] for step in _plan(g).steps]
    expected = [order[0]]
    for u in expected:  # the loop visits what it appends
        expected += [w for w in adj[u] if len(adj[w]) > 1 and w not in expected]
    pos = {v: i for i, v in enumerate(expected)}
    leaves = [v for v in range(g.vertex_count) if v not in pos]
    expected += sorted(leaves, key=lambda v: (pos[adj[v][0]], v))
    assert order == expected


def _distances(graph, source):
    """BFS distance from ``source`` to every vertex of a connected graph."""
    dist = [None] * graph.vertex_count
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop visits what it appends
        for w in graph.adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("n", range(4, 13))
def test_plan_roots_a_path_at_a_middle_vertex(n):
    """Whatever the numbering, P_n's root is one of its middle vertices, so
    its mirror image is itself or one of the next two vertices placed."""
    rng = Random(n)
    for _ in range(10):
        perm = rng.sample(range(n), n)  # path position i becomes vertex perm[i]
        steps = _plan(_relabelled(build_path(n).graph, perm)).steps
        position = perm.index(steps[0][0])
        assert position in {(n - 1) // 2, n // 2}
        assert perm[n - 1 - position] in [step[0] for step in steps[:3]]


def _symmetry_graphs():
    return _small_trees(8) + [build_cycle(n).graph for n in range(3, 9)] + [
        K4, build_complete_bipartite(3, 3).graph, Q3, ATLAS_152, ATLAS_167, ATLAS_174]


def _twin_classes(graph):
    groups = {}
    for v in range(graph.vertex_count):
        groups.setdefault(graph.adjacency[v], []).append(v)
    return list(groups.values())


def test_coset_representatives_times_twin_orders_give_the_group():
    """|R| times the product of |C|! over the twin classes is |Aut|, and every
    r in R is an automorphism that is increasing on each twin class."""
    for g in _symmetry_graphs():
        reps = list(_r_and_t(_plan(g))[0])
        classes = _twin_classes(g)
        assert reps[0] == tuple(range(g.vertex_count))
        assert len(set(reps)) == len(reps)
        order = len(reps)
        for group in classes:
            order *= factorial(len(group))
        assert order == len(_brute_automorphisms(g)), g
        edges = set(g.edges)
        for r in reps:
            assert {tuple(sorted((r[u], r[v]))) for u, v in edges} == edges
            for group in classes:
                assert [r[v] for v in group] == sorted(r[v] for v in group)


def _connected_atlas(most=6):
    nx = pytest.importorskip("networkx")
    return [Graph(a.number_of_nodes(), tuple(sorted(tuple(sorted(e)) for e in a.edges)))
            for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= most and nx.is_connected(a)]


def _twin_perms(twins, t, k):
    """Yield T as vertex maps: ``t``, rewritten in place, once for each way
    to permute the classes ``twins[k:]`` within themselves."""
    if k == len(twins):
        yield t
        return
    group = twins[k]
    for image in permutations(group):
        for v, w in zip(group, image):
            t[v] = w
        yield from _twin_perms(twins, t, k + 1)


def test_t_is_listed_in_the_order_of_the_twin_permutations():
    """T from the class backtracker comes in the order of a recursive walk over
    each twin class's permutations, the earlier classes varying slowest, so a
    ``limit`` search keeps the same prefix; T is the identity alone under
    ``canonical_only``."""
    rng = Random(24)
    graphs = _symmetry_graphs() + [
        _relabelled(g, rng.sample(range(g.vertex_count), g.vertex_count))
        for g in _connected_atlas(7)
        if sum(len(group) > 1 for group in _twin_classes(g)) >= 2]
    for g in graphs:
        plan = _plan(g)
        twins = [group for group in plan.groups if len(group) > 1]
        want = [tuple(t) for t in _twin_perms(twins, list(range(g.vertex_count)), 0)]
        assert list(_r_and_t(plan)[1]) == want, g
        assert list(_r_and_t(plan, canonical_only=True)[1]) == [want[0]]
    assert len(graphs) > 150  # 59 symmetry graphs and 94 atlas graphs


def test_compute_automorphisms_lists_the_brute_force_group():
    graphs = _symmetry_graphs() + _connected_atlas()
    for g in graphs:
        assert compute_automorphisms(g) == _brute_automorphisms(g), g
    assert len(graphs) > 200


@pytest.mark.parametrize("graph,group", [(Graph(0, ()), ((),)), (Graph(1, ()), ((0,),)),
                                         (build_path(2).graph, ((0, 1), (1, 0)))])
def test_compute_automorphisms_of_the_smallest_graphs(graph, group):
    assert compute_automorphisms(graph) == group


@pytest.mark.parametrize("graph", [Graph(2, ()), Graph(4, ((0, 1), (2, 3)))])
def test_compute_automorphisms_refuses_a_disconnected_graph(graph):
    with pytest.raises(SearchError, match="^compute_automorphisms requires a connected graph$"):
        compute_automorphisms(graph)


def _leaves(graph, b):
    """The labelings the DFS itself reaches at offset b, before any expansion:
    the plan's bounds with R and T cut down to the identity."""
    plan = _plan(graph)
    n = graph.vertex_count
    bare = plan._replace(groups=[[v] for v in range(n)], sym=None)
    return _enumerate_consecutive(graph, b, None, None, _weights(graph), lambda: bare,
                                  False).labelings


def test_the_search_reaches_one_labeling_per_orbit():
    """At every offset the DFS reaches exactly one labeling per orbit, the least
    in placement order, and the expansion gives back the full enumeration."""
    compared = 0
    for g in _symmetry_graphs():
        auts = _brute_automorphisms(g)
        order = [step[0] for step in _plan(g).steps]
        for b in range(g.vertex_count + 1):
            full = find_consecutive(SearchQuery(g, b=b))
            leaves = _leaves(g, b)
            assert len(leaves) == _group_orbits(g, full.labelings), (g, b)
            assert full.solution_count == len(leaves) * len(auts)
            for lab in leaves:
                vl = lab.vertex_labels
                assert min(tuple(vl[p[v]] for v in order) for p in auts) == \
                    tuple(vl[v] for v in order)
            compared += len(leaves) > 0
    assert compared > 100


def test_limit_searches_build_no_twin_group():
    """K_1,10's ten leaves are twins: its group has 3,628,800 elements, and a
    search for one labeling must not list them.  DS(7,7) has two classes of
    seven twin leaves, so |T| = 7!^2 = 25,401,600."""
    star = build_star(10).graph
    ds = build_double_star(7, 7).graph
    start = time.perf_counter()
    for query, search, budget in (
            (SearchQuery(star, b=0, limit=1), find_consecutive, None),
            (SearchQuery(star, b=10, limit=3), find_consecutive, None),
            (SearchQuery(star, limit=1), find_edge_magic, None),
            *((SearchQuery(ds, b=b, limit=3), find_consecutive, 31) for b in (0, 8, 16)),
            (SearchQuery(ds, limit=2), find_edge_magic, 31)):
        report = search(query, budget)
        assert report.solution_count == query.limit and not report.exhausted
    assert time.perf_counter() - start < 1.0


def _garbage_left(run):
    """The objects ``run()`` leaves for the cyclic collector, the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_a_plan_and_the_first_coset_reps_do_not_list_r():
    """R of L_20 permutes its twenty legs: it has 20! elements, and neither the
    plan nor the first members of R may list them."""
    start = time.perf_counter()
    plan = _plan(build_lobster(20).graph)
    first = list(islice(_r_and_t(plan)[0], 3))
    assert time.perf_counter() - start < 0.5
    assert first[0] == tuple(range(41)) and len(set(first)) == 3


def test_colour_refinement_keeps_the_plan_of_a_spider_fast():
    """A spider with ten legs of length 2 and one of length 3 (24 vertices).
    Without colour refinement the class-map prefix searches of
    ``_class_orbits`` grow factorially in the equal legs: the plan takes
    about 1 ms with it and seconds without it."""
    edges, n = [], 1
    for length in [2] * 10 + [3]:
        leg = [0, *range(n, n + length)]
        edges += zip(leg, leg[1:])
        n += length
    start = time.perf_counter()
    plan = _plan(Graph(n, edges))
    assert time.perf_counter() - start < 0.5
    assert n == 24 and plan.sym is not None


@pytest.mark.parametrize("search", [lambda g: find_edge_magic(SearchQuery(g)),
                                    lambda g: find_consecutive(SearchQuery(g, b=0)),
                                    lambda g: find_graceful(g, limit=None),
                                    feasible_b_set, compute_automorphisms],
                         ids=["edge-magic", "consecutive", "graceful", "feasible-b-set",
                              "automorphisms"])
def test_a_search_leaves_no_state_for_the_cyclic_collector(search):
    """A finished search frees its state by reference counting: it leaves
    nothing for the collector (K_1,6's full edge-magic enumeration keeps
    138,240 labelings, K_1,5's 11,520).  P6 and C7 have a symmetry outside
    their twin classes, so their plans list R."""
    graphs = [build_star(5).graph, build_star(6).graph, build_path(6).graph, build_cycle(7).graph]
    left = [_garbage_left(lambda: search(g)) for g in graphs]
    assert left == [0, 0, 0, 0]


@pytest.mark.parametrize("canonical_only", [False, True])
def test_engine_labelings_are_exact_int_tuples_like_checked_ones(canonical_only):
    """Search output skips the constructor's check, so it must already be
    what the check would make: tuples of exact ints, equal and hashing like
    a labeling built from lists through the constructor."""
    searches = [SearchQuery(g, b, canonical_only=canonical_only)
                for g in (P3, build_double_star(2, 2).graph, build_cycle(6).graph)
                for b in range(g.vertex_count + 1)]
    searches += [SearchQuery(g, canonical_only=canonical_only)
                 for g in (P3, build_star(3).graph, build_cycle(4).graph,
                           build_double_star(1, 2).graph)]
    seen = 0
    for query in searches:
        find = find_edge_magic if query.b is None else find_consecutive
        for lab in find(query).labelings:
            checked = TotalLabeling(list(lab.vertex_labels), list(lab.edge_labels))
            for labels in (lab.vertex_labels, lab.edge_labels):
                assert type(labels) is tuple and {type(x) for x in labels} == {int}
            assert lab == checked and hash(lab) == hash(checked)
            seen += 1
    assert seen >= 150
    with pytest.raises(LabelingError):
        TotalLabeling((1, True), (2,))
    with pytest.raises(LabelingError):
        TotalLabeling.from_dict({"vertex_labels": [1.5, 2], "edge_labels": [3]})


# Small graphs (at most 13 labels) on which the constant window is pinned.
WINDOW_GRAPHS = ([build_path(n) for n in range(2, 7)] + [build_star(p) for p in range(2, 5)]
                 + [build_cycle(n) for n in range(3, 7)]
                 + [build_complete_bipartite(2, 2), build_complete_bipartite(2, 3),
                    build_double_star(1, 2)])


def test_k_window_holds_every_constant_and_both_ends_are_attained():
    """Every constant found lies in the degree-sum window, and both ends are found.

    So the window is tight: widening either end by one fails here, and
    narrowing it fails the brute-force engine tests.
    """
    low_hits = high_hits = 0
    for handle in WINDOW_GRAPHS:
        g = handle.graph
        n, e = g.vertex_count, g.edge_count
        searches = [(range(1, n + e + 1), find_edge_magic(SearchQuery(g)))]
        for b in range(n + 1):
            pool = [*range(1, b + 1), *range(b + e + 1, n + e + 1)]
            searches.append((pool, find_consecutive(SearchQuery(g, b=b))))
        for labels, report in searches:
            klo, khi = _k_window(g, list(labels), _weights(g))
            assert all(klo <= k <= khi for k in report.constants_found)
            low_hits += klo in report.constants_found
            high_hits += khi in report.constants_found
    assert low_hits and high_hits
