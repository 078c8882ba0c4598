"""Property tests: both magic engines against brute force on random small graphs.

Hypothesis is an optional test dependency; without it this module is skipped
and the example-based search tests in ``test_search.py`` still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from magilab.graphs import Graph  # noqa: E402
from magilab.search import (SearchQuery, feasible_b_set, find_consecutive,  # noqa: E402
                            find_edge_magic)

from test_search import (_brute_force_consecutive, _brute_force_edge_magic,  # noqa: E402
                         _twin_pairs)


@st.composite
def _small_connected_graphs(draw):
    """A random tree plus up to two extra edges, at most 9 labels, randomly numbered."""
    n = draw(st.integers(2, 5))
    perm = draw(st.permutations(range(n)))
    edges = {tuple(sorted((perm[i], perm[draw(st.integers(0, i - 1))]))) for i in range(1, n)}
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    room = min(2, 9 - (2 * n - 1), len(absent))
    extra = draw(st.lists(st.sampled_from(absent), max_size=room, unique=True)) if room else []
    return Graph(n, tuple(edges) + tuple(extra))


@settings(max_examples=40, deadline=None)
@given(_small_connected_graphs())
def test_consecutive_engine_matches_brute_force_on_random_graphs(g):
    assert g.label_count <= 9
    feasible = set()
    for b in range(g.vertex_count + 1):
        report = find_consecutive(SearchQuery(g, b=b))
        got = {(lab.vertex_labels, lab.edge_labels) for lab in report.labelings}
        assert got == _brute_force_consecutive(g, b)
        if got:
            feasible.add(b)
    assert feasible_b_set(g) == feasible


@st.composite
def _graphs_with_pendant_leaves(draw):
    """A random tree or triangle on 1-4 vertices plus pendant vertices, at most 9 labels.

    Each pendant vertex hangs off any vertex drawn so far, and the vertices
    are randomly numbered at the end.
    """
    core = draw(st.integers(1, 4))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, core)]
    if core == 3 and draw(st.booleans()):
        edges = [(0, 1), (0, 2), (1, 2)]
    n = core
    for _ in range(draw(st.integers(1, (9 - n - len(edges)) // 2))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


@settings(max_examples=30, deadline=None)
@given(_graphs_with_pendant_leaves())
def test_edge_magic_engine_matches_brute_force_on_graphs_with_leaves(g):
    assert g.label_count <= 9
    expected = _brute_force_edge_magic(g)
    pairs = _twin_pairs(g)
    for canonical in (False, True):
        want = {(vl, el, k) for vl, el, k in expected
                if not canonical or all(vl[u] < vl[v] for u, v in pairs)}
        report = find_edge_magic(SearchQuery(g, canonical_only=canonical))
        assert report.exhausted and report.solution_count == len(want)
        assert {(lab.vertex_labels, lab.edge_labels) for lab in report.labelings} == \
            {(vl, el) for vl, el, _ in want}
        assert report.constants_found == {k for _, _, k in want}
        for k in report.constants_found:
            pinned = find_edge_magic(SearchQuery(g, magic_constant=k, canonical_only=canonical))
            assert {(lab.vertex_labels, lab.edge_labels) for lab in pinned.labelings} == \
                {(vl, el) for vl, el, kk in want if kk == k}
