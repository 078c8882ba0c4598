"""Property test: the consecutive engine against brute force on random small graphs.

Hypothesis is an optional test dependency; without it this module is skipped
and the example-based search tests in ``test_search.py`` still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from magilab.graphs import Graph  # noqa: E402
from magilab.search import SearchQuery, feasible_b_set, find_consecutive  # noqa: E402

from test_search import _brute_force_consecutive  # noqa: E402


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
