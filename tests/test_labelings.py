"""Verification primitives: magic constants, block offsets, gracefulness."""

import re
from random import Random

import pytest

from magilab import graphs
from magilab.graphs import (Bipartition, CaterpillarSpec, Graph, bipartition_of, build_caterpillar,
                            build_cycle, build_lobster, build_path)
from magilab.labelings import (LabelingError, TotalLabeling, VertexLabeling,
                               check_total_labeling, classify,
                               consecutive_index_of, is_graceful,
                               magic_constant_of, neighbor_block_holds)
from magilab.search import SearchQuery, compute_automorphisms, find_consecutive

# the closed-form labeling of the 4-vertex double star, in canonical
# vertex order (c1, c1_1, c2, c2_1) and edge order ((0,1),(0,2),(2,3))
P4_HANDLE = build_caterpillar(CaterpillarSpec(2, (1, 1)))
P4_LABELING = TotalLabeling((6, 1, 2, 7), (5, 4, 3))

P3 = build_path(3).graph
P3_LABELING = TotalLabeling((1, 5, 2), (4, 3))  # leaf-center-leaf


def test_magic_constant_examples():
    assert magic_constant_of(P4_HANDLE.graph, P4_LABELING) == 12
    assert magic_constant_of(P3, P3_LABELING) == 10


def test_magic_constant_absent_for_unequal_sums():
    assert magic_constant_of(P3, TotalLabeling((1, 2, 3), (4, 5))) is None


def test_magic_constant_rejects_mismatch():
    with pytest.raises(LabelingError):
        magic_constant_of(P3, TotalLabeling((1, 2), (3, 4)))
    with pytest.raises(LabelingError):
        magic_constant_of(P3, TotalLabeling((1, 1, 2), (4, 3)))
    with pytest.raises(LabelingError):
        magic_constant_of(P3, TotalLabeling((1, 9, 2), (4, 3)))


def test_edgeless_graph_has_no_constant():
    g = Graph(1, ())
    assert magic_constant_of(g, TotalLabeling((1,), ())) is None
    assert consecutive_index_of(g, TotalLabeling((1,), ())) is None
    got = classify(g, TotalLabeling((1,), ()))
    assert got.magic_constant is None and got.consecutive_index is None


def test_consecutive_index_examples():
    assert consecutive_index_of(P4_HANDLE.graph, P4_LABELING) == 2
    assert consecutive_index_of(P3, P3_LABELING) == 2


def test_consecutive_index_absent_for_gap():
    # edge labels {2,4,5} are not a block, whatever the vertex labels do
    lab = TotalLabeling((1, 3, 6, 7), (2, 4, 5))
    assert consecutive_index_of(P4_HANDLE.graph, lab) is None


def test_consecutive_index_requires_magic():
    # block edge labels but two different edge sums
    lab = TotalLabeling((1, 2, 6, 7), (3, 4, 5))
    assert magic_constant_of(P4_HANDLE.graph, lab) is None
    assert consecutive_index_of(P4_HANDLE.graph, lab) is None


def test_neighbor_block_examples():
    assert neighbor_block_holds(P4_HANDLE.graph, P4_LABELING, 2)
    # swapping labels 1 and 7 puts one low and one high neighbor on c1
    corrupted = TotalLabeling((6, 7, 2, 1), (5, 4, 3))
    assert not neighbor_block_holds(P4_HANDLE.graph, corrupted, 2)


def test_neighbor_block_rejects_bad_offset():
    with pytest.raises(LabelingError):
        neighbor_block_holds(P4_HANDLE.graph, P4_LABELING, 0)
    with pytest.raises(LabelingError):
        neighbor_block_holds(P4_HANDLE.graph, P4_LABELING, 5)


@pytest.mark.parametrize("b", [True, 2.0, 1.5])
def test_neighbor_block_refuses_a_non_integer_offset(b):
    # True would count as offset 1, and 2.0 as offset 2
    with pytest.raises(LabelingError, match=rf"^b={re.escape(repr(b))} is not an integer$"):
        neighbor_block_holds(P4_HANDLE.graph, P4_LABELING, b)


def test_neighbor_block_on_search_output():
    for b in (2, 3):
        report = find_consecutive(SearchQuery(P3, b=b))
        for lab in report.labelings:
            assert neighbor_block_holds(P3, lab, b)


@pytest.mark.parametrize("labels,expected", [
    ((0, 1), True),
])
def test_graceful_single_edge(labels, expected):
    g = build_path(2).graph
    assert is_graceful(g, VertexLabeling(labels)) is expected


def test_graceful_path3():
    assert is_graceful(P3, VertexLabeling((0, 2, 1)))
    assert not is_graceful(P3, VertexLabeling((0, 1, 2)))


def test_graceful_rejects_bad_labels():
    with pytest.raises(LabelingError):
        is_graceful(P3, VertexLabeling((0, 3, 1)))
    with pytest.raises(LabelingError):
        is_graceful(P3, VertexLabeling((0, 1, 1)))


def test_classify_beta_construction():
    got = classify(P4_HANDLE.graph, P4_LABELING, P4_HANDLE.bipartition)
    assert got.magic_constant == 12
    assert got.consecutive_index == 2
    assert not got.is_super
    assert got.side_with_small_labels == "Y"


def test_classify_super_p3():
    lab = TotalLabeling((2, 1, 3), (5, 4))
    got = classify(P3, lab)
    assert got.consecutive_index == 3
    assert got.is_super
    assert got.magic_constant == 8


def test_classify_non_magic():
    got = classify(P3, TotalLabeling((1, 2, 3), (4, 5)))
    assert got.magic_constant is None
    assert got.consecutive_index is None
    assert not got.is_super
    assert got.side_with_small_labels is None


def test_super_iff_full_offset():
    for b in range(4):
        for lab in find_consecutive(SearchQuery(P3, b=b)).labelings:
            got = classify(P3, lab)
            assert got.is_super == (got.consecutive_index == P3.vertex_count)


def test_consecutive_index_invariant_under_automorphism():
    g = P4_HANDLE.graph
    base = classify(g, P4_LABELING)
    for perm in compute_automorphisms(g):
        vl = tuple(P4_LABELING.vertex_labels[perm[v]] for v in range(g.vertex_count))
        el = tuple(P4_LABELING.edge_labels[g.index_of_edge(perm[u], perm[v])]
                   for u, v in g.edges)
        relabeled = TotalLabeling(vl, el)
        got = classify(g, relabeled)
        assert got.magic_constant == base.magic_constant
        assert got.consecutive_index == base.consecutive_index


@pytest.mark.parametrize("make,message", [
    (lambda: check_total_labeling(P3, TotalLabeling((1, 5, 2), (4,))),
     "expected 2 edge labels, got 1"),
    (lambda: is_graceful(P3, VertexLabeling((0, 2))), "expected 3 vertex labels, got 2"),
], ids=["edge-labels", "graceful-labels"])
def test_labeling_refusals(make, message):
    with pytest.raises(LabelingError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("vertex_labels,edge_labels", [
    ((6, 7, 2, 1), (5, 4, 3)),  # c1 has a low and a high neighbour
    ((6, 3, 2, 7), (5, 4, 1)),  # c1's leaf carries 3, inside the edge block 3..5
], ids=["both-blocks", "edge-block"])
def test_neighbor_block_fails_on_a_vertex_outside_one_block(vertex_labels, edge_labels):
    assert not neighbor_block_holds(P4_HANDLE.graph, TotalLabeling(vertex_labels, edge_labels), 2)


def test_check_total_labeling_accepts_valid():
    check_total_labeling(P3, P3_LABELING)
    check_total_labeling(P4_HANDLE.graph, P4_LABELING)


def test_from_dict_round_trip():
    assert TotalLabeling.from_dict(P3_LABELING.to_dict()) == P3_LABELING


@pytest.mark.parametrize("record", [
    {"vertex_labels": ["a", 5, 2], "edge_labels": [4, 3]},
    {"vertex_labels": [1.5, 5, 2], "edge_labels": [4, 3]},
    {"vertex_labels": [1, 5, 2], "edge_labels": [True, 3]},
])
def test_from_dict_rejects_non_integer_labels(record):
    with pytest.raises(LabelingError, match="not an integer"):
        TotalLabeling.from_dict(record)


@pytest.mark.parametrize("make", [
    lambda: TotalLabeling((1.5,), ()),
    lambda: TotalLabeling((1, 2), ("3",)),
    lambda: TotalLabeling((1, 2), (True,)),
    lambda: VertexLabeling((True,)),
    lambda: VertexLabeling((0, 2.0, 1)),
])
def test_constructors_reject_non_integer_labels(make):
    with pytest.raises(LabelingError, match="is not an integer"):
        make()


def test_constructors_keep_int_labels_as_tuples():
    lab = TotalLabeling([1, 5, 2], [4, 3])
    assert lab == P3_LABELING and type(lab.vertex_labels) is tuple
    assert VertexLabeling([0, 2, 1]).vertex_labels == (0, 2, 1)
    assert TotalLabeling((1,), ()).edge_labels == ()


def _relabelled(graph, perm):
    return Graph(graph.vertex_count, tuple((perm[u], perm[v]) for u, v in graph.edges))


def test_classify_names_a_side_of_the_graphs_own_bipartition():
    """Without a bipartition, classify tags the same side as with the graph's
    own, on caterpillars and lobsters under random numberings."""
    rng = Random(7)
    handles = [build_caterpillar(CaterpillarSpec(3, (2, 0, 1))),
               build_caterpillar(CaterpillarSpec(4, (1, 0, 2, 0))),
               build_lobster(1), build_lobster(2)]
    tags = set()
    for handle in handles:
        n = handle.graph.vertex_count
        for _ in range(2):
            g = _relabelled(handle.graph, rng.sample(range(n), n))
            own = bipartition_of(g)
            for b in range(1, n):
                for lab in find_consecutive(SearchQuery(g, b=b)).labelings:
                    side = classify(g, lab).side_with_small_labels
                    assert side == classify(g, lab, own).side_with_small_labels
                    tags.add(side)
    assert tags == {"X", "Y"}


def test_classify_has_no_side_on_a_graph_without_its_own_bipartition():
    """3K2 is disconnected and C5 has an odd cycle: neither names a side of
    its own, though a bipartition given by the caller still counts."""
    three_k2 = Graph(6, ((0, 3), (1, 2), (4, 5)))
    lab = TotalLabeling((1, 2, 7, 9, 3, 8), (5, 6, 4))
    assert three_k2.own_bipartition is None
    assert classify(three_k2, lab).consecutive_index == 3
    assert classify(three_k2, lab).side_with_small_labels is None
    given = Bipartition({0, 1, 4}, {2, 3, 5})
    assert classify(three_k2, lab, given).side_with_small_labels == "X"
    assert build_cycle(5).graph.own_bipartition is None


def test_classify_works_out_a_graphs_sides_once(monkeypatch):
    """One colouring, and so one breadth-first search, per graph, however
    many labelings of it are classified.  The graph is a fresh copy of a
    builder's, so it does not hold the sides the builder gave its own."""
    built = build_caterpillar(CaterpillarSpec(3, (2, 1, 2))).graph
    g = Graph(built.vertex_count, built.edges)
    found = [lab for b in range(1, g.vertex_count)
             for lab in find_consecutive(SearchQuery(g, b=b)).labelings]
    calls, searches = [], []

    def counted(graph):
        calls.append(graph)
        return bipartition_of(graph)

    def counted_bfs(graph, root):
        searches.append(graph)
        return bfs(graph, root)

    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "bipartition_of", counted)
    monkeypatch.setattr(graphs, "_bfs", counted_bfs)
    sides = [classify(g, lab).side_with_small_labels for lab in found]
    assert len(found) > 10 and {"X", "Y"} <= set(sides)
    assert calls == [g]
    assert searches == [g]
