"""Verification primitives: magic constants, block offsets, gracefulness."""

import re
from random import Random

import pytest

from magilab import graphs
from magilab.constructions import (ConstructionError, dual, lambda_star, to_graceful,
                                   to_super_edge_magic)
from magilab.graphs import (Bipartition, CaterpillarSpec, Graph, bipartition_of, build_caterpillar,
                            build_cycle, build_lobster, build_path, build_star)
from magilab.labelings import (LabelingClassification, LabelingError, TotalLabeling,
                               VertexLabeling, check_total_labeling, classify, is_graceful,
                               magic_constant_of, neighbor_block_holds)
from magilab.search import SearchQuery, compute_automorphisms, find_consecutive, find_edge_magic

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
    got = classify(g, TotalLabeling((1,), ()))
    assert got.magic_constant is None and got.consecutive_index is None


def test_consecutive_index_examples():
    assert classify(P4_HANDLE.graph, P4_LABELING).consecutive_index == 2
    assert classify(P3, P3_LABELING).consecutive_index == 2


def test_consecutive_index_absent_for_gap():
    # edge labels {2,4,5} are not a block, whatever the vertex labels do
    lab = TotalLabeling((1, 3, 6, 7), (2, 4, 5))
    assert classify(P4_HANDLE.graph, lab).consecutive_index is None


def test_consecutive_index_requires_magic():
    # block edge labels but two different edge sums
    lab = TotalLabeling((1, 2, 6, 7), (3, 4, 5))
    assert magic_constant_of(P4_HANDLE.graph, lab) is None
    assert classify(P4_HANDLE.graph, lab).consecutive_index is None


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


def _neighbor_block_by_adjacency(graph, labeling, b):
    """The reference predicate, walking each vertex's neighbour list."""
    high_start = b + graph.edge_count + 1
    vl = labeling.vertex_labels
    for nbrs in graph.adjacency:
        low = high = False
        for u in nbrs:
            if vl[u] <= b:
                low = True
            elif vl[u] >= high_start:
                high = True
            else:
                return False
        if low and high:
            return False
    return True


def test_neighbor_block_matches_the_adjacency_walk():
    """Every consecutive labeling of the trees with at most 7 vertices, and a
    seeded shuffle of each, at every valid b.  A False with no vertex label
    between the blocks comes from a vertex whose neighbours fall in both,
    and both kinds of False occur."""
    nx = pytest.importorskip("networkx")
    rng = Random(34)
    falses = set()
    for n in range(2, 8):
        for tree in nx.nonisomorphic_trees(n):
            g = Graph(n, tuple(sorted(tuple(sorted(e)) for e in tree.edges)))
            labelings = [lab for b in range(n + 1)
                         for lab in find_consecutive(SearchQuery(g, b=b)).labelings]
            for lab in list(labelings):
                labels = [*lab.vertex_labels, *lab.edge_labels]
                rng.shuffle(labels)
                labelings.append(TotalLabeling(tuple(labels[:n]), tuple(labels[n:])))
            for lab in labelings:
                for b in range(1, n + 1):
                    holds = _neighbor_block_by_adjacency(g, lab, b)
                    assert neighbor_block_holds(g, lab, b) == holds, (g, lab, b)
                    if not holds:
                        falses.add(any(b < x <= b + n - 1 for x in lab.vertex_labels))
    assert falses == {False, True}


def test_neighbor_block_keeps_no_adjacency_on_the_graph():
    g = Graph(4, ((0, 1), (0, 2), (2, 3)))
    assert neighbor_block_holds(g, P4_LABELING, 2)
    assert "adjacency" not in g.__dict__


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
        el = tuple(P4_LABELING.edge_labels[g.edge_index[tuple(sorted((perm[u], perm[v])))]]
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
    """One breadth-first search per graph, however many labelings of it
    are classified: the graph keeps its sides and the search they come
    from, and the searches that found the labelings check the graph's
    connectivity in that same search.  The graph is a
    fresh copy of a builder's, so it does not hold the sides the builder
    gave its own."""
    built = build_caterpillar(CaterpillarSpec(3, (2, 1, 2))).graph
    g = Graph(built.vertex_count, built.edges)
    searches = []

    def counted_bfs(graph, root):
        searches.append(graph)
        return bfs(graph, root)

    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", counted_bfs)
    found = [lab for b in range(1, g.vertex_count)
             for lab in find_consecutive(SearchQuery(g, b=b)).labelings]
    sides = [classify(g, lab).side_with_small_labels for lab in found]
    assert len(found) > 10 and {"X", "Y"} <= set(sides)
    assert searches == [g]


def test_classify_names_no_side_a_low_block_cannot_equal():
    """A given bipartition is compared as sets of vertices.  A side of b
    members holding a negative vertex, a vertex >= |V|, or another graph's
    vertices never equals the low block: classify names no side, where
    reading labels off such a side would take vl[-1] for the low block or
    raise IndexError."""
    assert classify(P3, P3_LABELING).side_with_small_labels == "X"  # low block {0, 2}
    other = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 4))).own_bipartition
    assert other.side_x == {0, 4}
    for bip in (Bipartition({0, -1}, {1}), Bipartition({0, 3}, {1}), other):
        got = classify(P3, P3_LABELING, bip)
        assert got == LabelingClassification(10, 2, False, None)


# The checks as three passes, each its own function, as they were before
# classify and the transforms shared one kernel: the reference for it.

def _ref_check(graph, labeling):
    if len(labeling.vertex_labels) != graph.vertex_count:
        raise LabelingError(
            f"expected {graph.vertex_count} vertex labels, got {len(labeling.vertex_labels)}")
    if len(labeling.edge_labels) != graph.edge_count:
        raise LabelingError(
            f"expected {graph.edge_count} edge labels, got {len(labeling.edge_labels)}")
    total = graph.label_count
    seen = [False] * (total + 1)
    for value in labeling.vertex_labels + labeling.edge_labels:
        if not 1 <= value <= total:
            raise LabelingError(f"label {value} outside 1..{total}")
        if seen[value]:
            raise LabelingError(f"label {value} used twice")
        seen[value] = True


def _ref_magic_constant(graph, labeling):
    _ref_check(graph, labeling)
    if graph.edge_count == 0:
        return None
    vl, el = labeling.vertex_labels, labeling.edge_labels
    k = None
    for i, (u, v) in enumerate(graph.edges):
        s = vl[u] + vl[v] + el[i]
        if k is None:
            k = s
        elif s != k:
            return None
    return k


def _ref_offset(graph, labeling, k):
    if k is None:
        return None
    lo, hi = min(labeling.edge_labels), max(labeling.edge_labels)
    return lo - 1 if hi - lo + 1 == graph.edge_count else None


def _ref_classify(graph, labeling, bipartition=None):
    k = _ref_magic_constant(graph, labeling)
    b = _ref_offset(graph, labeling, k)
    side = None
    if b is not None and 0 < b < graph.vertex_count:
        sides = graph.own_bipartition if bipartition is None else bipartition
        if sides is not None:
            vl = labeling.vertex_labels
            small = frozenset(v for v in range(graph.vertex_count) if vl[v] <= b)
            if small == sides.side_x:
                side = "X"
            elif small == sides.side_y:
                side = "Y"
    return LabelingClassification(k, b, b == graph.vertex_count, side)


def _ref_refusals(graph, labeling):
    """The error each transform raised before the kernel, None where it accepted."""
    try:
        k = _ref_magic_constant(graph, labeling)
    except LabelingError as exc:
        return dict.fromkeys(TRANSFORMS, (LabelingError, str(exc)))
    b, n, e = _ref_offset(graph, labeling, k), graph.vertex_count, graph.edge_count
    vl = labeling.vertex_labels
    if k is None:
        block = ConstructionError, "input labeling is not edge-magic"
    elif b is None:
        block = ConstructionError, "input labeling is not consecutive edge-magic"
    elif 0 < b < n and any((vl[u] <= b) == (vl[v] <= b) for u, v in graph.edges):
        block = ConstructionError, "vertex labels do not split into one block per partite side"
    else:
        block = None
    side = block
    if block is None and b in (0, n):
        side = ConstructionError, f"offset b={b} does not single out a partite side"
    graceful = side
    if side is None and n > e + 1:
        graceful = ConstructionError, f"{n} vertices need more graceful labels than 0..{e}"
    return {dual: None if k is not None else (ConstructionError,
                                               "dual requires an edge-magic labeling"),
            lambda_star: block, to_graceful: graceful, to_super_edge_magic: side}


TRANSFORMS = (dual, lambda_star, to_graceful, to_super_edge_magic)


def _outcome(check, *args):
    """What ``check`` returns, or the type and message of the error it raises."""
    try:
        return check(*args)
    except (LabelingError, ConstructionError) as exc:
        return type(exc), str(exc)


def _corrupted(labeling):
    """Labelings one fault away from ``labeling``: a vertex and an edge label
    swapped, two edge labels swapped (two sums broken, still a bijection),
    a repeated label, a 0, the label |V|+|E|+1, one label too few on each
    side, a vertex label moved to the edges, and one edge label raised by 1."""
    vl, el = list(labeling.vertex_labels), list(labeling.edge_labels)
    top = len(vl) + len(el)
    yield vl[1:] + el[:1], [vl[0]] + el[1:]
    if len(el) > 1:
        yield vl, [el[1], el[0]] + el[2:]
    yield [vl[-1]] + vl[1:], el
    yield [0] + vl[1:], el
    yield vl, el[:-1] + [top + 1]
    yield vl[:-1], el
    yield vl, el[:-1]
    yield vl[:-1], el + vl[-1:]
    yield vl, [el[0] + 1] + el[1:]


def _differential_inputs():
    nx = pytest.importorskip("networkx")
    graphs_ = [Graph(n, tuple(sorted(tuple(sorted(e)) for e in tree.edges)))
               for n in range(2, 8) for tree in nx.nonisomorphic_trees(n)]
    graphs_ += [build_cycle(n).graph for n in (5, 6, 7)]
    for g in graphs_:
        for b in range(g.vertex_count + 1):
            yield from ((g, lab) for lab in find_consecutive(SearchQuery(g, b=b)).labelings)
    for g in (build_path(4).graph, build_star(3).graph):
        yield from ((g, lab) for lab in find_edge_magic(SearchQuery(g)).labelings)


def test_one_pass_kernel_matches_the_three_pass_checks():
    """classify, magic_constant_of, check_total_labeling, the transforms and
    neighbor_block_holds give the same verdicts, and raise the same errors
    with byte-identical messages, as the separate checks they replaced, on
    every consecutive labeling of the trees with at most 7 vertices and of
    C5-C7, every edge-magic labeling of P4 and K1,3 (consecutive or not),
    and one faulty variant of each, the kinds taken in turn."""
    kinds = set()
    for i, (g, lab) in enumerate(_differential_inputs()):
        faults = list(_corrupted(lab))
        for one in (lab, TotalLabeling(*faults[i % len(faults)])):
            want = _outcome(_ref_classify, g, one)
            assert _outcome(classify, g, one) == want, (g, one)
            assert _outcome(magic_constant_of, g, one) == _outcome(_ref_magic_constant, g, one)
            assert _outcome(check_total_labeling, g, one) == _outcome(_ref_check, g, one)
            refusals = _ref_refusals(g, one)
            for transform, refusal in refusals.items():
                got = _outcome(transform, g, one)
                assert (got if type(got) is tuple else None) == refusal, transform
            b = getattr(want, "consecutive_index", None) or 1
            try:
                _ref_check(g, one)
            except LabelingError as exc:
                want_block = LabelingError, str(exc)
            else:
                want_block = _neighbor_block_by_adjacency(g, one, b)
            assert _outcome(neighbor_block_holds, g, one, b) == want_block
            kinds.update(re.sub(r"\d+", "N", r[1]) for r in (want, *refusals.values())
                         if type(r) is tuple)
            if type(want) is LabelingClassification:
                kinds.add((want.magic_constant is not None, want.consecutive_index is not None))
    assert kinds >= {"label N outside N..N", "label N used twice",
                     "expected N vertex labels, got N", "expected N edge labels, got N",
                     "dual requires an edge-magic labeling", "input labeling is not edge-magic",
                     "input labeling is not consecutive edge-magic",
                     "offset b=N does not single out a partite side",
                     (False, False), (True, False), (True, True)}, kinds
