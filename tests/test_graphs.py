"""Graph containers, family generators, and structural checks."""

from itertools import combinations, permutations

import pytest

from magilab.graphs import (Bipartition, CaterpillarSpec, Graph, GraphError,
                            bipartition_of, build_caterpillar,
                            build_complete_bipartite, build_cycle,
                            build_double_star, build_lobster, build_path,
                            build_star, graph_from_dict, is_connected)


def test_edges_canonicalized():
    g = Graph(4, ((2, 0), (3, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.edge_index[(0, 2)] == 1


@pytest.mark.parametrize("edges,message", [
    (((0, 0),), "self-loop"),
    (((0, 1), (1, 0)), "duplicate"),
    (((0, 5),), "out of range"),
])
def test_graph_invariants_rejected(edges, message):
    with pytest.raises(GraphError, match=message):
        Graph(3, edges)


def test_caterpillar_spec_validation():
    with pytest.raises(GraphError):
        CaterpillarSpec(0, ())
    with pytest.raises(GraphError):
        CaterpillarSpec(2, (1,))
    with pytest.raises(GraphError):
        CaterpillarSpec(1, (-1,))


@pytest.mark.parametrize("r,counts", [
    (1, (2.7,)), (2, (1, True)), (2.0, (1, 1)), (True, (1,)),
], ids=["count-float", "count-bool", "spine-float", "spine-bool"])
def test_caterpillar_spec_rejects_non_integers(r, counts):
    with pytest.raises(GraphError, match="not an integer"):
        CaterpillarSpec(r, counts)


def test_double_star_of_single_leaves_is_p4():
    handle = build_double_star(1, 1)
    assert handle.graph.vertex_count == 4
    assert handle.graph.edge_count == 3
    assert sorted(handle.graph.degree(v) for v in range(4)) == [1, 1, 2, 2]
    assert handle.bipartition.sizes == (2, 2)


def test_star_spec_sides():
    handle = build_star(4)
    assert handle.graph.vertex_count == 5
    assert handle.bipartition.sizes == (1, 4)
    assert handle.vertex("c1") == 0


def test_caterpillar_3_212():
    spec = CaterpillarSpec(3, (2, 1, 2))
    handle = build_caterpillar(spec)
    assert handle.graph.vertex_count == 8
    assert handle.graph.edge_count == 7
    assert spec.alpha == 3 and spec.beta == 5
    assert handle.bipartition.sizes == (3, 5)
    # odd spine vertices sit in X, their leaves in Y
    assert handle.vertex("c1") in handle.bipartition.side_x
    assert handle.vertex("c1_1") in handle.bipartition.side_y
    assert handle.vertex("c2") in handle.bipartition.side_y
    assert handle.vertex("c2_1") in handle.bipartition.side_x


@pytest.mark.parametrize("r,counts", [
    (1, (0,)), (1, (3,)), (2, (1, 1)), (2, (3, 0)), (3, (2, 1, 2)),
    (4, (0, 2, 0, 1)), (5, (1, 0, 1, 0, 1)),
])
def test_caterpillar_counts(r, counts):
    spec = CaterpillarSpec(r, counts)
    handle = build_caterpillar(spec)
    assert handle.graph.vertex_count == sum(counts) + r
    assert handle.graph.edge_count == sum(counts) + r - 1
    assert spec.alpha + spec.beta == handle.graph.vertex_count
    assert spec.alpha == (r + 1) // 2 + sum(counts[1::2])  # odd spine, even leaves
    assert handle.bipartition.sizes == (spec.alpha, spec.beta)


def test_double_star_records_centers():
    handle = build_double_star(3, 6)
    assert handle.graph.vertex_count == 11
    assert handle.graph.edge_count == 10
    assert handle.family["center_u"] == "c1"
    assert handle.graph.degree(handle.vertex("c1")) == 4  # 3 leaves + other center
    assert handle.graph.degree(handle.vertex("c2")) == 7


@pytest.mark.parametrize("p,vertices", [(1, 3), (2, 5), (3, 7)])
def test_lobster_shape(p, vertices):
    handle = build_lobster(p)
    g = handle.graph
    assert g.vertex_count == vertices
    assert g.edge_count == 2 * p
    assert handle.bipartition.sizes == (p + 1, p)
    for i in range(1, p + 1):
        assert g.index_of_edge(handle.vertex("x"), handle.vertex(f"y{i}")) >= 0
        assert g.index_of_edge(handle.vertex(f"y{i}"), handle.vertex(f"x{i}")) >= 0


def test_small_lobsters_are_paths():
    for p, n in ((1, 3), (2, 5)):
        g = build_lobster(p).graph
        degs = sorted(g.degree(v) for v in range(n))
        assert degs == [1, 1] + [2] * (n - 2)
        assert is_connected(g)


def test_cycle_and_complete_bipartite():
    assert build_cycle(4).bipartition.sizes == (2, 2)
    assert build_cycle(5).bipartition is None
    k23 = build_complete_bipartite(2, 3)
    assert k23.graph.vertex_count == 5
    assert k23.graph.edge_count == 6
    with pytest.raises(GraphError):
        build_cycle(2)
    with pytest.raises(GraphError):
        build_lobster(0)
    with pytest.raises(GraphError):
        build_double_star(0, 2)


def test_bipartition_of_examples():
    p4 = build_path(4).graph
    bp = bipartition_of(p4)
    assert bp.side_x == frozenset({0, 2})
    assert bp.side_y == frozenset({1, 3})
    assert bipartition_of(build_cycle(5).graph) is None
    assert bipartition_of(build_complete_bipartite(2, 2).graph).sizes == (2, 2)
    with pytest.raises(GraphError):
        bipartition_of(Graph(4, ((0, 1), (2, 3))))


def test_is_connected():
    assert is_connected(build_path(4).graph)
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))
    assert is_connected(Graph(1, ()))


@pytest.mark.parametrize("r", [1, 3, 5])
def test_odd_spine_ends_sit_in_x(r):
    # for an odd spine both end vertices are odd positions, hence side X,
    # and the last vertex's leaves land in Y
    counts = tuple(1 for _ in range(r))
    handle = build_caterpillar(CaterpillarSpec(r, counts))
    assert handle.vertex(f"c{r}") in handle.bipartition.side_x
    assert handle.vertex(f"c{r}_1") in handle.bipartition.side_y


def test_generators_respect_bipartition():
    handles = [
        build_caterpillar(CaterpillarSpec(4, (1, 2, 0, 1))),
        build_double_star(2, 3),
        build_lobster(3),
        build_cycle(6),
        build_path(5),
        build_star(4),
        build_complete_bipartite(2, 3),
    ]
    for handle in handles:
        if handle.bipartition is None:
            continue
        handle.bipartition.validate_for(handle.graph)
        assert 0 in handle.bipartition.side_x


def _has_odd_cycle(graph):
    """Brute-force scan for an odd simple cycle (independent of 2-coloring)."""
    n = graph.vertex_count
    edge_set = set(graph.edges)
    for size in range(3, n + 1, 2):
        for verts in combinations(range(n), size):
            for perm in permutations(verts[1:]):
                cycle = (verts[0],) + perm
                pairs = [tuple(sorted((cycle[i], cycle[(i + 1) % size])))
                         for i in range(size)]
                if all(p in edge_set for p in pairs):
                    return True
    return False


def test_bipartition_absent_iff_odd_cycle():
    """Cross-check two-coloring against a brute-force odd-cycle scan."""
    n = 5
    all_pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(all_pairs)):
        edges = tuple(p for i, p in enumerate(all_pairs) if bits >> i & 1)
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        assert (bipartition_of(g) is None) == _has_odd_cycle(g)


def test_bipartition_absent_iff_odd_cycle_families():
    for handle in (build_cycle(7), build_cycle(8), build_lobster(3),
                   build_complete_bipartite(2, 3)):
        g = handle.graph
        assert (bipartition_of(g) is None) == _has_odd_cycle(g)


def test_json_round_trip_plain_graph():
    g = build_cycle(5).graph
    assert Graph.from_dict(g.to_dict()) == g
    assert graph_from_dict(g.to_dict()) == g


@pytest.mark.parametrize("record", [
    {"vertex_count": 2, "edges": [[0, 1.9]]},
    {"vertex_count": 2, "edges": [[0, True]]},
    {"vertex_count": 2.7, "edges": [[0, 1]]},
    {"vertex_count": True, "edges": []},
    {"vertex_count": 2, "edges": [["0", 1]]},
])
def test_json_rejects_non_integer_vertices(record):
    with pytest.raises(GraphError, match="not an integer"):
        Graph.from_dict(record)


def test_json_round_trip_family():
    handle = build_lobster(3)
    back = graph_from_dict(handle.to_dict())
    assert back.graph == handle.graph
    assert back.name_map == handle.name_map
    assert back.family["kind"] == "lobster"


def test_json_family_mismatch_rejected():
    record = build_lobster(3).to_dict()
    record["edges"] = record["edges"][:-1]
    with pytest.raises(GraphError):
        graph_from_dict(record)


def _family_record(handle, **changes):
    record = handle.to_dict()
    record["family"].update(changes)
    return record


@pytest.mark.parametrize("record", [
    _family_record(build_lobster(1), p=True),
    _family_record(build_lobster(1), p=1.0),
    _family_record(build_path(2), n=True),
    _family_record(build_cycle(3), length=3.0),
    _family_record(build_star(1), p=True),
    _family_record(build_double_star(1, 1), m=True),
    _family_record(build_complete_bipartite(1, 2), n="2"),
    _family_record(build_caterpillar(CaterpillarSpec(2, (1, 1))), leaf_counts=[1, True]),
    _family_record(build_caterpillar(CaterpillarSpec(2, (1, 1))), leaf_counts="11"),
], ids=["lobster-p-bool", "lobster-p-float", "path-n-bool", "cycle-length-float",
        "star-p-bool", "double-star-m-bool", "kmn-n-str", "caterpillar-count-bool",
        "caterpillar-counts-str"])
def test_json_family_rejects_non_integer_parameters(record):
    with pytest.raises(GraphError, match="not an integer|not a list of integers"):
        graph_from_dict(record)


def test_bipartition_requires_vertex_zero_in_x():
    with pytest.raises(GraphError):
        Bipartition(frozenset({1}), frozenset({0}))
