"""Graph containers, family generators, and structural checks."""

import json
import re
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from magilab import graphs
from magilab.graphs import (Bipartition, CaterpillarSpec, FamilyHandle, Graph, GraphError,
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


P3 = Graph(3, ((0, 1), (1, 2)))
PAIRS = "bad graph record: edges must be an array of [u, v] pairs"


@pytest.mark.parametrize("make,message", [
    (lambda: Graph(3, ((0, 1.0), (1, 2))), "bad graph record: 1.0 is not an integer"),
    (lambda: Graph(2.5, ()), "bad graph record: 2.5 is not an integer"),
    (lambda: Graph(True, ()), "bad graph record: True is not an integer"),
    # every value's type is checked before the self-loop is seen
    (lambda: Graph(3, ((1, 1), (0, 2.0))), "bad graph record: 2.0 is not an integer"),
    # the shape of the edges is checked before any type: a generator would be used up
    (lambda: Graph(3, (e for e in [(0, 1), (1, 2)])), PAIRS),
    (lambda: Graph(3, [(0, 1, 2)]), PAIRS),
    (lambda: Graph(3, [(0,)]), PAIRS),
    (lambda: Graph(3, [5]), PAIRS),
    (lambda: Graph(3, {(0, 1): 1}), PAIRS),
    (lambda: Graph(-1, ()), "vertex_count must be nonnegative"),
    (lambda: P3.index_of_edge(2, 0), "no edge (0, 2) in graph"),
    (lambda: Bipartition(frozenset({0, 1}), frozenset({1, 2})), "bipartition sides overlap"),
    # True would stand for vertex 1 and 2.0 for vertex 2
    (lambda: Bipartition({0, True}, {2, 3}), "bipartition member True is not an integer"),
    (lambda: Bipartition({0, 2.0}, {1, 3}), "bipartition member 2.0 is not an integer"),
    (lambda: Bipartition({0, "a"}, {1}), "bipartition member 'a' is not an integer"),
    (lambda: FamilyHandle(P3, {"a": 0, "b": 0, "c": 2}),
     "name_map must be a bijection onto all vertices"),
    (lambda: build_path(0), "path needs at least one vertex"),
    (lambda: build_star(0), "star needs p >= 1"),
    (lambda: build_complete_bipartite(0, 1), "complete bipartite graph needs m, n >= 1"),
], ids=["float-endpoint", "float-count", "bool-count", "type-before-loop",
        "edge-generator", "edge-triple", "edge-single", "edge-int", "edge-dict",
        "negative-count", "absent-edge", "overlap", "bip-bool", "bip-float", "bip-str",
        "names", "path0", "star0", "K0,1"])
def test_graph_layer_refusals(make, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        make()


def test_bipartition_of_the_empty_graph_has_empty_sides():
    assert bipartition_of(Graph(0, ())) == Bipartition(frozenset(), frozenset())


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


def test_caterpillar_sides_are_worked_out_once_per_spec():
    """The sides are kept on the spec after the first read; equality and
    hashing still see only the two fields."""
    spec = CaterpillarSpec(3, (2, 1, 2))
    fresh = CaterpillarSpec(3, (2, 1, 2))
    assert spec.on_side_x is spec.on_side_x
    assert (spec.alpha, spec.beta) == (3, 5)
    assert spec == fresh and hash(spec) == hash(fresh)


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
    # disconnected, with the odd cycle in vertex 0's component or the other
    for edges in ((), ((0, 1), (2, 3)), ((0, 1), (0, 2), (1, 2), (3, 4)),
                  ((0, 1), (2, 3), (2, 4), (3, 4))):
        with pytest.raises(GraphError, match="requires a connected graph"):
            bipartition_of(Graph(5, edges))


def test_is_connected():
    assert is_connected(build_path(4).graph)
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))
    assert is_connected(Graph(1, ()))


def test_is_connected_counts_edges_before_building_adjacency():
    g = Graph(10**6)
    assert not is_connected(g)
    with pytest.raises(GraphError, match="requires a connected graph"):
        bipartition_of(g)
    assert "adjacency" not in vars(g)
    # |E| = |V| - 1 with a cycle still needs the walk
    assert not is_connected(Graph(5, ((0, 1), (0, 2), (1, 2), (3, 4))))


@pytest.mark.parametrize("r", [1, 3, 5])
def test_odd_spine_ends_sit_in_x(r):
    # for an odd spine both end vertices are odd positions, hence side X,
    # and the last vertex's leaves land in Y
    counts = tuple(1 for _ in range(r))
    handle = build_caterpillar(CaterpillarSpec(r, counts))
    assert handle.vertex(f"c{r}") in handle.bipartition.side_x
    assert handle.vertex(f"c{r}_1") in handle.bipartition.side_y


def _every_family_handle():
    """What each family builder builds over a grid of its parameters."""
    for r in range(1, 5):
        for counts in product(range(4), repeat=r):
            yield build_caterpillar(CaterpillarSpec(r, counts))
    for a in range(1, 7):
        yield from (build_lobster(a), build_path(a), build_star(a), build_cycle(a + 2),
                    build_cycle(a + 6))
        for b in range(1, 6):
            yield from (build_double_star(a, b), build_complete_bipartite(a, b))


def test_unchecked_builds_equal_the_checked_constructors():
    # the builders skip Graph's and FamilyHandle's checks; both must accept
    # what was built and give it back unchanged
    for handle in _every_family_handle():
        g = handle.graph
        assert type(g.vertex_count) is int and type(g.edges) is tuple
        assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in g.edges)
        assert Graph(g.vertex_count, g.edges) == g, handle.family
        checked = FamilyHandle(g, handle.name_map, handle.family)
        assert checked == handle, handle.family
        # the sides are built unchecked too: they are the graph's own two-colouring
        bip = handle.bipartition
        if bip is not None:
            assert Bipartition(bip.side_x, bip.side_y) == bip, handle.family
        assert bipartition_of(g) == bip, handle.family


def test_builders_hand_their_sides_to_the_graph(monkeypatch):
    """A builder's graph holds its sides: reading them, writing the record
    and reading it back run no breadth-first search.  A fresh copy of the
    graph holds none, so its search is an independent reference."""
    searches = []

    def counted_bfs(graph, root):
        searches.append(graph)
        return bfs(graph, root)

    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", counted_bfs)
    for handle in _every_family_handle():
        sides = handle.bipartition
        record = json.loads(json.dumps(handle.to_dict()))
        back = graph_from_dict(record)
        assert back.bipartition == sides and back.to_dict() == record, handle.family
        assert searches == [], handle.family
        g = handle.graph
        assert bipartition_of(Graph(g.vertex_count, g.edges)) == sides, handle.family
        searches.clear()


@pytest.mark.parametrize("build, args", [
    (build_path, (True,)), (build_path, (2.0,)), (build_lobster, (True,)),
    (build_lobster, ("2",)), (build_cycle, (3.0,)), (build_cycle, (True,)),
    (build_star, (True,)), (build_star, (1.5,)), (build_double_star, ("a", 2)),
    (build_double_star, (1, 0.5)), (build_complete_bipartite, (True, 2)),
    (build_complete_bipartite, (1, None)),
], ids=lambda x: getattr(x, "__name__", None) or repr(x))
def test_builders_refuse_non_integer_parameters(build, args):
    # what a builder accepts, the JSON loader must read back
    with pytest.raises(GraphError, match=r"^bad [a-z ]+ parameter: [a-z]+=.* is not an integer$"):
        build(*args)


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
    # one record per family: each family's size check must let its own record through
    for handle in (build_lobster(3), build_caterpillar(CaterpillarSpec(3, (2, 0, 1))),
                   build_double_star(1, 3), build_cycle(5), build_path(4), build_star(3),
                   build_complete_bipartite(2, 3)):
        back = graph_from_dict(handle.to_dict())
        assert back.graph == handle.graph
        assert back.name_map == handle.name_map
        assert back.family == handle.family


def test_json_family_mismatch_rejected():
    record = build_lobster(3).to_dict()
    record["edges"] = record["edges"][:-1]
    with pytest.raises(GraphError):
        graph_from_dict(record)


@pytest.mark.parametrize("vertex_count", [3, 1000000])
def test_json_family_sizes_checked_before_building(vertex_count):
    # an 88-byte record whose parameters ask for a million-vertex path
    record = {"vertex_count": vertex_count, "edges": [[0, 1], [1, 2]],
              "family": {"kind": "path", "n": 1000000}}
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="does not reproduce the serialized edges"):
            graph_from_dict(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.mark.parametrize("family", ["caterpillar", [1], 0, ""],
                         ids=["str", "list", "zero", "empty-str"])
def test_json_family_must_be_an_object(family):
    record = build_path(3).to_dict()
    record["family"] = family
    with pytest.raises(GraphError, match="is not an object"):
        graph_from_dict(record)


@pytest.mark.parametrize("kind", [[], {}, 5, True, 1.5, None],
                         ids=["list", "object", "int", "bool", "float", "null"])
def test_json_family_kind_must_be_a_string(kind):
    record = build_path(3).to_dict()
    record["family"] = {"kind": kind}
    with pytest.raises(GraphError, match="bad family descriptor for kind"):
        graph_from_dict(record)


@pytest.mark.parametrize("family", [{}, {"kind": "mystery"}, {"kind": ""}],
                         ids=["no-kind", "unknown", "empty"])
def test_json_family_without_a_known_kind_loads_a_bare_graph(family):
    record = build_path(3).to_dict()
    record["family"] = family
    assert graph_from_dict(record) == build_path(3).graph


@pytest.mark.parametrize("changes", [
    {"names": {"bogus": 0}, "side_x": [3]},
    {"names": {"bogus": 0}},
    {"side_x": [3]},
    {"side_x": [0, 3, 3]},
    {"names": ["c1", "c1_1", "c2", "c2_1"]},
], ids=["both", "names", "side-x", "side-x-repeat", "names-list"])
def test_json_family_names_and_sides_must_match_rebuild(changes):
    handle = build_caterpillar(CaterpillarSpec(2, (1, 1)))  # P4
    with pytest.raises(GraphError, match="differs from the one its parameters rebuild"):
        graph_from_dict(_family_record(handle, **changes))


def test_json_family_names_and_sides_are_optional():
    handle = build_caterpillar(CaterpillarSpec(2, (1, 1)))
    record = handle.to_dict()
    del record["family"]["names"], record["family"]["side_x"]
    back = graph_from_dict(record)
    assert back.name_map == handle.name_map
    assert back.bipartition == handle.bipartition
    # an odd cycle has no sides to carry
    record = _family_record(build_cycle(3), side_x=[0])
    with pytest.raises(GraphError, match="side_x"):
        graph_from_dict(record)


def test_bipartition_requires_vertex_zero_in_x():
    with pytest.raises(GraphError):
        Bipartition(frozenset({1}), frozenset({0}))
