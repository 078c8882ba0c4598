"""Graph containers and generators for the tree families studied here.

Vertices are dense integers ``0..n-1``; structural names (spine positions,
leaf slots, lobster roles) live in a :class:`FamilyHandle` next to the graph
so labelings stay plain integer vectors.  Everything is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


class GraphError(ValueError):
    """Malformed graph, bipartition, or family parameters."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a canonical edge order.

    Each edge pair is stored sorted and the edge list is sorted
    lexicographically; labelings index edges by that order, so the
    canonical form is what makes labeling files reproducible.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        canon = []
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError(f"edge {tuple(edge)} has an endpoint out of range")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def label_count(self) -> int:
        """Size of the label pool a total labeling of this graph draws from."""
        return self.vertex_count + len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map from sorted endpoint pair to position in the canonical order."""
        return {pair: i for i, pair in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def index_of_edge(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[pair]
        except KeyError:
            raise GraphError(f"no edge {pair} in graph") from None

    def to_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        try:
            n = data["vertex_count"]
            edges = tuple((u, v) for u, v in data["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad graph record: {exc}") from exc
        # Graph() itself accepts 1.9 or True as a vertex; a record must not
        for x in (n, *(x for edge in edges for x in edge)):
            if type(x) is not int:
                raise GraphError(f"bad graph record: {x!r} is not an integer")
        return cls(n, edges)


@dataclass(frozen=True)
class Bipartition:
    """Ordered partite sets (X, Y); vertex 0 always sits in X."""

    side_x: frozenset[int]
    side_y: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "side_x", frozenset(self.side_x))
        object.__setattr__(self, "side_y", frozenset(self.side_y))
        if self.side_x & self.side_y:
            raise GraphError("bipartition sides overlap")
        if self.side_x and 0 not in self.side_x:
            raise GraphError("canonical orientation requires vertex 0 in side X")

    @property
    def sizes(self) -> tuple[int, int]:
        return (len(self.side_x), len(self.side_y))

    def side_of(self, v: int) -> str:
        if v in self.side_x:
            return "X"
        if v in self.side_y:
            return "Y"
        raise GraphError(f"vertex {v} is on neither side")

    def validate_for(self, graph: Graph) -> None:
        """Check this bipartition actually two-colors ``graph``."""
        if self.side_x | self.side_y != frozenset(range(graph.vertex_count)):
            raise GraphError("bipartition does not cover all vertices")
        for u, v in graph.edges:
            if (u in self.side_x) == (v in self.side_x):
                raise GraphError(f"edge ({u},{v}) does not cross the bipartition")


@dataclass(frozen=True)
class CaterpillarSpec:
    """Spine length r and per-spine-vertex leaf counts n_1..n_r.

    The side sizes ``alpha`` (side X) and ``beta`` (side Y) drive every
    caterpillar formula in :mod:`magilab.constructions`.
    """

    spine_length: int
    leaf_counts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "leaf_counts", tuple(self.leaf_counts))
        # int() would turn 2.7 into 2 and True into 1
        for x in (self.spine_length, *self.leaf_counts):
            if type(x) is not int:
                raise GraphError(f"caterpillar parameter {x!r} is not an integer")
        if self.spine_length < 1:
            raise GraphError("spine_length must be >= 1")
        if len(self.leaf_counts) != self.spine_length:
            raise GraphError("leaf_counts length must equal spine_length")
        if any(c < 0 for c in self.leaf_counts):
            raise GraphError("leaf counts must be nonnegative")

    @property
    def vertex_count(self) -> int:
        return self.spine_length + sum(self.leaf_counts)

    @property
    def on_side_x(self) -> tuple[bool, ...]:
        """Side of each vertex in canonical order (see :func:`build_caterpillar`).

        Side X holds the odd-position spine vertices and the leaves of the
        even-position ones; side Y holds the rest.
        """
        sides = []
        for i, count in enumerate(self.leaf_counts):
            odd = i % 2 == 0  # spine positions count from 1
            sides.append(odd)
            sides.extend([not odd] * count)
        return tuple(sides)

    @property
    def alpha(self) -> int:
        """Size of side X."""
        return sum(self.on_side_x)

    @property
    def beta(self) -> int:
        """Size of side Y."""
        return self.vertex_count - self.alpha


@dataclass(frozen=True)
class FamilyHandle:
    """A generated graph plus its structural identity.

    ``name_map`` is a bijection from structural names ("c2", "c2_1", "x",
    "y3", ...) onto vertex indices; ``family`` is a small descriptor used by
    the JSON format (kind plus generator parameters).
    """

    graph: Graph
    bipartition: Optional[Bipartition]
    name_map: dict[str, int]
    family: dict = field(default_factory=dict)

    def __post_init__(self):
        values = sorted(self.name_map.values())
        if values != list(range(self.graph.vertex_count)):
            raise GraphError("name_map must be a bijection onto all vertices")
        if self.bipartition is not None:
            self.bipartition.validate_for(self.graph)

    def vertex(self, name: str) -> int:
        return self.name_map[name]

    def to_dict(self) -> dict:
        record = self.graph.to_dict()
        family = dict(self.family)
        family["names"] = dict(self.name_map)
        if self.bipartition is not None:
            family["side_x"] = sorted(self.bipartition.side_x)
        record["family"] = family
        return record


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def build_caterpillar(spec: CaterpillarSpec) -> FamilyHandle:
    """Caterpillar: spine path c_1..c_r with n_i leaves joined to c_i.

    Canonical vertex order is c_1, its leaves, c_2, its leaves, and so on,
    which keeps every derived labeling byte-for-byte reproducible.  The
    closed forms in :mod:`magilab.constructions` label vertices by walking
    this order without building the graph, so changing the order means
    changing them too.  Sides come from ``spec.on_side_x``.
    """
    names: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    spine = -1
    idx = 0
    for i, count in enumerate(spec.leaf_counts, 1):
        if spine >= 0:
            edges.append((spine, idx))
        spine = idx
        names[f"c{i}"] = idx
        idx += 1
        for j in range(1, count + 1):
            names[f"c{i}_{j}"] = idx
            edges.append((spine, idx))
            idx += 1
    graph = Graph(idx, tuple(edges))
    side_x = frozenset(v for v, on_x in enumerate(spec.on_side_x) if on_x)
    bip = Bipartition(side_x, frozenset(range(idx)) - side_x)
    family = {"kind": "caterpillar", "leaf_counts": list(spec.leaf_counts)}
    return FamilyHandle(graph, bip, names, family)


def build_double_star(m: int, n: int) -> FamilyHandle:
    """Two adjacent centers, u with m leaves and v with n leaves."""
    if m < 1 or n < 1:
        raise GraphError("double star needs m >= 1 and n >= 1")
    base = build_caterpillar(CaterpillarSpec(2, (m, n)))
    family = {"kind": "double_star", "m": m, "n": n,
              "center_u": "c1", "center_v": "c2"}
    return FamilyHandle(base.graph, base.bipartition, base.name_map, family)


def build_lobster(p: int) -> FamilyHandle:
    """Spider with p legs of length two: x - y_i - x_i for i = 1..p."""
    if p < 1:
        raise GraphError("lobster needs p >= 1")
    names = {"x": 0}
    for i in range(1, p + 1):
        names[f"y{i}"] = i
        names[f"x{i}"] = p + i
    edges = [(0, i) for i in range(1, p + 1)]
    edges += [(i, p + i) for i in range(1, p + 1)]
    graph = Graph(2 * p + 1, tuple(edges))
    side_x = frozenset({0} | {p + i for i in range(1, p + 1)})
    bip = Bipartition(side_x, frozenset(range(1, p + 1)))
    return FamilyHandle(graph, bip, names, {"kind": "lobster", "p": p})


def build_cycle(length: int) -> FamilyHandle:
    if length < 3:
        raise GraphError("cycle length must be >= 3")
    edges = [(i, (i + 1) % length) for i in range(length)]
    graph = Graph(length, tuple(edges))
    bip = None
    if length % 2 == 0:
        evens = frozenset(range(0, length, 2))
        bip = Bipartition(evens, frozenset(range(1, length, 2)))
    names = {f"v{i}": i for i in range(length)}
    return FamilyHandle(graph, bip, names, {"kind": "cycle", "length": length})


def build_path(n: int) -> FamilyHandle:
    if n < 1:
        raise GraphError("path needs at least one vertex")
    edges = [(i, i + 1) for i in range(n - 1)]
    graph = Graph(n, tuple(edges))
    evens = frozenset(range(0, n, 2))
    bip = Bipartition(evens, frozenset(range(1, n, 2)))
    names = {f"v{i}": i for i in range(n)}
    return FamilyHandle(graph, bip, names, {"kind": "path", "n": n})


def build_star(p: int) -> FamilyHandle:
    """Star with p leaves; identical to the one-spine caterpillar."""
    if p < 1:
        raise GraphError("star needs p >= 1")
    base = build_caterpillar(CaterpillarSpec(1, (p,)))
    return FamilyHandle(base.graph, base.bipartition, base.name_map,
                        {"kind": "star", "p": p})


def build_complete_bipartite(m: int, n: int) -> FamilyHandle:
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs m, n >= 1")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    graph = Graph(m + n, tuple(edges))
    bip = Bipartition(frozenset(range(m)), frozenset(range(m, m + n)))
    names = {f"x{i + 1}": i for i in range(m)}
    names.update({f"y{j + 1}": m + j for j in range(n)})
    return FamilyHandle(graph, bip, names, {"kind": "complete_bipartite", "m": m, "n": n})


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def is_connected(graph: Graph) -> bool:
    """True iff a single component covers every vertex (K_1 counts)."""
    n = graph.vertex_count
    if n <= 1:
        return True
    adj = graph.adjacency
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                queue.append(v)
    return reached == n


def bipartition_of(graph: Graph) -> Optional[Bipartition]:
    """Two-color a connected graph by breadth-first layering.

    Returns None when an odd closed walk makes two-coloring impossible.
    Disconnected input is rejected because side identity would be arbitrary.
    """
    if not is_connected(graph):
        raise GraphError("bipartition_of requires a connected graph")
    n = graph.vertex_count
    if n == 0:
        return Bipartition(frozenset(), frozenset())
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    adj = graph.adjacency
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    side_x = frozenset(v for v in range(n) if color[v] == 0)
    return Bipartition(side_x, frozenset(range(n)) - side_x)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _int_param(family: dict, key: str) -> int:
    value = family[key]
    # build_lobster(True) would quietly build L_1
    if type(value) is not int:
        raise GraphError(f"bad family descriptor: {key}={value!r} is not an integer")
    return value


def _caterpillar_from(family: dict) -> FamilyHandle:
    counts = family["leaf_counts"]
    if not isinstance(counts, (list, tuple)):
        raise GraphError(f"bad family descriptor: leaf_counts={counts!r} is not a list of integers")
    return build_caterpillar(CaterpillarSpec(len(counts), tuple(counts)))


_FAMILY_BUILDERS = {
    "caterpillar": _caterpillar_from,
    "double_star": lambda f: build_double_star(_int_param(f, "m"), _int_param(f, "n")),
    "lobster": lambda f: build_lobster(_int_param(f, "p")),
    "cycle": lambda f: build_cycle(_int_param(f, "length")),
    "path": lambda f: build_path(_int_param(f, "n")),
    "star": lambda f: build_star(_int_param(f, "p")),
    "complete_bipartite": lambda f: build_complete_bipartite(_int_param(f, "m"),
                                                             _int_param(f, "n")),
}


def graph_from_dict(data: dict):
    """Parse the JSON graph format.

    Returns a :class:`FamilyHandle` when a known family descriptor is
    present (the graph is rebuilt from its parameters and must match the
    serialized edge list), otherwise a bare :class:`Graph`.
    """
    graph = Graph.from_dict(data)
    family = data.get("family")
    if not family:
        return graph
    kind = family.get("kind")
    builder = _FAMILY_BUILDERS.get(kind)
    if builder is None:
        return graph
    try:
        handle = builder(family)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"bad family descriptor for kind {kind!r}: {exc}") from exc
    if handle.graph != graph:
        raise GraphError("family descriptor does not reproduce the serialized edges")
    return handle


def graph_of(obj) -> Graph:
    """Accept either a Graph or a FamilyHandle and return the Graph."""
    return obj.graph if isinstance(obj, FamilyHandle) else obj
