"""Graph containers and generators for the tree families studied here.

Vertices are dense integers ``0..n-1``; structural names (spine positions,
leaf slots, lobster roles) live in a :class:`FamilyHandle` next to the graph
so labelings stay plain integer vectors.  A graph's two sides are stored and
worked out in one place, :attr:`Graph.own_bipartition`: the family builders
fill it with the sides they build, any other graph works them out on first
use, in the same breadth-first search that finds whether it is connected,
and :func:`bipartition_of` reads them.
Everything is immutable after construction and safe to share between
threads: a value worked out on first use is a pure function of the graph,
so two threads that both work it out get the same one (see ``_cached``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class GraphError(ValueError):
    """Malformed graph, bipartition, or family parameters."""


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built
    without running ``__post_init__``.

    Only for values the library built or checked itself, already in the
    normal form ``__post_init__`` would give them (tuples, sorted edges,
    exact ints); anything from outside goes through the constructor or a
    ``from_dict``, which check it.  Each field is set as ``__post_init__``
    sets one, with ``object.__setattr__``, which fills a slot or an
    instance dictionary alike.

    The value classes are slotted (``Bipartition``, ``FamilyHandle``, the
    labelings and their verdict, the search's query and report, the
    analysis rows): an instance holds its fields and no dictionary, so a
    labeling a search keeps costs its two tuples and 48 bytes.  ``Graph``
    and ``CaterpillarSpec`` keep a dictionary, for their ``_cached``
    values: a value there is found ahead of the non-data descriptor, while
    a slot-backed cache would make every cached read (``own_bipartition``
    in each ``classify``, ``adjacency`` in each plan) a Python-level call.

    A field may also be a ``_cached`` property of ``cls``, given the value
    the property would compute: the value set here is the one it reads
    back, and it computes nothing.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class _cached:
    """A property worked out on its first read and kept on the instance.

    Like ``functools.cached_property``, but it takes no lock.  It is a
    non-data descriptor: the first read sets the value on the instance with
    ``object.__setattr__``, as ``_unchecked`` does, and every later read
    finds it there, so the function runs at most once per object in one
    thread.  Two threads that both read it first may both run it; every
    such value here is a pure function of the frozen instance, so they set
    equal values.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _sides(side_x: frozenset, n: int) -> "Bipartition":
    """The bipartition with side X ``side_x`` of the vertices 0..n-1, built
    unchecked: only for a ``side_x`` the caller knows two-colours its graph
    and holds vertex 0 when n > 0."""
    return _unchecked(Bipartition, side_x=side_x, side_y=frozenset(range(n)) - side_x)


def _require_int(what: str, key: str, value) -> int:
    """Return ``value`` if it is exactly an int; raise GraphError otherwise.

    int() would turn 2.7 into 2, and ``True`` would stand for 1:
    ``build_lobster(True)`` would build L_1 and write a record saying
    ``"p": true``, which the JSON loader refuses.
    """
    if type(value) is not int:
        raise GraphError(f"bad {what}: {key}={value!r} is not an integer")
    return value


def _double_star_sizes(m, n) -> None:
    """Raise GraphError unless m and n are ints of at least 1: the sizes of
    a double star S_{m,n}."""
    _require_int("double star parameter", "m", m)
    _require_int("double star parameter", "n", n)
    if m < 1 or n < 1:
        raise GraphError("double star needs m >= 1 and n >= 1")


def _lobster_size(p) -> None:
    """Raise GraphError unless p is an int of at least 1: the leg count of
    a lobster L_p."""
    _require_int("lobster parameter", "p", p)
    if p < 1:
        raise GraphError("lobster needs p >= 1")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a canonical edge order.

    Each edge pair is stored sorted and the edge list is sorted
    lexicographically; labelings index edges by that order, so the
    canonical form is what makes labeling files reproducible.  The vertex
    count and every endpoint must be exactly ``int``: ``True`` or ``1.0``
    is refused before any structural check, as in a JSON record.  Before
    that, ``edges`` must be a list or tuple of two-item lists or tuples.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # a generator would be used up by the type pass, and (0, 1, 2) would not unpack
        if not (isinstance(self.edges, (list, tuple))
                and all(isinstance(edge, (list, tuple)) and len(edge) == 2 for edge in self.edges)):
            raise GraphError("bad graph record: edges must be an array of [u, v] pairs")
        # int() would turn 1.9 into 1, and True would stand for vertex 1
        for x in (self.vertex_count, *(x for edge in self.edges for x in edge)):
            if type(x) is not int:
                raise GraphError(f"bad graph record: {x!r} is not an integer")
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

    @_cached
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @_cached
    def own_bipartition(self) -> Optional["Bipartition"]:
        """The graph's own two-colouring, or None when the graph is
        disconnected or not bipartite.

        The one stored copy of a graph's sides, and the one place that
        works them out.  A family builder fills it with the sides it built,
        so reading it runs no search; on any other graph it is worked out
        on first use and kept, like ``adjacency``, so classifying many
        labelings of one graph makes one breadth-first search of it.  The
        sides are the parity classes of each vertex's distance from vertex
        0 (``_distances``); an edge joining two vertices of equal parity
        closes an odd cycle.  Past that test every edge joins an even
        distance to an odd one, and vertex 0, at distance 0, is in side X,
        so the sides are built unchecked.
        """
        n = self.vertex_count
        if not self._connected:
            return None
        if n == 0:
            return _sides(frozenset(), 0)
        dist = self._distances
        if any(dist[u] % 2 == dist[v] % 2 for u, v in self.edges):
            return None
        return _sides(frozenset(v for v in range(n) if dist[v] % 2 == 0), n)

    @_cached
    def _connected(self) -> bool:
        """:func:`is_connected`'s answer, kept like ``adjacency``.

        A family builder fills it with True, so a search's entry check
        runs no search on a builder's graph.  Fewer than |V| - 1 edges
        cannot connect |V| vertices; that answer costs no adjacency, so it
        does not grow with |V|.
        """
        n = self.vertex_count
        return n <= 1 or (self.edge_count >= n - 1 and -1 not in self._distances)

    @_cached
    def _distances(self) -> list[int]:
        """Each vertex's distance from vertex 0, -1 where it is not
        reached: the one breadth-first search that both ``_connected`` and
        ``own_bipartition`` read, whichever asks first.  Kept like
        ``adjacency``."""
        return _bfs(self, 0)[1]

    @_cached
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map from sorted endpoint pair to position in the canonical order."""
        return {pair: i for i, pair in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def to_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        require_record(data, "graph", ("vertex_count", "edges"), GraphError)
        return cls(data["vertex_count"], data["edges"])


@dataclass(frozen=True, slots=True)
class Bipartition:
    """Ordered partite sets (X, Y); vertex 0 always sits in X.

    Every member must be exactly an ``int``, as in :class:`Graph`: ``True``
    or ``2.0`` would stand for vertex 1 or 2 in a set.
    """

    side_x: frozenset[int]
    side_y: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "side_x", frozenset(self.side_x))
        object.__setattr__(self, "side_y", frozenset(self.side_y))
        for x in (*self.side_x, *self.side_y):
            if type(x) is not int:
                raise GraphError(f"bipartition member {x!r} is not an integer")
        if self.side_x & self.side_y:
            raise GraphError("bipartition sides overlap")
        if self.side_x and 0 not in self.side_x:
            raise GraphError("canonical orientation requires vertex 0 in side X")

    @property
    def sizes(self) -> tuple[int, int]:
        return (len(self.side_x), len(self.side_y))


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

    @_cached
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

    @_cached
    def alpha(self) -> int:
        """Size of side X."""
        return sum(self.on_side_x)

    @_cached
    def beta(self) -> int:
        """Size of side Y."""
        return self.vertex_count - self.alpha


@dataclass(frozen=True, slots=True)
class FamilyHandle:
    """A generated graph plus its structural identity.

    ``name_map`` is a bijection from structural names ("c2", "c2_1", "x",
    "y3", ...) onto vertex indices; ``family`` is a small descriptor used by
    the JSON format (kind plus generator parameters).  The sides are the
    graph's own (:attr:`bipartition`), which a builder's graph holds.
    """

    graph: Graph
    name_map: dict[str, int]
    family: dict = field(default_factory=dict)

    def __post_init__(self):
        values = sorted(self.name_map.values())
        if values != list(range(self.graph.vertex_count)):
            raise GraphError("name_map must be a bijection onto all vertices")

    @property
    def bipartition(self) -> Optional[Bipartition]:
        """The graph's sides, ``graph.own_bipartition``: None when it has
        none, as for an odd cycle."""
        return self.graph.own_bipartition

    def vertex(self, name: str) -> int:
        return self.name_map[name]

    def to_dict(self) -> dict:
        record = self.graph.to_dict()
        family = dict(self.family)
        family["names"] = dict(self.name_map)
        bip = self.graph.own_bipartition
        if bip is not None:
            family["side_x"] = sorted(bip.side_x)
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
    changing them too.  The graph holds its sides, from ``spec.on_side_x``.

    Built unchecked (``spec`` checked its own parameters).  Every edge
    joins a spine vertex to a later vertex: first its own leaves, then the
    next spine vertex, which follows them.  So each pair is sorted and the
    list is in lexicographic order.  The names take 0..|V|-1 in turn.  An
    edge joins a spine vertex to one of its leaves or to the next spine
    vertex, and ``on_side_x`` puts each of those on the other side.
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
    bip = _sides(frozenset(v for v, on_x in enumerate(spec.on_side_x) if on_x), idx)
    graph = _unchecked(Graph, vertex_count=idx, edges=tuple(edges), own_bipartition=bip,
                       _connected=True)
    family = {"kind": "caterpillar", "leaf_counts": list(spec.leaf_counts)}
    return _unchecked(FamilyHandle, graph=graph, name_map=names, family=family)


def build_double_star(m: int, n: int) -> FamilyHandle:
    """Two adjacent centers, u with m leaves and v with n leaves.

    The caterpillar S_{m,n} under a double-star descriptor; its graph, which
    holds its sides, and its names are those of :func:`build_caterpillar`,
    which need no check.
    """
    _double_star_sizes(m, n)
    base = build_caterpillar(CaterpillarSpec(2, (m, n)))
    family = {"kind": "double_star", "m": m, "n": n,
              "center_u": "c1", "center_v": "c2"}
    return _unchecked(FamilyHandle, graph=base.graph, name_map=base.name_map, family=family)


def build_lobster(p: int) -> FamilyHandle:
    """Spider with p legs of length two: x - y_i - x_i for i = 1..p.

    Built unchecked: the edges (0, i) and then (i, p + i), i ascending in
    each run, are sorted pairs in lexicographic order; x, y_i and x_i name
    0, 1..p and p+1..2p; every edge joins some y_i (side Y) to x or x_i
    (side X), and the graph holds those sides.
    """
    _lobster_size(p)
    names = {"x": 0}
    for i in range(1, p + 1):
        names[f"y{i}"] = i
        names[f"x{i}"] = p + i
    edges = [(0, i) for i in range(1, p + 1)]
    edges += [(i, p + i) for i in range(1, p + 1)]
    bip = _sides(frozenset({0} | {p + i for i in range(1, p + 1)}), 2 * p + 1)
    graph = _unchecked(Graph, vertex_count=2 * p + 1, edges=tuple(edges), own_bipartition=bip,
                       _connected=True)
    return _unchecked(FamilyHandle, graph=graph, name_map=names, family={"kind": "lobster", "p": p})


def build_cycle(length: int) -> FamilyHandle:
    """Cycle v_0 v_1 ... v_{length-1} v_0.

    Built unchecked: the closing edge is written (0, length-1), right after
    (0, 1), so the sorted pairs stand in lexicographic order; v_i names i;
    for even length every edge joins an even vertex to an odd one, and
    the graph holds those sides; an odd cycle holds None.
    """
    _require_int("cycle parameter", "length", length)
    if length < 3:
        raise GraphError("cycle length must be >= 3")
    edges = [(0, 1), (0, length - 1)] + [(i, i + 1) for i in range(1, length - 1)]
    bip = _sides(frozenset(range(0, length, 2)), length) if length % 2 == 0 else None
    graph = _unchecked(Graph, vertex_count=length, edges=tuple(edges), own_bipartition=bip,
                       _connected=True)
    names = {f"v{i}": i for i in range(length)}
    return _unchecked(FamilyHandle, graph=graph, name_map=names,
                      family={"kind": "cycle", "length": length})


def build_path(n: int) -> FamilyHandle:
    """Path v_0 v_1 ... v_{n-1}.

    Built unchecked: the edges (i, i+1), i ascending, are sorted pairs in
    lexicographic order; v_i names i; every edge joins an even vertex to an
    odd one, and the graph holds those sides.
    """
    _require_int("path parameter", "n", n)
    if n < 1:
        raise GraphError("path needs at least one vertex")
    edges = [(i, i + 1) for i in range(n - 1)]
    graph = _unchecked(Graph, vertex_count=n, edges=tuple(edges),
                       own_bipartition=_sides(frozenset(range(0, n, 2)), n), _connected=True)
    names = {f"v{i}": i for i in range(n)}
    return _unchecked(FamilyHandle, graph=graph, name_map=names, family={"kind": "path", "n": n})


def build_star(p: int) -> FamilyHandle:
    """Star with p leaves; identical to the one-spine caterpillar.

    Its graph, which holds its sides, and its names are those of
    :func:`build_caterpillar`, which need no check.
    """
    _require_int("star parameter", "p", p)
    if p < 1:
        raise GraphError("star needs p >= 1")
    base = build_caterpillar(CaterpillarSpec(1, (p,)))
    return _unchecked(FamilyHandle, graph=base.graph, name_map=base.name_map,
                      family={"kind": "star", "p": p})


def build_complete_bipartite(m: int, n: int) -> FamilyHandle:
    """K_{m,n}: x_1..x_m are 0..m-1, y_1..y_n are m..m+n-1.

    Built unchecked: the edges (i, m+j), i and then j ascending, are sorted
    pairs in lexicographic order; the names take 0..m+n-1; every edge joins
    an x to a y, and the graph holds those sides.
    """
    _require_int("complete bipartite parameter", "m", m)
    _require_int("complete bipartite parameter", "n", n)
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs m, n >= 1")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    graph = _unchecked(Graph, vertex_count=m + n, edges=tuple(edges),
                       own_bipartition=_sides(frozenset(range(m)), m + n), _connected=True)
    names = {f"x{i + 1}": i for i in range(m)}
    names.update({f"y{j + 1}": m + j for j in range(n)})
    return _unchecked(FamilyHandle, graph=graph, name_map=names,
                      family={"kind": "complete_bipartite", "m": m, "n": n})


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _bfs(graph: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search from ``root``, each vertex's neighbours taken in
    ascending order.

    Returns the vertices in the order the search reaches them and each
    vertex's distance from ``root``, -1 where the search does not reach.
    """
    adj = graph.adjacency
    dist = [-1] * graph.vertex_count
    dist[root] = 0
    order = [root]
    for u in order:  # the loop visits what it appends
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return order, dist


def is_connected(graph: Graph) -> bool:
    """True iff a single component covers every vertex (K_1 counts).

    The answer is kept on the graph, so each graph is searched at most
    once, and a family builder's graph not at all.
    """
    return graph._connected


def bipartition_of(graph: Graph) -> Optional[Bipartition]:
    """A connected graph's sides, :attr:`Graph.own_bipartition`: the
    parity classes of each vertex's distance from vertex 0, with vertex 0
    in side X, or None when an odd cycle leaves the graph without two
    sides.  On a family builder's graph they are the sides it was built
    with.

    Disconnected input is rejected because side identity would be
    arbitrary.  The sides are kept on the graph, so each graph is searched
    at most once, whichever of this, :func:`is_connected` and
    ``own_bipartition`` asks first.
    """
    if not graph._connected:
        raise GraphError("bipartition_of requires a connected graph")
    return graph.own_bipartition


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "an array", tuple: "an array", str: "a string",
               bool: "a boolean", int: "a number", float: "a number", type(None): "null"}


def require_record(data, what: str, keys, error: type) -> None:
    """Raise ``error`` unless ``data`` is a JSON object holding every key in ``keys``.

    The message names what the record is and what was found instead, so a
    malformed file is reported in the record's terms, not Python's.
    """
    if not isinstance(data, dict):
        found = _JSON_KINDS.get(type(data), type(data).__name__)
        raise error(f"bad {what} record: expected a JSON object, got {found}")
    for key in keys:
        if key not in data:
            raise error(f"bad {what} record: missing key {key!r}")


def _ints(*keys):
    """Descriptor parser for a family whose parameters are plain ints."""
    return lambda family: tuple(_require_int("family descriptor", key, family[key])
                                for key in keys)


def _caterpillar_spec(family: dict) -> tuple:
    counts = family["leaf_counts"]
    if not isinstance(counts, (list, tuple)):
        raise GraphError(f"bad family descriptor: leaf_counts={counts!r} is not a list of integers")
    return (CaterpillarSpec(len(counts), tuple(counts)),)


# kind: (descriptor parser, the (|V|, |E|) its parameters imply, builder)
_FAMILIES = {
    "caterpillar": (_caterpillar_spec, lambda spec: (spec.vertex_count, spec.vertex_count - 1),
                    build_caterpillar),
    "double_star": (_ints("m", "n"), lambda m, n: (m + n + 2, m + n + 1), build_double_star),
    "lobster": (_ints("p"), lambda p: (2 * p + 1, 2 * p), build_lobster),
    "cycle": (_ints("length"), lambda length: (length, length), build_cycle),
    "path": (_ints("n"), lambda n: (n, n - 1), build_path),
    "star": (_ints("p"), lambda p: (p + 1, p), build_star),
    "complete_bipartite": (_ints("m", "n"), lambda m, n: (m + n, m * n),
                           build_complete_bipartite),
}


def graph_from_dict(data: dict):
    """Parse the JSON graph format.

    Returns a :class:`FamilyHandle` when a known family descriptor is
    present (the graph is rebuilt from its parameters and must match the
    serialized edge list, and so must the ``names`` and ``side_x`` the
    descriptor carries, if any), otherwise a bare :class:`Graph`.  The
    vertex and edge counts the parameters imply are compared with the
    record's before anything is built, so the work stays proportional to
    the record's size whatever the parameters ask for.  ``Graph.from_dict``
    is the check of the record; the family builders build unchecked, so the
    rebuild costs no second one, and its graph holds the sides that
    ``side_x`` is compared with.
    """
    graph = Graph.from_dict(data)
    family = data.get("family")
    if family is None:
        return graph
    if not isinstance(family, dict):
        raise GraphError(f"bad graph record: family {family!r} is not an object")
    kind = family.get("kind")
    if "kind" in family and not isinstance(kind, str):
        raise GraphError(f"bad family descriptor for kind {kind!r}: not a family name")
    entry = _FAMILIES.get(kind)
    if entry is None:
        return graph
    parse, size, build = entry
    try:
        params = parse(family)
    except KeyError as exc:
        raise GraphError(f"bad family descriptor for kind {kind!r}: "
                         f"missing parameter {exc.args[0]!r}") from None
    # the sizes first: they cost nothing, and building may cost what the parameters ask
    if (size(*params) != (graph.vertex_count, graph.edge_count)
            or (handle := build(*params)).graph != graph):
        raise GraphError("family descriptor does not reproduce the serialized edges")
    sides = handle.bipartition  # the rebuilt graph holds them: no search
    rebuilt = {"names": handle.name_map, "side_x": sides and sorted(sides.side_x)}
    for key in ("names", "side_x"):
        if key in family and family[key] != rebuilt[key]:
            raise GraphError(f"family descriptor {key}={family[key]!r} differs from "
                             f"the one its parameters rebuild")
    return handle


def graph_of(obj) -> Graph:
    """Accept either a Graph or a FamilyHandle and return the Graph."""
    return obj.graph if isinstance(obj, FamilyHandle) else obj
