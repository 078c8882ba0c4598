"""Exhaustive backtracking search for edge-magic and consecutive labelings.

This module is the independent oracle the theorem suites are checked
against, so it prunes only on definitional facts, never on a theorem it
grades.  There is one engine per question.

Consecutive searches (offset b given) run a sum-window DFS with no loop
over the magic constant k.  Edge labels k - f(u) - f(v) are exactly the
block {b+1 .. b+|E|} if and only if the |E| vertex sums f(u) + f(v) are
distinct and span |E| - 1; then k = min sum + b + |E|.  (This generalizes
to every b the super edge-magic lemma of Figueroa-Centeno, Ichishima and
Muntaner-Batle, Discrete Math. 231, 2001.)  Summing the magic condition
over all edges bounds k through the degree-weighted label sum; that window
becomes a range of admissible sums, and no sum outside it is ever free.

``feasible_b_set`` searches only the offsets b <= |V|/2 and mirrors the
answers: complementing every label maps the consecutive labelings at b onto
those at |V| - b (``constructions.dual``), so b and |V| - b are feasible
together by definition.  The mirror grades no theorem, and each mirrored
absent offset inherits the exhaustive search of its partner.

Edge-magic searches (no offset) keep an outer loop over that k window:
each k forces every edge label to k - f(u) - f(v), which must be unused.

All three engines (these two and the graceful search) walk one placement
plan, ``_plan``: a BFS order from a root over the non-leaves, then the
leaves, so every vertex but the first closes at least one edge the moment
it is placed.  The root is a centre of the max-degree vertices: of least
eccentricity among them, the lowest-numbered on a tie.  So the DFS cost
does not hang on where the numbering puts the root, and on a path the
root's mirror image is placed at most two steps after it, where its
symmetry bound cuts early.  Each keeps its DFS state in Python ints used as
bit sets (the free labels, plus the free sums, a mirrored copy of the free
labels, or the free differences and their mirror), passed down the
recursion, so backtracking undoes nothing.  A vertex's candidate labels
are one mask, visited lowest first.

The two magic engines prune with an O(1) degree-weighted sum check per
candidate label.  It uses sum over edges of (f(u) + f(v)) =
sum of deg(v) * f(v): the placed vertices fix part of it, and the unplaced
ones add sum of (deg - 1) * f, which lies between their total weight times
the lowest and the highest free label.  Leaves weigh nothing, so with
leaves last that share is exactly 0 once the last non-leaf is placed.
The check rests only on that identity, the sum window and labels (and
sums) being distinct, which is the definition itself, so it grades
nothing.

The consecutive engine also drops a branch as soon as a free label is dead,
which refutes most absent offsets long before the leaves.  With the sums so
far in [lo, hi], every final sum lies in [A, B] = [hi - |E| + 1, lo + |E| - 1].
A free label x is dead when no pool label y gives A <= x + y <= B, and that
branch has no labeling below it:
  - the pool holds exactly |V| labels, so x goes to some unplaced vertex;
  - that vertex has an edge, whose other end gets some pool label y;
  - the edge's sum x + y is one of the final sums, so it lies in [A, B].
x is dead when x >= B (then y < 1) or x < A - max(pool) (then y would
exceed the highest pool label).  Like the other checks it uses only the
definition.

Both magic engines break every automorphism of the graph and expand each
labeling they reach into its orbit (Puget, "Breaking symmetries in all
different problems", IJCAI 2005).  An automorphism p maps a labeling f to
f o p, whose edge uv takes the label f gives the edge p(u)p(v): the same
labels and the same constant, so f o p is a labeling of the same kind, and
the labelings fall into orbits.  Labels are distinct, so an orbit has
|Aut| members, and exactly one is least in placement order, lowest
f(v_1) first, then f(v_2), and so on.  With O_i the orbit of v_i under the
pointwise stabiliser G_i of v_1..v_(i-1), f is that least member exactly
when f(v_i) < f(w) for every i and every w != v_i in O_i: the least
f(v_1) in the orbit is the least label on O_1, only G_2 keeps it, and so
on down the order.  One bound per vertex is enough.  If w lies in O_j and
in O_k with j < k, take q in G_j with q(v_j) = w and p in G_k with
p(v_k) = w.  Then p^-1 o q lies in G_j and sends v_j to v_k, so v_k is in
O_j, and f(w) > f(v_k) > f(v_j).  So w needs only the bound of the latest
such v_k, which ``_plan`` calls ``below``.  An orbit with a labeling
has a least one, so an offset where the DFS reaches no labeling has none.

The group is split as Aut = R.T.  T permutes the vertices within each twin
class (vertices with equal open neighbourhoods), and every such
permutation is an automorphism.  Automorphisms map twin classes onto twin
classes, so each coset p.T holds exactly one automorphism that is
increasing on every twin class; R is those.  If every placed vertex keeps
its place under p = q o t, with q in R and t in T, then q maps each placed
vertex's class onto itself.  Conversely, for such a q, a t inside the
classes can undo q on the placed vertices and send v_i to any vertex of
q(class(v_i)) that is not placed.  So O_i is the union of q(class(v_i))
over the q in R that map the class of every placed vertex onto itself,
less the placed vertices.  One backtracker, ``_class_maps``, lists R, T
and these orbits.  Over the twin classes it lists R from no prefix, and
``_class_orbits`` reads each orbit from the maps that fix a prefix of the
classes.  Over the vertices, each free to go to any vertex of its twin
class with no edge to check, it lists T.  ``_r_and_t`` hands R and T,
lazily, to the leaves and to ``compute_automorphisms``.

At a leaf g the engines emit g o r o t for every r in R and t in T (see
``_orbit``).  The plan places each twin class in ascending vertex order,
and its members bound each other in that order, so g is ascending on
every twin class, and so is g o r.  With ``canonical_only`` the engines
emit only the g o r: in each coset g o r o T they are the one member
that labels every twin class in ascending vertex order, which is what
``canonical_only`` selects.

Both magic engines hand each leaf, its vertex labels and its constant k,
to one result path, ``_Leaves``.  The DFS tracks edge labels only as
used bits, so ``_Leaves`` derives each one by definition, k - f(u) - f(v),
before it expands the orbit.  The DFS reaches one leaf per orbit, so the
leaves it counts are the orbits, reported as ``SearchReport.orbit_count``.
Results of the magic searches are reported sorted by vertex-label vector,
which makes output independent of the internal iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, starmap, tee
from operator import itemgetter
from typing import NamedTuple, Optional

from .graphs import Graph, _bfs, is_connected
from .labelings import TotalLabeling, VertexLabeling

DEFAULT_BUDGET = 22  # maximum |V|+|E| a search accepts unless given a larger budget


class SearchError(ValueError):
    """Query malformed or graph outside an operation's preconditions."""


class BudgetExceeded(RuntimeError):
    """Explicit refusal: the requested exhaustive sweep exceeds the label budget."""


def _require_int(name: str, value, least: Optional[int] = None) -> None:
    """Reject a search parameter that is not exactly an int, or is below ``least``.

    ``True`` and ``1.0`` are not ints here.  None passes: the parameter is unset.
    """
    if value is None:
        return
    if type(value) is not int:
        raise SearchError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise SearchError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class SearchQuery:
    """What to search for.

    ``b`` present means consecutive search with that block offset; absent
    means any edge-magic labeling.  ``canonical_only`` keeps only the
    labelings that label every twin class (vertices with identical
    neighborhoods) in ascending vertex order, shrinking the enumeration
    without changing which queries are satisfiable.  Either way the search
    reaches one labeling per orbit of the automorphism group, Aut = R.T
    with T the permutations inside the twin classes, and emits its orbit:
    every g o r o t, or with ``canonical_only`` every g o r (see the module
    docstring).  ``limit``, when given, stops the search after that many
    labelings (at least 1): the first ones in search order, orbit by orbit,
    which need not have the lowest k.  Search order follows the placement
    plan (see ``_plan``), so which labelings a ``limit`` search returns,
    ``limit=1`` included, depends on the plan; a full search's do not.
    ``b``, ``magic_constant`` and ``limit`` must be exactly ``int`` (or
    None) and ``canonical_only`` exactly ``bool``: ``True`` for ``b``,
    ``1.0`` or ``"no"`` raise :class:`SearchError`.
    """

    graph: Graph
    b: Optional[int] = None
    magic_constant: Optional[int] = None
    limit: Optional[int] = None
    canonical_only: bool = False

    def __post_init__(self):
        _require_int("b", self.b)
        _require_int("magic_constant", self.magic_constant)
        _require_int("limit", self.limit, 1)
        if type(self.canonical_only) is not bool:
            raise SearchError(f"canonical_only must be a bool, got {self.canonical_only!r}")
        if self.b is not None and not 0 <= self.b <= self.graph.vertex_count:
            raise SearchError(f"b={self.b} outside 0..{self.graph.vertex_count}")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search; ``exhausted`` is False only when a limit cut it short.

    ``orbit_count`` is the number of automorphism orbits the labelings fall
    into: the search reaches one labeling per orbit and emits that orbit
    (see ``SearchQuery``), so it counts the orbits it reached.
    """

    labelings: tuple[TotalLabeling, ...]
    constants_found: frozenset[int]
    exhausted: bool
    solution_count: int
    b: Optional[int] = None
    orbit_count: int = 0

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "exhausted": self.exhausted,
            "constants": sorted(self.constants_found),
            "count": self.solution_count,
            "labelings": [lab.to_dict() for lab in self.labelings],
        }


# ---------------------------------------------------------------------------
# placement machinery
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """A placement order and the symmetry it breaks; see ``_plan``.

    ``sym`` is what ``_class_maps`` needs to list R, or None when colour
    refinement tells every twin class apart and R is the identity alone.
    T needs nothing beyond ``groups`` (see ``_r_and_t``).
    """

    steps: list
    groups: list  # the twin classes, numbered by first placement, each ascending
    sym: Optional[tuple]  # what _class_maps lists R from; None when R is the identity


def _plan(graph: Graph) -> _Plan:
    """Placement order as per-position steps, shared by every engine, and the
    bounds that break every automorphism of the graph.

    The order comes from the BFS from the root that ``_centre`` picked:
    the vertices of degree at least 2 in the order the BFS reaches them,
    then the leaves in the order it reaches them.  In a connected graph
    with at least 3 vertices the root has degree at least 2, so it comes
    first; K2 is just the root and its neighbour, both leaves.  That is a
    BFS over the non-leaves followed by the leaves, each in the order its
    neighbour was placed: a leaf is a dead end, so no non-leaf is reached
    through one, and each leaf is reached from its one neighbour.  Every
    vertex after the root closes an edge to an earlier one: the non-leaves
    induce a connected subgraph (the inner vertices of a path between two
    non-leaves are non-leaves) and every leaf's neighbour is among them.
    So every prefix of the order induces a connected graph.  Leaves come last because they carry no weight in the
    degree-weighted sum check of the magic engines: once the last non-leaf
    is placed, that check is exact.

    The root is the lowest-numbered vertex of least eccentricity among those
    of highest degree (``_centre``).  A high degree closes many edges early,
    and a central root keeps the BFS layers few, so a vertex and its mirror
    image sit close in the order and the symmetry bound of the later one
    prunes early: over every offset of P10, the full enumerations visit
    38,564 DFS nodes from a middle root and 73,692 from a root next to an
    end.

    ``steps[i]`` is ``(v, u0, more, below, dw, rest)``: the vertex
    placed at position i, the earlier vertex u0 of its first closed edge
    (``None`` for the root), the earlier vertices of its other closed edges,
    and its symmetry bound.  The steps name no edge: the engines check
    each closed edge through the labels of its two ends, and the magic
    engines derive the edge labels at the leaf.  ``dw`` is
    deg(v) - 1, the weight of v's label in the sum check, and ``rest`` the
    total weight of the vertices after position i.

    Twins (equal open neighbourhoods) are placed in ascending vertex order.
    They share their neighbours, are never adjacent and have equal degree.
    Only a visited neighbour appends a vertex to the BFS, and the first
    visited neighbour of a twin class appends every member not yet reached,
    from its sorted adjacency; a class is all leaves or all non-leaves, so
    the split keeps its members in that order.  Twins also have equal
    eccentricity: they have the same distance to every other vertex, and
    distance 2 to each other through a shared neighbour (the graph is
    connected).  So the root, the lowest-numbered vertex of its degree and
    eccentricity, is the lowest of its class, and the rest of the class
    follows it in the same way.
    Number the classes in the order their first members are placed: then
    the vertices placed before the first member of class c are members of
    the classes below c.

    v's label must exceed that of ``below``, the latest earlier vertex whose
    orbit under the pointwise stabiliser of the vertices placed before it
    holds v, or that of the sentinel slot ``n`` of the labels list (label 0)
    when there is none (the module docstring has the proof).  For a vertex
    after the first of its class that is the member placed just before it.
    For the first member of class c it is the first member of the latest
    class c' < c whose orbit under H_c' holds c (see ``_class_orbits``).
    The plan keeps ``_class_orbits``'s ``sym``, so that ``_r_and_t`` can
    list R, lazily, when a search reaches its first labeling.
    """
    n = graph.vertex_count
    adj = graph.adjacency
    degree = [len(nbrs) for nbrs in adj]
    reached = _centre(graph, degree)[0]
    order = [v for v in reached if degree[v] > 1] + [v for v in reached if degree[v] < 2]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    ids: dict[tuple, int] = {}
    groups: list[list[int]] = []
    cls = [0] * n
    for v in order:
        c = cls[v] = ids.setdefault(adj[v], len(groups))
        if c == len(groups):
            groups.append([])
        groups[c].append(v)
    latest, sym = _class_orbits(adj, groups, cls)
    below = [n] * n
    for group in groups:
        for prev, v in zip(group, group[1:]):
            below[v] = prev
    for x, c in latest.items():
        below[groups[x][0]] = groups[c][0]
    rest = sum(degree) - n
    steps = []
    for i, v in enumerate(order):
        earlier = [u for u in adj[v] if pos[u] < i]
        rest -= degree[v] - 1
        steps.append((v, earlier[0] if earlier else None, tuple(earlier[1:]), below[v],
                      degree[v] - 1, rest))
    return _Plan(steps, groups, sym)


def _centre(graph: Graph, degree) -> tuple[list[int], list[int]]:
    """``_bfs`` from the root: the lowest-numbered vertex of least
    eccentricity among those of highest degree, found by one breadth-first
    search from each of them."""
    top = max(degree)
    return min((_bfs(graph, v) for v, d in enumerate(degree) if d == top),
               key=lambda search: max(search[1]))


def _class_orbits(adj, groups, cls):
    """For each twin class x that lies in the orbit of some class c < x
    under H_c, the latest such c; and the ``sym`` of ``_Plan``, which
    ``_class_maps`` lists R from, or None when R is the identity alone.
    ``cls`` gives the class of each vertex.

    H_c is the set of q in R that map each class below c onto itself.  An
    automorphism that is increasing on every twin class is fixed by where
    it sends the classes, and a map of the classes lifts to one exactly when
    it keeps class sizes and class adjacency: two classes are joined by
    every edge between them or by none, as twins share their neighbours.
    Colour refinement of the classes (size and degree, then the colours of
    the neighbouring classes) runs until no colour splits; every class keeps
    its colour under such a map, and when the colours tell every class apart
    R is the identity alone.  Otherwise the orbit of c is c and every class
    x to which some map that fixes the classes below c sends c: such an x
    lies above c, has c's colour and is next to every earlier neighbour of
    c, the checks ``_class_maps`` makes on each class it places.
    """
    m = len(groups)
    nbrs = [{cls[u] for u in adj[group[0]]} for group in groups]
    color = [(len(group), len(adj[group[0]])) for group in groups]
    count = len(set(color))
    while count < m:
        palette: dict = {}
        color = [palette.setdefault((x, *sorted([color[d] for d in ns])), len(palette))
                 for x, ns in zip(color, nbrs)]
        if len(palette) == count:
            break
        count = len(palette)
    latest: dict = {}
    if count == m:
        return latest, None
    kin: dict = {}  # the classes of each colour, as a bit set
    for c, x in enumerate(color):
        kin[x] = kin.get(x, 0) | 1 << c
    kin = [kin[x] for x in color]
    nb = [sum([1 << d for d in ns]) for ns in nbrs]
    back = [[d for d in ns if d < c] for c, ns in enumerate(nbrs)]
    sym = (kin, nb, back)
    for c in range(m):
        cand = kin[c] >> (c + 1) << (c + 1)  # the classes of c's colour above c
        for d in back[c]:
            cand &= nb[d]
        for x in range(c + 1, cand.bit_length()):
            if cand >> x & 1 and next(_class_maps(sym, [*range(c), x]), None):
                latest[x] = c  # a later c overwrites an earlier one
    return latest, sym


def _class_maps(sym, img: list):
    """Yield, as tuples and lowest images first, the one-to-one maps of a
    list of classes that start with ``img``, a prefix that passes the
    checks below.

    ``sym`` is ``(kin, nb, back)``: for each class, the images it may take
    and the images next to it as bit sets, and its neighbours numbered
    below it.  Each class from ``len(img)`` on goes to an unused image it
    may take, next to the image of each of those neighbours.  Over the twin
    classes (see ``_class_orbits``) the images are the classes, each class
    may take those of its colour, and at the end every edge between classes
    was checked once; a bijection that keeps every edge of a finite graph is
    an automorphism of it, so the maps lift to R.  Over the vertices (see
    ``_r_and_t``) the images are the vertices, each may take any vertex of
    its twin class, and there is no neighbour to check: the maps are T.
    From the empty prefix the first map sends each class to the lowest image
    left unused, which is the identity.
    """
    kin, nb, back = sym
    c, m = len(img), len(kin)
    free = (1 << m) - 1 - sum([1 << x for x in img])  # the classes img leaves unused
    img, todo = list(img), []  # todo: the untried images of each class mapped here
    while True:
        if c == m:
            yield tuple(img)
            cand = 0
        else:
            cand = free & kin[c]
            for d in back[c]:
                cand &= nb[img[d]]
        while not cand:  # back up to the latest class with an untried image
            if not todo:
                return
            cand = todo.pop()
            free |= 1 << img.pop()
            c -= 1
        low = cand & -cand
        todo.append(cand ^ low)
        img.append(low.bit_length() - 1)
        free ^= low
        c += 1


def _r_and_t(plan: _Plan, canonical_only: bool = False):
    """R and T as two lazy listings of vertex maps, each with the identity
    first: the one place the leaves (``_orbit``) and
    ``compute_automorphisms`` read the group from.

    ``_class_maps`` lists both.  R is its maps of the twin classes.  A map
    of the classes sends the j-th member of a class to the j-th member of
    its image, so that it is increasing on every twin class.  With ``flat``
    the vertices listed class by class, the members of the images listed in
    the same way line up with ``flat``, and ``at`` reads the vertex map off.

    T is the set of maps that send each vertex to a member of its own twin
    class.  Twins share their neighbours, so there is no edge to check: T
    is ``_class_maps`` over the vertices in ``flat``'s order, each of which
    may go to any vertex of its class, with no neighbours.  Its maps list
    the image of each vertex of ``flat``, so ``at`` alone reads them off.
    Earlier classes vary slowest, and each class runs through its orders
    lexicographically.  With ``canonical_only``, or when no twin class has
    two members, T is the identity alone.
    """
    groups = plan.groups
    flat = [v for group in groups for v in group]
    # at(seq) reads, for each vertex v in turn, the entry at v's place in flat
    at = _getter(sorted(range(len(flat)), key=flat.__getitem__))
    qs = [range(len(groups))] if plan.sym is None else _class_maps(plan.sym, [])
    ts = [flat]
    if not canonical_only and len(groups) < len(flat):
        kin: list = []  # for each vertex of flat, the vertices of its twin class
        for group in groups:
            kin += [sum([1 << v for v in group])] * len(group)
        ts = _class_maps((kin, None, [()] * len(flat)), [])
    return (at([w for x in q for w in groups[x]]) for q in qs), map(at, ts)


def _getter(index):
    """``seq -> tuple(seq[i] for i in index)``, as one C call."""
    return itemgetter(*index) if len(index) > 1 else lambda seq: (seq[index[0]],)


def _orbit(graph: Graph, plan: _Plan, canonical_only: bool):
    """The expansion of a DFS leaf: ``members(vl, el)`` yields its orbit.

    The leaf g is the least labeling of its orbit, which is g o r o t over r
    in R and t in T, all distinct.  The edge labels of g o p are g's edge
    labels permuted by p's action on the edges, so each member is two index
    maps applied to the leaf's label tuples.  With ``canonical_only`` T is
    the identity alone (see ``_r_and_t``): g o r is then the one member of
    its coset that labels each twin class ascending.  ``_Leaves`` calls
    this at the first leaf, so a search with no labeling makes no maps, and
    the maps of R and of T are made one at a time as a search reads them,
    so a ``limit`` search builds neither group.
    """
    edges, edge_index = graph.edges, graph.edge_index
    identity = tuple(range(graph.vertex_count))

    def maps(p):
        if p == identity:
            return tuple, tuple  # tuple() hands a tuple back unchanged
        return _getter(p), _getter([edge_index[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
                                    for u, v in edges])

    # a copy of a tee replays the maps made so far and makes the rest on demand
    rs, ts = _r_and_t(plan, canonical_only)
    reps, made = tee(map(maps, rs), 1)[0], tee(map(maps, ts), 1)[0]

    def members(vl, el):
        for rv, re in reps.__copy__():
            h, he = rv(vl), re(el)
            for tv, te in made.__copy__():
                yield tv(h), te(he)
    return members


def _k_window(graph: Graph, labels: list[int]):
    """Integer window of conceivable magic constants.

    Summing k over all edges and adding each vertex label once gives
    |E| * k = T + sum of (deg(v) - 1) * f(v), where T is the sum of all
    labels.  The vertex labels are distinct values from ``labels``
    (ascending) and no weight is negative in a connected graph with an
    edge, so pairing the weights, largest first, with ``labels`` ascending
    bounds the second term from below, and with ``labels`` descending from
    above.  Consecutive searches pass their vertex pool, edge-magic ones
    1..|V|+|E|.
    """
    t = graph.label_count * (graph.label_count + 1) // 2
    weights = sorted((graph.degree(v) - 1 for v in range(graph.vertex_count)), reverse=True)
    low = sum(w * x for w, x in zip(weights, labels))
    high = sum(w * x for w, x in zip(weights, reversed(labels)))
    return -(-(t + low) // graph.edge_count), (t + high) // graph.edge_count


class _Leaves:
    """The one result path of both magic engines: the DFS hands ``take`` each
    leaf it reaches, a vertex labeling and its constant k.

    Every edge uv then takes the label k - f(u) - f(v), by definition, and
    ``_orbit``, built at the first leaf, expands the leaf into its orbit,
    cut to the room a ``limit`` leaves.  The DFS reaches exactly one leaf
    per orbit, so ``leaves`` is the number of orbits kept; under a
    ``limit`` the last one may be cut short, but it is never empty.
    """

    def __init__(self, graph: Graph, plan: _Plan, limit: Optional[int], canonical_only: bool):
        self.graph, self.plan = graph, plan
        self.limit, self.canonical_only = limit, canonical_only
        self.members = None  # see _orbit
        self.sols: list[tuple] = []
        self.constants: set[int] = set()
        self.leaves = 0
        self.full = False  # the limit is reached: the search is over

    def take(self, vl: tuple, k: int) -> bool:
        """Keep the orbit of leaf ``vl`` at constant k; False once the search is over."""
        if self.members is None:
            self.members = _orbit(self.graph, self.plan, self.canonical_only)
        self.leaves += 1
        self.constants.add(k)
        el = tuple([k - vl[u] - vl[v] for u, v in self.graph.edges])
        room = None if self.limit is None else self.limit - len(self.sols)
        self.sols.extend(islice(self.members(vl, el), room))
        self.full = len(self.sols) == self.limit
        return not self.full

    def report(self, b: Optional[int]) -> SearchReport:
        """The labelings kept, sorted by vertex labels."""
        self.sols.sort()
        labelings = tuple(starmap(TotalLabeling.trusted, self.sols))
        return SearchReport(labelings, frozenset(self.constants), not self.full,
                            len(self.sols), b, self.leaves)


def _enumerate_consecutive(graph: Graph, b: int, magic_constant: Optional[int],
                           limit: Optional[int], plan: _Plan,
                           canonical_only: bool) -> SearchReport:
    """Sum-window DFS: every consecutive labeling at offset b, with no loop over k.

    The graph needs an edge.  ``plan`` is the caller's ``_plan`` of it (a
    sweep over offsets builds it once).  The DFS reaches one labeling per
    orbit, and ``_Leaves`` expands and counts it.

    Vertex labels come from the pool 1..b, b+|E|+1..|V|+|E|, so edge labels
    never compete with them.  Each closed edge's sum f(u)+f(v) must be new,
    and the running (lo, hi) of the sums must keep hi - lo < |E|.  At a leaf
    the |E| distinct sums then span exactly |E| - 1, which forces
    k = lo + b + |E| and edge labels k - sum filling {b+1 .. b+|E|}, which
    ``_Leaves`` derives from the vertex labels.

    The DFS state is two ints passed down the recursion with (lo, hi) and
    w (below), so nothing is undone on backtracking.  Bit c of ``free`` is set while
    label c is unused.  Bit s of ``fsum`` is set while sum s is unused,
    allowed by some constant in the degree-sum window (or the pinned one),
    and within |E| - 1 of every sum so far; that last condition is applied
    again after each placement.  A vertex whose first closed edge meets a
    vertex labelled lu0 may then take exactly the labels
    ``free & (fsum >> lu0)``, visited lowest first; its other closed edges
    are checked one by one.

    Sum check: the final sums fill [L, L+|E|-1], where L is the lowest, so
    sum of deg(v) * f(v) = |E| * L + |E|(|E|-1)/2.  The vertices take
    exactly the pool, so |E| * L = w + (sum of (deg - 1) * f over the
    unplaced vertices), where ``w`` is sum(pool) - |E|(|E|-1)/2 plus the
    placed vertices' sum of (deg - 1) * f.  L lies in [hi - |E| + 1, lo].
    The unplaced share lies between ``rest`` (see ``_plan``) times the
    lowest and the highest free label, so a label that leaves no L in range
    meeting those bounds is dropped.  When ``rest`` is 0 the share is 0:
    w must be divisible by |E| and give L in range.

    Dead-label check: every final sum lies in [A, B] = [nhi - span,
    nlo + span], and every free label x will sit on an edge whose other end
    holds a pool label, so x needs a pool partner y with A <= x + y <= B
    (the module docstring has the proof).  The labels x >= B and
    x < A - ``top_label``, the highest pool label, have none; they form one
    mask, and a label for v that leaves a free label in it is dropped.  The
    mask, and the span mask on ``fsum``, change only when a placement moves
    nlo or nhi, so both are applied only then: otherwise the free labels one
    level up, a superset, already passed the same mask.  A third such range,
    the labels whose partners all fall in the edge block b+1..b+|E|, is one
    label wide and only when the sums already span |E| - 1.  It is not
    checked: on every tree with at most 11 vertices and every connected
    atlas graph with at most 16 labels, that label was never free when the
    other two ranges let the branch through.

    These checks use only the degree-sum identity, that labels and sums are
    distinct and the sum window, never a theorem the search grades.
    """
    n, e = graph.vertex_count, graph.edge_count
    total = n + e
    leaves = _Leaves(graph, plan, limit, canonical_only)
    pool = list(range(1, b + 1)) + list(range(b + e + 1, total + 1))
    klo, khi = _k_window(graph, pool)
    if magic_constant is not None:
        klo, khi = max(klo, magic_constant), min(khi, magic_constant)
    if klo > khi:
        return leaves.report(b)

    # sum s leaves edge label k - s in b+1..b+|E| for some k in klo..khi
    top_label = pool[-1]
    top = top_label + pool[-2]
    slo, shi = max(klo - b - e, 0), min(khi - b - 1, top)
    free0 = sum(1 << c for c in pool)
    fsum0 = (2 << shi) - (1 << slo)

    steps = plan.steps
    labels = [0] * (n + 1)  # a sentinel slot, see _plan
    span = e - 1
    span2 = 2 * span
    base = b + e
    # w before any vertex is placed, see the sum check
    w0 = sum(pool) - e * span // 2

    def place(i, free, fsum, lo, hi, w):
        if i == n:
            return leaves.take(tuple(labels[:n]), lo + base)
        v, u0, more, below, dw, rest = steps[i]
        lu0 = labels[u0]
        cand = free & (fsum >> lu0) & -(2 << labels[below])
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            s = c + lu0
            nlo = s if s < lo else lo
            nhi = s if s > hi else hi
            nfsum = fsum ^ (1 << s)
            # These later closed edges need no span check of their own.  Each
            # new sum passed the fsum test, so it lies within span of every
            # earlier sum, and only two new sums c + l(u), c + l(u') can be
            # more than span apart: then |l(u) - l(u')| >= |E|.  A second
            # closed edge means a cycle, so |E| >= |V| and the two labels sit
            # in different blocks: p = l(u) <= b and q = l(u') > b + |E|.
            # Take c <= b (c > b is the same argument on complemented labels).
            # Every earlier sum then lies in [c+q-span, c+p+span], inside
            # [c+b+2, c+b+|E|-1]:
            # no placed edge joins two high labels, both ends of a low-low
            # edge are >= c+2, and the low end of a low-high edge is <= c-2.
            # So the placed vertices split, with no edge across, into the low
            # vertices on low-low edges and the rest.  Every placed neighbour
            # of u is low (its sum with p is at most c+p+span), so u is in
            # the first part and u' in the second; but every prefix of the
            # plan's order is connected (see _plan).
            for u in more:
                t = c + labels[u]
                if not nfsum >> t & 1:
                    break
                if t < nlo:
                    nlo = t
                if t > nhi:
                    nhi = t
                nfsum ^= 1 << t
            else:
                nfree = free ^ low
                if nlo != lo or nhi != hi:
                    # keep only the sums within span of both nlo and nhi (the
                    # mask is built shifted up by span, so no shift count goes
                    # negative), then drop c if it leaves a dead free label
                    nfsum &= ((2 << (nlo + span2)) - (1 << nhi)) >> span
                    a = nhi - span
                    dead = -(1 << (nlo + span))  # partner below 1
                    if a > top_label:
                        dead |= (1 << (a - top_label)) - 1  # partner above the pool
                    if nfree & dead:
                        continue
                nw = w + dw * c
                if rest:
                    if (e * nlo - nw < rest * ((nfree & -nfree).bit_length() - 1)
                            or e * (nhi - span) - nw > rest * (nfree.bit_length() - 1)):
                        continue
                elif nw % e or not e * (nhi - span) <= nw <= e * nlo:
                    continue
                labels[v] = c
                if not place(i + 1, nfree, nfsum, nlo, nhi, nw):
                    return False  # the search is over
        return True

    # the root closes no edge and no twin of it is labeled yet; (top+1, -1)
    # is the empty sum range
    root, _, _, _, dw, _ = steps[0]
    for c in pool:
        labels[root] = c
        if not place(1, free0 ^ (1 << c), fsum0, top + 1, -1, w0 + dw * c):
            break
    place = None  # the closure refers to itself: let the search state go now
    return leaves.report(b)


def _enumerate_edge_magic(graph: Graph, magic_constant: Optional[int],
                          limit: Optional[int], canonical_only: bool) -> SearchReport:
    """k-outer-loop DFS: every edge-magic labeling, one pass per candidate k.

    Labels come from all of 1..|V|+|E| and edge labels form no block, so the
    sums carry no window.  Each k in the degree-sum window (or the pinned
    constant) gets its own DFS, in which placing a vertex forces each closed
    edge's label to k - f(u) - f(v), which must be in range and unused.
    The DFS keeps those labels only as used bits; ``_Leaves`` derives them
    again at each leaf, where it expands and counts the orbit.

    The DFS state is two ints and r (below) passed down the recursion, so
    nothing is undone on backtracking.  Bit x of ``free`` is set while
    label x is unused, and ``rfree`` mirrors it, with bit |V|+|E|+1-x set
    while x is unused.  Shifting ``rfree`` lines "label k - c - lu0 is free" up with
    bit c, so a vertex whose first closed edge meets a vertex labelled lu0
    may take exactly the labels ``free & (rfree >> (|V|+|E|+1-k+lu0))``,
    less the one label equal to its own edge label, visited lowest first.
    Its other closed edges are checked one by one.

    Sum check: with k fixed, summing k over all edges and adding the vertex
    labels gives |E| * k = T + sum of (deg(v) - 1) * f(v), where
    T = (|V|+|E|)(|V|+|E|+1)/2 is the sum of all labels.  ``r`` is
    |E| * k - T less the placed vertices' share, so the unplaced vertices,
    whose labels are distinct free labels, must make up exactly r: a label
    that leaves r outside ``rest`` (see ``_plan``) times the lowest and the
    highest free label is dropped, and r must be 0 once ``rest`` is 0.
    Like the consecutive engine's checks, it uses only the degree-sum
    identity and that labels are distinct.
    """
    n, e = graph.vertex_count, graph.edge_count
    total = n + e
    if e == 0:
        return SearchReport((), frozenset(), True, 0)
    pool = list(range(1, total + 1))
    klo, khi = _k_window(graph, pool)
    ks = range(klo, khi + 1)
    if magic_constant is not None:
        ks = [magic_constant] if klo <= magic_constant <= khi else []
    plan = _plan(graph)
    steps = plan.steps
    leaves = _Leaves(graph, plan, limit, canonical_only)

    # bits 1..total: every label free, in both orientations
    free0 = rfree0 = (2 << total) - 2
    mirror = total + 1
    labels = [0] * (n + 1)  # a sentinel slot, see _plan

    def place(i, free, rfree, r):
        if i == n:
            return leaves.take(tuple(labels[:n]), k)
        v, u0, more, below, dw, rest = steps[i]
        s = k - labels[u0]  # c plus the forced edge label
        sh = mirror - s
        cand = free & (rfree >> sh if sh >= 0 else rfree << -sh) & -(2 << labels[below])
        if cand and not s & 1:
            cand &= ~(1 << (s >> 1))  # the edge label would equal c
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            el = s - c
            nfree = free ^ low ^ (1 << el)
            nrfree = rfree ^ (1 << (mirror - c)) ^ (1 << (mirror - el))
            for u in more:
                x = k - c - labels[u]
                if x < 1 or not nfree >> x & 1:  # free has no bit above |V|+|E|
                    break
                nfree ^= 1 << x
                nrfree ^= 1 << (mirror - x)
            else:
                nr = r - dw * c
                if rest:
                    if (nr < rest * ((nfree & -nfree).bit_length() - 1)
                            or nr > rest * (nfree.bit_length() - 1)):
                        continue
                elif nr:
                    continue
                labels[v] = c
                if not place(i + 1, nfree, nrfree, nr):
                    return False
        return True

    root, _, _, _, dw, _ = steps[0]
    t = total * (total + 1) // 2
    for k in ks:
        for c in pool:
            labels[root] = c
            if not place(1, free0 ^ (1 << c), rfree0 ^ (1 << (mirror - c)), e * k - t - dw * c):
                break
        if leaves.full:
            break
    place = None  # the closure refers to itself: let the search state go now
    return leaves.report(None)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _admit(graph: Graph, budget: Optional[int]) -> None:
    """The one entry check of every search: a budget of at least 1 (or None),
    a connected graph, then the budget against its label count."""
    _require_int("budget", budget, 1)
    if not is_connected(graph):
        raise SearchError("search requires a connected graph")
    cap = DEFAULT_BUDGET if budget is None else budget
    if graph.label_count > cap:
        raise BudgetExceeded(
            f"graph needs {graph.label_count} labels, over the budget of {cap}; "
            f"raise the budget to force the sweep")


def find_consecutive(query: SearchQuery, budget: Optional[int] = None) -> SearchReport:
    """All labelings with edge-label block {b+1 .. b+|E|} and constant sums.

    Graphs needing more labels than ``budget`` (default ``DEFAULT_BUDGET``)
    are refused with :class:`BudgetExceeded`; a budget that is not an int
    of at least 1 raises :class:`SearchError`, as in every search.
    """
    graph = query.graph
    if query.b is None:
        raise SearchError("find_consecutive needs b; use find_edge_magic for open searches")
    _admit(graph, budget)
    if graph.edge_count < 1:
        raise SearchError("search requires at least one edge")
    return _enumerate_consecutive(graph, query.b, query.magic_constant, query.limit,
                                  _plan(graph), query.canonical_only)


def find_edge_magic(query: SearchQuery, budget: Optional[int] = None) -> SearchReport:
    """All edge-magic labelings regardless of where edge labels sit."""
    if query.b is not None:
        raise SearchError("find_edge_magic searches without a block offset")
    _admit(query.graph, budget)
    return _enumerate_edge_magic(query.graph, query.magic_constant, query.limit,
                                 query.canonical_only)


def feasible_b_set(graph: Graph, budget: Optional[int] = None) -> set[int]:
    """Every offset b for which some consecutive magic labeling exists.

    Only the offsets b <= |V|/2 are searched; each b above is answered by
    its mirror |V| - b.  That is the definition, not a theorem: complementing
    every label, z -> |V|+|E|+1-z (``constructions.dual``), maps the
    consecutive labelings at b one-to-one onto those at |V| - b, so the two
    offsets are feasible together.  Each searched offset stops at its first
    witness labeling.  One without one is searched to exhaustion (with every
    automorphism broken, which cannot change satisfiability), so it is
    certified absent, and the bijection carries that certificate to its
    mirror.  One placement plan serves every offset.
    """
    _admit(graph, budget)
    if graph.edge_count == 0:
        return set()
    n = graph.vertex_count
    plan = _plan(graph)
    low = {b for b in range(n // 2 + 1)
           if _enumerate_consecutive(graph, b, None, 1, plan, True).solution_count}
    return low | {n - b for b in low}


def count_canonical(graph: Graph, b: int) -> int:
    """Number of labeling orbits at offset b under the graph's automorphism group."""
    return find_consecutive(SearchQuery(graph=graph, b=b, canonical_only=True)).orbit_count


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def compute_automorphisms(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of a connected graph as a vertex map, in sorted order.

    This lists the group the searches break: every r o t with r in R and t
    in T, the split Aut = R.T of the module docstring, each automorphism
    once, read from the listings the leaves read (``_r_and_t``).  K0 gives the one empty map.  A disconnected graph raises
    :class:`SearchError`, as the placement plan covers one component.
    """
    if not is_connected(graph):
        raise SearchError("compute_automorphisms requires a connected graph")
    if graph.vertex_count == 0:
        return ((),)
    rs, ts = _r_and_t(_plan(graph))
    ts = list(ts)
    return tuple(sorted(tuple([r[v] for v in t]) for r in rs for t in ts))


# ---------------------------------------------------------------------------
# graceful search
# ---------------------------------------------------------------------------

def find_graceful(graph: Graph, limit: Optional[int] = 1,
                  budget: Optional[int] = None) -> list[VertexLabeling]:
    """Backtracking search for graceful labelings over vertex labels 0..|E|.

    Differences close as vertices are placed along the shared plan; each
    must be a fresh value in 1..|E|.  The plan's symmetry bounds are not
    used, so every labeling is searched.  ``limit`` (an int of at least 1,
    or None for all) keeps the first labelings in search order, which
    follows the plan, as in ``SearchQuery``.  Graphs
    needing more than ``budget`` labels (default ``DEFAULT_BUDGET``) are
    refused with :class:`BudgetExceeded`.

    Bit c of ``free`` is set while label c is unused, bit d of ``fdiff``
    while difference d is unused, and bit |E| - d of its mirror ``rdiff``
    likewise, so a vertex whose first closed edge meets label lu0 may take
    exactly ``free & (fdiff << lu0 | rdiff >> (|E| - lu0))``.
    """
    _require_int("limit", limit, 1)
    _admit(graph, budget)
    n, e = graph.vertex_count, graph.edge_count
    if n == 0:
        return []
    steps = _plan(graph).steps
    labels = [0] * n
    found: list[VertexLabeling] = []

    def place(i, free, fdiff, rdiff):
        if i == n:
            found.append(VertexLabeling(tuple(labels)))
            return limit is None or len(found) < limit
        v, u0, more, _, _, _ = steps[i]
        lu0 = labels[u0]
        cand = free & (fdiff << lu0 | rdiff >> (e - lu0))
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            d = abs(c - lu0)
            nfdiff = fdiff ^ (1 << d)
            nrdiff = rdiff ^ (1 << (e - d))
            for u in more:
                d = abs(c - labels[u])  # never 0: labels[u] is not free
                if not nfdiff >> d & 1:
                    break
                nfdiff ^= 1 << d
                nrdiff ^= 1 << (e - d)
            else:
                labels[v] = c
                if not place(i + 1, free ^ low, nfdiff, nrdiff):
                    return False
        return True

    # labels 0..|E| and differences 1..|E| free, the mirror in bits 0..|E|-1
    full = (2 << e) - 1
    root = steps[0][0]
    for c in range(e + 1):
        labels[root] = c
        if not place(1, full ^ (1 << c), full ^ 1, full >> 1):
            break
    place = None  # the closure refers to itself: let the search state go now
    return found
