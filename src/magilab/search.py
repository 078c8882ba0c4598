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
absent offset inherits the certificate of its partner: the root check's
refutation or an exhaustive search.

Edge-magic searches (no offset) keep an outer loop over that k window:
each k forces every edge label to k - f(u) - f(v), which must be unused.
``feasible_k_set`` asks only which constants occur.  It runs that DFS once
per k of the window, with every automorphism broken, and stops each at its
first witness; all of them share one placement plan, built at the first k
searched.  Each is the full listing's DFS for that k, cut at its first
leaf, so it visits no more nodes and keeps one labeling per constant where
the listing keeps every one.

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

Both magic engines check the degree-weighted label sum, from sum over
edges of (f(u) + f(v)) = sum of deg(v) * f(v).  The placed vertices fix
part of it, and the unplaced ones add sum of (deg - 1) * f.  Leaves weigh
nothing, so with leaves last that share is exactly 0 once the last
non-leaf is placed.  That vertex, the last with weight, is the closing
step: its label alone completes the sum, so there the check is one mask on
the candidates, applied once per node rather than once per candidate.  In
the edge-magic engine the mask is the one label the sum leaves; in the
consecutive engine it is a residue class, and the free sums are cut to the
one window of |E| sums the completed total allows.  After the closing step
nothing weighs, so the leaves run with no sum check: whatever it could
reject is already gone from their candidates.  Only the edge-magic engine
also checks the sum on every candidate before the closing step, where the
unplaced share lies between its total weight times the lowest and the
highest free label; the consecutive engine checks it at the closing step
alone, where it is exact.  The checks rest only on that identity, the sum
window and labels (and sums) being distinct, which is the definition
itself, so they grade nothing.

The consecutive engine also drops a branch as soon as a free label is dead.
With the sums so far in [lo, hi], every final sum lies in
[A, B] = [hi - |E| + 1, lo + |E| - 1].  A free label x is dead when no pool
label y gives A <= x + y <= B, and that branch has no labeling below it:
  - the pool holds exactly |V| labels, so x goes to some unplaced vertex;
  - that vertex has an edge, whose other end gets some pool label y;
  - the edge's sum x + y is one of the final sums, so it lies in [A, B].
x is dead when x >= B (then y < 1) or x < A - max(pool) (then y would
exceed the highest pool label).  Before the DFS starts, the same argument
runs at the root for every lowest final sum L the k window allows, with
the exact window [L, L + |E| - 1] and the exact pool, and it also asks
that every sum in the window be the sum of two distinct pool labels.  When
no L passes, the offset is absent and no DFS runs; that root check, not
the DFS, refutes most absent offsets.  Like the other checks it uses only
the definition.  It reads only the pool and the degrees, so the consecutive
engine builds the placement plan only after the root check leaves the
offset open: a refuted offset costs no plan.

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
from functools import cache, partial
from itertools import islice, starmap, tee
from math import gcd
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Optional

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    sieve: Optional[tuple]  # (g, m, inverse, comb) of the closing step; None with no edge


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
    So every prefix of the order induces a connected graph.  Leaves come
    last because they carry no weight in the degree-weighted sum check of
    the magic engines: once the last non-leaf, the closing step, is placed,
    that check is exact, and the leaves after it need none.

    The root is the lowest-numbered vertex of least eccentricity among those
    of highest degree (``_centre``).  A high degree closes many edges early,
    and a central root keeps the BFS layers few, so a vertex and its mirror
    image sit close in the order and the symmetry bound of the later one
    prunes early: over every offset of P10, the full enumerations visit
    36,174 DFS nodes from a middle root and 69,204 from a root next to an
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
    sieve, e = None, graph.edge_count
    if e:
        dw = max([step[4] for step in steps if not step[5]])  # the closing step's weight
        g = gcd(dw, e)
        m = e // g
        comb = ((1 << m * (graph.label_count // m + 1)) - 1) // ((1 << m) - 1)
        sieve = (g, m, pow(dw // g, -1, m), comb)
    return _Plan(steps, groups, sym, sieve)


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


def _weights(graph: Graph) -> list[int]:
    """deg(v) - 1 of every vertex, largest first: the weights of ``_k_window``."""
    return sorted([len(nbrs) - 1 for nbrs in graph.adjacency], reverse=True)


def _k_window(graph: Graph, labels: list[int], weights: list[int]):
    """Integer window of conceivable magic constants.

    Summing k over all edges and adding each vertex label once gives
    |E| * k = T + sum of (deg(v) - 1) * f(v), where T is the sum of all
    labels.  The vertex labels are distinct values from ``labels``
    (ascending) and no weight is negative in a connected graph with an
    edge, so pairing the weights, largest first, with ``labels`` ascending
    bounds the second term from below, and with ``labels`` descending from
    above.  Consecutive searches pass their vertex pool, edge-magic ones
    1..|V|+|E|.  ``weights`` is ``_weights(graph)``: the degrees alone, so
    the window needs no placement plan.
    """
    t = graph.label_count * (graph.label_count + 1) // 2
    low = sum(map(mul, weights, labels))
    high = sum(map(mul, weights, reversed(labels)))
    return -(-(t + low) // graph.edge_count), (t + high) // graph.edge_count


def _root_lows(pool: list[int], e: int, lo: int, hi: int) -> int:
    """The lowest final sums L in lo..hi that pass the root check, as a bit set.

    A labeling whose final sums fill [L, L + |E| - 1] passes two tests.  The
    window test: every sum in the window is x + y for distinct pool labels.
    The partner test: every pool label x has some y != x in the pool with
    x + y in the window.  ``_enumerate_consecutive`` has the proof.  ``sums``
    is the set of the x + y, and ``near`` x's partner sums smeared down by
    |E| - 1, so bit L of it is set when one of them lies in [L, L + |E| - 1].
    """
    pm = sum([1 << x for x in pool])
    lows = (2 << hi) - (1 << lo) if lo <= hi else 0
    sums = 0
    for x in pool:
        near = (pm ^ 1 << x) << x
        sums |= near
        k = 1
        while 2 * k <= e:
            near |= near >> k
            k *= 2
        lows &= near | near >> (e - k)
    k = 1
    while 2 * k <= e:
        sums &= sums >> k
        k *= 2
    return lows & sums & sums >> (e - k)


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
                           limit: Optional[int], weights: list[int],
                           get_plan: Callable[[], _Plan], canonical_only: bool) -> SearchReport:
    """Sum-window DFS: every consecutive labeling at offset b, with no loop over k.

    The graph needs an edge.  ``weights`` is its ``_weights``, and
    ``get_plan()`` hands back its ``_plan``, called only when the root check
    (below) leaves the offset open, so a refuted offset builds no plan; a
    sweep over offsets works the weights out once and passes a getter that
    builds the plan once and keeps it.  The DFS reaches one labeling per
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
    placed vertices' sum of (deg - 1) * f.  Before the closing step the
    unplaced share is still open, and the DFS does not bound it: a bound
    there could only prune, and measured it cost more time than the nodes
    it saved.  At a leaf the |E| distinct sums, all within |E| - 1 of each
    other, fill [lo, lo + |E| - 1], so the identity, checked where it is
    exact, gives lo = L.

    The closing step is the last with weight dw > 0; after it ``rest`` is
    0, so there |E| * L = w + dw * c exactly.  With g = gcd(dw, |E|) and
    m = |E| / g this has an integer L only if g divides w, and then only
    for c = -(w/g) * (dw/g)^-1 mod m.  So a node at the closing step
    returns at once when g does not divide w, and otherwise masks its
    candidates with ``comb`` shifted up by that residue, ``comb`` having
    bits 0, m, 2m, ... up to |V|+|E| (``_Plan.sieve``, built once per plan
    from dw, |E| and |V|+|E|).  A label that passes the mask still needs
    L = nw / |E| in [nhi - |E| + 1, nlo], and then the final sums are
    exactly [L, L + |E| - 1], so ``fsum`` is cut to that window.

    The leaves after the closing step need no sum check.  They weigh
    nothing, so w stays |E| * L.  A leaf closes one edge, whose sum comes
    from ``fsum``, inside [L, L + |E| - 1]; the sums placed before it lie
    there too.  So nlo >= L and nhi - |E| + 1 <= L at every leaf, and |E|
    divides w: the exact check, which asked no more, would pass every
    candidate ``cand`` offers.  When the root is the closing step, in a
    star, whose centre alone has weight, or in K2, where nothing weighs,
    the root loop keeps only the labels for which |E| divides w and makes
    the same cut.

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

    Root check: before the root loop, ``_root_lows`` keeps the lowest final
    sums L that two tests leave, and when none is left the offset has no
    labeling and the empty, exhausted report returns at once.  Take a
    labeling at offset b with lowest sum L.  Its constant k lies in the
    window, so L = k - b - |E| lies in [slo, shi - |E| + 1] (no sum exceeds
    ``top``, the two highest pool labels), which is empty when the window
    is.  Its sums fill [L, L + |E| - 1], and each is f(u) + f(v) on an
    edge: two distinct pool labels (the window test).  The pool holds
    exactly |V| labels, so every pool label x sits on some vertex; that
    vertex has an edge, the graph being connected with an edge, and the
    label y at its other end is another pool label, with x + y one of the
    sums, in [L, L + |E| - 1] (the partner test).  So no L that fails a
    test is the lowest sum of a labeling.  This is the dead-label check run
    for every L at once, before any sum is fixed.  It either returns or
    changes nothing, so at an offset it leaves open the DFS is the same.
    It needs only the pool and the degrees, so it runs before the plan is
    built, and a refuted offset costs no plan and no ``_Leaves``.

    These checks use only the degree-sum identity, that labels and sums are
    distinct and the sum window, never a theorem the search grades.
    """
    n, e = graph.vertex_count, graph.edge_count
    total = n + e
    pool = list(range(1, b + 1)) + list(range(b + e + 1, total + 1))
    klo, khi = _k_window(graph, pool, weights)
    if magic_constant is not None:
        klo, khi = max(klo, magic_constant), min(khi, magic_constant)

    # sum s leaves edge label k - s in b+1..b+|E| for some k in klo..khi
    top_label = pool[-1]
    top = top_label + pool[-2]
    slo, shi = max(klo - b - e, 0), min(khi - b - 1, top)
    if not _root_lows(pool, e, slo, shi - e + 1):
        return SearchReport((), frozenset(), True, 0, b)
    free0 = sum(1 << c for c in pool)
    fsum0 = (2 << shi) - (1 << slo)

    plan = get_plan()
    leaves = _Leaves(graph, plan, limit, canonical_only)
    steps = plan.steps
    labels = [0] * (n + 1)  # a sentinel slot, see _plan
    span = e - 1
    span2 = 2 * span
    base = b + e
    # w before any vertex is placed, see the sum check
    w0 = sum(pool) - e * span // 2
    g, m, inverse, comb = plan.sieve

    def place(i, free, fsum, lo, hi, w):
        if i == n:
            return leaves.take(tuple(labels[:n]), lo + base)
        v, u0, more, below, dw, rest = steps[i]
        lu0 = labels[u0]
        cand = free & (fsum >> lu0) & -(2 << labels[below])
        if dw and not rest:  # the closing step: |E| must divide w + dw * c
            if w % g:
                return True
            cand &= comb << (-(w // g) * inverse % m)
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
                if dw and not rest:  # the closing step: nw fixes L, the least final sum
                    least = nw // e
                    if not nhi - span <= least <= nlo:
                        continue
                    nfsum &= ((2 << (least + span2)) - (1 << (least + span))) >> span
                labels[v] = c
                if not place(i + 1, nfree, nfsum, nlo, nhi, nw):
                    return False  # the search is over
        return True

    # the root closes no edge and no twin of it is labeled yet; (top+1, -1)
    # is the empty sum range
    root, _, _, _, dw, rest = steps[0]
    for c in pool:
        nw, fsum = w0 + dw * c, fsum0
        if not rest:  # the root is the closing step: a star, or K2
            if nw % e:
                continue
            least = nw // e
            fsum &= ((2 << (least + span2)) - (1 << (least + span))) >> span
        labels[root] = c
        if not place(1, free0 ^ (1 << c), fsum, top + 1, -1, nw):
            break
    place = None  # the closure refers to itself: let the search state go now
    return leaves.report(b)


def _enumerate_edge_magic(graph: Graph, magic_constant: Optional[int],
                          limit: Optional[int], weights: list[int],
                          get_plan: Callable[[], _Plan], canonical_only: bool) -> SearchReport:
    """k-outer-loop DFS: every edge-magic labeling, one pass per candidate k.

    The graph needs an edge.  ``weights`` is its ``_weights``, and
    ``get_plan()`` hands back its ``_plan``, called only when some k is
    left to search: a constant pinned outside the degree-sum window returns
    the empty, exhausted report and builds no plan.  A sweep over the
    constants (``feasible_k_set``) works the weights out once and passes a
    getter that builds the plan once and keeps it.

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
    highest free label is dropped.  At the closing step, the last with
    weight dw > 0, ``rest`` is 0, so r - dw * c must be 0: the candidates
    are masked to the one label r / dw when dw divides r and r >= 0 (r can
    be negative only just after the root, which takes no bounds check), and
    the node returns at once otherwise.  The leaves after it weigh nothing,
    so r stays 0 and they need no check.  When the root is the closing step,
    in a star, whose centre alone has weight, or in K2, where nothing
    weighs, the root loop keeps only the labels that leave r = 0.  Like the
    consecutive engine's checks, it uses only the degree-sum identity and
    that labels are distinct.
    """
    n, e = graph.vertex_count, graph.edge_count
    total = n + e
    pool = list(range(1, total + 1))
    klo, khi = _k_window(graph, pool, weights)
    ks = range(klo, khi + 1)
    if magic_constant is not None:
        ks = [magic_constant] if klo <= magic_constant <= khi else []
    if not ks:
        return SearchReport((), frozenset(), True, 0)
    plan = get_plan()
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
        if dw and not rest:  # the closing step: only c = r / dw leaves r - dw * c = 0
            if r < 0 or r % dw:
                return True
            cand &= 1 << r // dw
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
                if rest and (nr < rest * ((nfree & -nfree).bit_length() - 1)
                             or nr > rest * (nfree.bit_length() - 1)):
                    continue
                labels[v] = c
                if not place(i + 1, nfree, nrfree, nr):
                    return False
        return True

    root, _, _, _, dw, rest = steps[0]
    t = total * (total + 1) // 2
    for k in ks:
        for c in pool:
            r = e * k - t - dw * c
            if r and not rest:  # the root is the closing step: a star, or K2
                continue
            labels[root] = c
            if not place(1, free0 ^ (1 << c), rfree0 ^ (1 << (mirror - c)), r):
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
                                  _weights(graph), partial(_plan, graph), query.canonical_only)


def find_edge_magic(query: SearchQuery, budget: Optional[int] = None) -> SearchReport:
    """All edge-magic labelings regardless of where edge labels sit."""
    if query.b is not None:
        raise SearchError("find_edge_magic searches without a block offset")
    graph = query.graph
    _admit(graph, budget)
    if graph.edge_count == 0:
        return SearchReport((), frozenset(), True, 0)
    return _enumerate_edge_magic(graph, query.magic_constant, query.limit,
                                 _weights(graph), partial(_plan, graph), query.canonical_only)


def feasible_k_set(graph: Graph, budget: Optional[int] = None) -> set[int]:
    """Every magic constant k of some edge-magic labeling of the graph.

    The edge-magic twin of ``feasible_b_set``.  Each k in the degree-sum
    window of ``_k_window`` gets its own DFS, which stops at its first
    witness labeling; one without one is certified absent by a DFS searched
    to exhaustion.  Every automorphism is broken, twins included
    (``canonical_only``), which cannot change satisfiability: every orbit
    with a labeling has its least member, and that member labels each twin
    class in ascending order.  So the set equals the ``constants_found`` of
    the full listing, which keeps every labeling where this keeps one per k.
    At most one placement plan serves every k: it is built at the first k
    searched.  A graph with no edge has no constant, and the entry checks
    are those of every search.
    """
    _admit(graph, budget)
    if graph.edge_count == 0:
        return set()
    weights, get_plan = _weights(graph), cache(partial(_plan, graph))
    klo, khi = _k_window(graph, list(range(1, graph.label_count + 1)), weights)
    return {k for k in range(klo, khi + 1)
            if _enumerate_edge_magic(graph, k, 1, weights, get_plan, True).solution_count}


def feasible_b_set(graph: Graph, budget: Optional[int] = None) -> set[int]:
    """Every offset b for which some consecutive magic labeling exists.

    Only the offsets b <= |V|/2 are searched; each b above is answered by
    its mirror |V| - b.  That is the definition, not a theorem: complementing
    every label, z -> |V|+|E|+1-z (``constructions.dual``), maps the
    consecutive labelings at b one-to-one onto those at |V| - b, so the two
    offsets are feasible together.  Each searched offset stops at its first
    witness labeling.  One without one is certified absent, either by the
    root check of ``_enumerate_consecutive``, which leaves no lowest sum,
    or by a DFS searched to exhaustion (with every automorphism broken,
    which cannot change satisfiability), and the bijection carries that
    certificate to its mirror.  At most one placement plan serves every
    offset: it is built at the first offset the root check leaves open, and
    none is built when the root check refutes every offset searched.
    """
    _admit(graph, budget)
    if graph.edge_count == 0:
        return set()
    n = graph.vertex_count
    weights, get_plan = _weights(graph), cache(partial(_plan, graph))
    low = {b for b in range(n // 2 + 1)
           if _enumerate_consecutive(graph, b, None, 1, weights, get_plan, True).solution_count}
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
