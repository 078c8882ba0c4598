"""Explicit labeling formulas and labeling-to-labeling transformations.

Two kinds of machinery live here.  The caterpillar and double-star builders
produce closed-form consecutive edge-magic labelings from family parameters
alone.  The transforms (dual, lambda_star, to_graceful, to_super_edge_magic)
rewrite one verified labeling into another with a predictable block offset
and magic constant; each transform validates its input and refuses anything
without the label-block structure it needs.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from typing import Optional

from .graphs import (Bipartition, CaterpillarSpec, Graph, bipartition_of, build_double_star,
                     is_connected)
from .labelings import TotalLabeling, VertexLabeling, _offset_of, magic_constant_of


class ConstructionError(ValueError):
    """Input labeling lacks the structure a transform requires."""


class LambdaStarCase(Enum):
    """Which block-reflection variant applies, keyed by the offset b."""

    B_ZERO = "b = 0"
    B_FULL = "b = |V|"
    B_X = "b = |X|"
    B_Y = "b = |Y|"


# ---------------------------------------------------------------------------
# closed-form constructions
# ---------------------------------------------------------------------------

def caterpillar_beta_labeling(spec: CaterpillarSpec) -> TotalLabeling:
    """Consecutive edge-magic labeling of a caterpillar with offset beta.

    Two counters walk the vertices in canonical order: side Y takes
    1, 2, ..., beta and side X takes alpha+2*beta, alpha+2*beta+1, ...
    Each edge joins a vertex to one earlier in that order, and the vertex
    sums of consecutive edges rise by exactly one, so the descending edge
    labels alpha+2*beta-1, ..., beta+1 give every edge the sum
    2*alpha + 4*beta.
    """
    n, beta = spec.vertex_count, spec.beta
    if n < 2:
        raise ConstructionError("a caterpillar labeling needs at least one edge")
    top = n + beta  # alpha + 2*beta
    low, high = count(1), count(top)
    vl = tuple(next(high) if on_x else next(low) for on_x in spec.on_side_x)
    return TotalLabeling(vl, tuple(range(top - 1, beta, -1)))


def double_star_consecutive(m: int, n: int, variant: int = 1) -> TotalLabeling:
    """One of the two consecutive edge-magic labelings of a double star.

    The block offset is m+1 and the magic constant 4m+2n+6 in both variants;
    they differ in which extreme of each block the two centers take.  The
    center with n leaves carries the low-block value (m+1 or 1) and the
    center with m leaves the matching high-block value; leaf labels fill the
    remaining block values in ascending leaf order, and edge labels are then
    forced by the constant.
    """
    if variant not in (1, 2):
        raise ConstructionError("variant must be 1 or 2")
    handle = build_double_star(m, n)
    graph = handle.graph
    names = handle.name_map
    k = 4 * m + 2 * n + 6
    if variant == 1:
        low_center, high_center = m + 1, 2 * m + n + 3
    else:
        low_center, high_center = 1, 2 * m + 2 * n + 3

    vl = [0] * graph.vertex_count
    vl[names["c1"]] = high_center
    vl[names["c2"]] = low_center
    low_leaves = sorted(set(range(1, m + 2)) - {low_center})
    high_leaves = sorted(set(range(2 * m + n + 3, 2 * m + 2 * n + 4)) - {high_center})
    for j in range(1, m + 1):
        vl[names[f"c1_{j}"]] = low_leaves[j - 1]
    for j in range(1, n + 1):
        vl[names[f"c2_{j}"]] = high_leaves[j - 1]

    el = [0] * graph.edge_count
    for i, (u, v) in enumerate(graph.edges):
        el[i] = k - vl[u] - vl[v]
    return TotalLabeling(tuple(vl), tuple(el))


def caterpillar_super_labeling(spec: CaterpillarSpec) -> TotalLabeling:
    """Super edge-magic labeling of a caterpillar, constant 2*alpha+3*beta+1.

    Obtained from the beta-offset labeling by sliding the high vertex block
    (side X, the labels above beta) down next to the low block and pushing
    the edge block above both.
    """
    lam = caterpillar_beta_labeling(spec)
    alpha, beta = spec.alpha, spec.beta
    vl = [x - (alpha + beta - 1) if x > beta else x for x in lam.vertex_labels]
    el = [x + alpha for x in lam.edge_labels]
    return TotalLabeling(tuple(vl), tuple(el))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def dual(graph: Graph, labeling: TotalLabeling) -> TotalLabeling:
    """Complement every label: z -> |V|+|E|+1-z.

    Sends an edge-magic labeling with constant k to one with constant
    3(|V|+|E|+1)-k, and a block offset b to |V|-b.  An involution.
    """
    if magic_constant_of(graph, labeling) is None:
        raise ConstructionError("dual requires an edge-magic labeling")
    top = graph.label_count + 1
    return TotalLabeling(tuple(top - x for x in labeling.vertex_labels),
                         tuple(top - x for x in labeling.edge_labels))


def _block_structure(graph: Graph, labeling: TotalLabeling):
    """Return (b, k, small_side_set) for a consecutive edge-magic labeling.

    ``small_side_set`` collects the vertices labeled 1..b.  For 0 < b < |V|
    every edge must cross it, otherwise the block reflections would not
    stay magic; inputs violating that are rejected.
    """
    k = magic_constant_of(graph, labeling)
    if k is None:
        raise ConstructionError("input labeling is not edge-magic")
    b = _offset_of(graph, labeling, k)
    if b is None:
        raise ConstructionError("input labeling is not consecutive edge-magic")
    vl = labeling.vertex_labels
    small = frozenset(v for v in range(graph.vertex_count) if vl[v] <= b)
    if 0 < b < graph.vertex_count:
        for u, v in graph.edges:
            if (u in small) == (v in small):
                raise ConstructionError(
                    "vertex labels do not split into one block per partite side")
    return b, k, small


def _resolve_sides(graph: Graph, small: frozenset,
                   bipartition: Optional[Bipartition]) -> LambdaStarCase:
    if bipartition is None:
        if not is_connected(graph):
            raise ConstructionError("cannot name partite sides of a disconnected graph")
        bipartition = bipartition_of(graph)
        if bipartition is None:
            raise ConstructionError("graph is not bipartite")
    if small == bipartition.side_x:
        return LambdaStarCase.B_X
    if small == bipartition.side_y:
        return LambdaStarCase.B_Y
    raise ConstructionError("low-block vertices do not form a partite side")


def lambda_star_case(graph: Graph, labeling: TotalLabeling,
                     bipartition: Optional[Bipartition] = None) -> LambdaStarCase:
    """Which of the four admissible offsets the labeling realizes."""
    b, _, small = _block_structure(graph, labeling)
    if b == 0:
        return LambdaStarCase.B_ZERO
    if b == graph.vertex_count:
        return LambdaStarCase.B_FULL
    return _resolve_sides(graph, small, bipartition)


def lambda_star(graph: Graph, labeling: TotalLabeling,
                bipartition: Optional[Bipartition] = None) -> TotalLabeling:
    """Reflect each label block in place, keeping the offset b.

    Case b=0 or b=|V|: both vertex blocks and the edge block are reflected
    within themselves.  Case b=|side|: the low side reflects inside {1..b},
    the high side inside its block, and the edges inside theirs.  Each case
    is an involution and reflects the magic constant: k goes to
    2|V|+5|E|+3-k when b=0, to 4|V|+|E|+3-k when b=|V|, and to
    5b+(|V|-b)+3|E|+3-k when b is a side's size.
    """
    n, e = graph.vertex_count, graph.edge_count
    b, _, small = _block_structure(graph, labeling)
    vl = labeling.vertex_labels
    el = labeling.edge_labels
    if b == 0:
        new_v = [n + 2 * e + 1 - x for x in vl]
        new_e = [e + 1 - x for x in el]
    elif b == n:
        new_v = [n + 1 - x for x in vl]
        new_e = [2 * n + e + 1 - x for x in el]
    else:
        # validates that the low block is a partite side (and names it)
        _resolve_sides(graph, small, bipartition)
        s, o = b, n - b
        new_v = [(s + 1 - vl[v]) if v in small else (2 * s + o + 2 * e + 1 - vl[v])
                 for v in range(n)]
        new_e = [2 * s + e + 1 - x for x in el]
    return TotalLabeling(tuple(new_v), tuple(new_e))


def _side_split(graph: Graph, labeling: TotalLabeling):
    """Block data for the side-offset transforms; rejects b in {0, |V|}."""
    b, k, small = _block_structure(graph, labeling)
    if b == 0 or b == graph.vertex_count:
        raise ConstructionError(
            f"offset b={b} does not single out a partite side")
    return b, k, small


def to_graceful(graph: Graph, labeling: TotalLabeling,
                bipartition: Optional[Bipartition] = None) -> VertexLabeling:
    """Collapse a side-offset consecutive magic labeling to a graceful one.

    The side holding {1..b} drops to {0..b-1}; the other side folds down so
    that adjacent differences sweep 1..|E| exactly.
    """
    b, _, small = _side_split(graph, labeling)
    n, e = graph.vertex_count, graph.edge_count
    s, o = b, n - b
    vl = labeling.vertex_labels
    out = [(vl[v] - 1) if v in small else (e + 2 * s + o - vl[v]) for v in range(n)]
    return VertexLabeling(tuple(out))


def to_super_edge_magic(graph: Graph, labeling: TotalLabeling,
                        bipartition: Optional[Bipartition] = None) -> TotalLabeling:
    """Slide the high vertex block down next to {1..b}; edges move up.

    Turns a side-offset consecutive magic labeling into a super edge-magic
    one (offset |V|), shifting the constant by |other side| - |E|.
    """
    b, _, small = _side_split(graph, labeling)
    n, e = graph.vertex_count, graph.edge_count
    o = n - b
    vl = labeling.vertex_labels
    new_v = [vl[v] if v in small else vl[v] - e for v in range(n)]
    new_e = [x + o for x in labeling.edge_labels]
    return TotalLabeling(tuple(new_v), tuple(new_e))
