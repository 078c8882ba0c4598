"""Explicit labeling formulas and labeling-to-labeling transformations.

Two kinds of machinery live here.  The caterpillar and double-star builders
produce closed-form consecutive edge-magic labelings from family parameters
alone.  The transforms (dual, lambda_star, to_graceful, to_super_edge_magic)
rewrite one verified labeling into another with a predictable block offset
and magic constant; each transform validates its input and refuses anything
without the label-block structure it needs: for 0 < b < |V| every edge
must join the low block 1..b to the high block.  Transforms check only that
block structure; which partite side holds the low block is named by
:func:`magilab.labelings.classify` alone, through the helper ``_low_side``
that ``lambda_star`` also calls.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from .graphs import Bipartition, CaterpillarSpec, Graph, _double_star_sizes, _unchecked
from .labelings import (TotalLabeling, VertexLabeling, _low_side, _offset_of,
                        magic_constant_of)


class ConstructionError(ValueError):
    """Input labeling lacks the structure a transform requires."""


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
    return TotalLabeling.trusted(vl, tuple(range(top - 1, beta, -1)))


def double_star_consecutive(m: int, n: int, variant: int = 1) -> TotalLabeling:
    """One of the two consecutive edge-magic labelings of a double star.

    The block offset is m+1 and the magic constant 4m+2n+6 in both variants;
    they differ in which extreme of each block the two centers take.  The
    center with n leaves carries the low-block value (m+1 or 1) and the
    center with m leaves the matching high-block value; leaf labels fill the
    remaining block values in ascending leaf order, and edge labels are then
    forced by the constant.  Variant 1 is the beta form of the caterpillar
    S_{m,n}.  Variant 2 is written in its canonical vertex order (c1, its m
    leaves, c2, its n leaves), whose edges are c1's m + 1 and then c2's n.
    """
    if variant not in (1, 2):
        raise ConstructionError("variant must be 1 or 2")
    _double_star_sizes(m, n)
    spec = CaterpillarSpec(2, (m, n))
    if variant == 1:
        return caterpillar_beta_labeling(spec)
    top, k = 2 * m + 2 * n + 3, 4 * m + 2 * n + 6
    vl = (top, *range(2, m + 2), 1, *range(top - n, top))
    el = [k - top - x for x in vl[1:m + 2]] + [k - 1 - x for x in vl[m + 2:]]
    return TotalLabeling.trusted(vl, tuple(el))


def _slide(labeling: TotalLabeling, b: int, n: int, e: int) -> TotalLabeling:
    """Slide the vertex labels above b down by |E| and the edge labels up by |V| - b."""
    return TotalLabeling.trusted(tuple([x if x <= b else x - e for x in labeling.vertex_labels]),
                                 tuple([x + n - b for x in labeling.edge_labels]))


def caterpillar_super_labeling(spec: CaterpillarSpec) -> TotalLabeling:
    """Super edge-magic labeling of a caterpillar, constant 2*alpha+3*beta+1.

    Obtained from the beta-offset labeling by sliding the high vertex block
    (side X, the labels above beta) down next to the low block and pushing
    the edge block above both, as :func:`to_super_edge_magic` does.
    """
    n = spec.vertex_count
    return _slide(caterpillar_beta_labeling(spec), spec.beta, n, n - 1)


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
    return TotalLabeling.trusted(tuple([top - x for x in labeling.vertex_labels]),
                                 tuple([top - x for x in labeling.edge_labels]))


def _block_structure(graph: Graph, labeling: TotalLabeling) -> int:
    """Return the offset b of a consecutive edge-magic labeling.

    The low block holds the vertex labels 1..b.  For 0 < b < |V| every edge
    must join it to the high block, otherwise the block reflections would
    not stay magic; inputs violating that are rejected.
    """
    k = magic_constant_of(graph, labeling)
    if k is None:
        raise ConstructionError("input labeling is not edge-magic")
    b = _offset_of(graph, labeling, k)
    if b is None:
        raise ConstructionError("input labeling is not consecutive edge-magic")
    vl = labeling.vertex_labels
    if 0 < b < graph.vertex_count:
        for u, v in graph.edges:
            if (vl[u] <= b) == (vl[v] <= b):
                raise ConstructionError(
                    "vertex labels do not split into one block per partite side")
    return b


def lambda_star(graph: Graph, labeling: TotalLabeling,
                bipartition: Optional[Bipartition] = None) -> TotalLabeling:
    """Reflect each label block in place, keeping the offset b.

    Case b=0 or b=|V|: both vertex blocks and the edge block are reflected
    within themselves.  Case b=|side|: the low side reflects inside {1..b},
    the high side inside its block, and the edges inside theirs.  Each case
    is an involution and reflects the magic constant: k goes to
    2|V|+5|E|+3-k when b=0, to 4|V|+|E|+3-k when b=|V|, and to
    5b+(|V|-b)+3|E|+3-k when b is a side's size.  In that last case the low
    block must be a side of ``bipartition`` (by default, of the graph's own
    bipartition, so a disconnected graph is refused).
    """
    n, e = graph.vertex_count, graph.edge_count
    b = _block_structure(graph, labeling)
    vl = labeling.vertex_labels
    el = labeling.edge_labels
    if 0 < b < n and _low_side(graph, labeling, b, bipartition) is None:
        raise ConstructionError("low-block vertices do not form a partite side")
    # b = 0 and b = |V| are this formula with an empty low or high block
    return TotalLabeling.trusted(
        tuple([b + 1 - x if x <= b else b + n + 2 * e + 1 - x for x in vl]),
        tuple([2 * b + e + 1 - x for x in el]))


def _side_split(graph: Graph, labeling: TotalLabeling) -> int:
    """The offset b for the side-offset transforms; rejects b in {0, |V|}."""
    b = _block_structure(graph, labeling)
    if b == 0 or b == graph.vertex_count:
        raise ConstructionError(
            f"offset b={b} does not single out a partite side")
    return b


def to_graceful(graph: Graph, labeling: TotalLabeling,
                bipartition: Optional[Bipartition] = None) -> VertexLabeling:
    """Collapse a side-offset consecutive magic labeling to a graceful one.

    The side holding {1..b} drops to {0..b-1}; the other side folds down so
    that adjacent differences sweep 1..|E| exactly.  A graph with
    |V| > |E| + 1 has no graceful labeling (its |V| distinct labels would not
    fit in 0..|E|), so such a graph is refused.
    """
    b = _side_split(graph, labeling)
    if graph.vertex_count > graph.edge_count + 1:
        raise ConstructionError(
            f"{graph.vertex_count} vertices need more graceful labels than 0..{graph.edge_count}")
    top = graph.edge_count + b + graph.vertex_count
    return _unchecked(VertexLabeling,
                      vertex_labels=tuple([x - 1 if x <= b else top - x
                                           for x in labeling.vertex_labels]))


def to_super_edge_magic(graph: Graph, labeling: TotalLabeling,
                        bipartition: Optional[Bipartition] = None) -> TotalLabeling:
    """Slide the high vertex block down next to {1..b}; edges move up.

    Turns a side-offset consecutive magic labeling into a super edge-magic
    one (offset |V|), shifting the constant by |other side| - |E|.
    """
    b = _side_split(graph, labeling)
    return _slide(labeling, b, graph.vertex_count, graph.edge_count)
