"""Total and vertex labelings plus the classifiers that grade them.

All checks are exact integer arithmetic; nothing here tolerates
approximation.  A total labeling assigns ``1..|V|+|E|`` bijectively to
vertices and edges; the classifiers report whether it is edge-magic, where
its edge-label block sits, and whether it lands in the super range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .graphs import Bipartition, Graph, require_record


class LabelingError(ValueError):
    """Labeling does not fit the graph it is paired with."""


def _require_int_labels(labels: tuple) -> None:
    """Reject every label that is not exactly an int: no 1.5, "a" or True."""
    if set(map(type, labels)) - {int}:
        bad = next(x for x in labels if type(x) is not int)
        raise LabelingError(f"bad labeling record: label {bad!r} is not an integer")


@dataclass(frozen=True, order=True, slots=True)
class TotalLabeling:
    """Vertex labels by vertex index, edge labels by canonical edge order."""

    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]

    def __post_init__(self):
        vl = tuple(self.vertex_labels)
        el = tuple(self.edge_labels)
        _require_int_labels(vl + el)
        object.__setattr__(self, "vertex_labels", vl)
        object.__setattr__(self, "edge_labels", el)

    @classmethod
    def trusted(cls, vertex_labels: tuple[int, ...],
                edge_labels: tuple[int, ...]) -> "TotalLabeling":
        """A labeling of two tuples that hold only exact ints, built without
        the check of ``__post_init__``.

        For labels the library computed itself: a search's leaves, and the
        closed forms and transforms, whose labels are int arithmetic on
        ranges or on a labeling that was checked on its way in.  Input from
        outside goes through the constructor or :meth:`from_dict`, which
        check it.  Each field is set through its slot's descriptor, which
        the frozen ``__setattr__`` does not guard: a search builds one
        labeling per leaf kept, and a report builds them at about 0.5 us a
        labeling, where two ``object.__setattr__`` calls, as in
        :func:`magilab.graphs._unchecked`, made it about 0.7 us.  The
        class is slotted, so what a kept labeling holds beyond its two
        tuples is 48 bytes, with no instance dictionary.
        """
        labeling = object.__new__(cls)
        _set_vertex_labels(labeling, vertex_labels)
        _set_edge_labels(labeling, edge_labels)
        return labeling

    def to_dict(self) -> dict:
        return {"vertex_labels": list(self.vertex_labels),
                "edge_labels": list(self.edge_labels)}

    @classmethod
    def from_dict(cls, data: dict) -> "TotalLabeling":
        require_record(data, "labeling", ("vertex_labels", "edge_labels"), LabelingError)
        for key in ("vertex_labels", "edge_labels"):
            if not isinstance(data[key], (list, tuple)):
                raise LabelingError(f"bad labeling record: {key} must be an array of integers")
        return cls(data["vertex_labels"], data["edge_labels"])


_set_vertex_labels = TotalLabeling.vertex_labels.__set__
_set_edge_labels = TotalLabeling.edge_labels.__set__


@dataclass(frozen=True, slots=True)
class VertexLabeling:
    """Distinct vertex labels drawn from 0..|E|, as used by graceful checks."""

    vertex_labels: tuple[int, ...]

    def __post_init__(self):
        vl = tuple(self.vertex_labels)
        _require_int_labels(vl)
        object.__setattr__(self, "vertex_labels", vl)

    def to_dict(self) -> dict:
        return {"vertex_labels": list(self.vertex_labels)}


@dataclass(frozen=True, slots=True)
class LabelingClassification:
    """Derived facts about one total labeling.

    ``consecutive_index`` is only reported when the labeling is edge-magic
    AND its edge labels form one contiguous block, so a present index always
    comes with a present magic constant.  ``is_super`` means the block sits
    right after the vertex range, i.e. consecutive_index == |V|.
    """

    magic_constant: Optional[int] = None
    consecutive_index: Optional[int] = None
    is_super: bool = False
    side_with_small_labels: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "k": self.magic_constant,
            "b": self.consecutive_index,
            "super": self.is_super,
            "side": self.side_with_small_labels,
        }


# A verdict is an immutable value, and the labelings of one graph share a
# few of them, one per (k, b, side): a cached one costs about 0.2 us a call,
# where building one costs about 0.8 us.
_verdict = lru_cache(maxsize=1024, typed=True)(LabelingClassification)


@lru_cache(maxsize=64)
def _one_to(total: int) -> list[int]:
    """The list 1..total, kept for each recent label count.  Every caller
    gets the same list, to compare with and never to change."""
    return list(range(1, total + 1))


def check_total_labeling(graph: Graph, labeling: TotalLabeling) -> None:
    """Raise LabelingError unless the labeling is a bijection onto 1..|V|+|E|.

    One sort settles it: with |V| vertex and |E| edge labels, the sorted
    labels are 1..|V|+|E| exactly when they are distinct and all in range.
    Only a labeling that fails is walked label by label, for the message of
    its first fault.
    """
    vl = labeling.vertex_labels
    el = labeling.edge_labels
    if (len(vl) == graph.vertex_count and len(el) == len(graph.edges)
            and sorted(vl + el) == _one_to(len(vl) + len(el))):
        return
    if len(vl) != graph.vertex_count:
        raise LabelingError(f"expected {graph.vertex_count} vertex labels, got {len(vl)}")
    if len(el) != graph.edge_count:
        raise LabelingError(f"expected {graph.edge_count} edge labels, got {len(el)}")
    total = graph.label_count
    seen = [False] * (total + 1)
    for value in vl + el:
        if not 1 <= value <= total:
            raise LabelingError(f"label {value} outside 1..{total}")
        if seen[value]:
            raise LabelingError(f"label {value} used twice")
        seen[value] = True


def _magic_block(graph: Graph, labeling: TotalLabeling) -> tuple[Optional[int], Optional[int]]:
    """The magic constant k and block offset b of a labeling, in one pass.

    Raises LabelingError, with :func:`check_total_labeling`'s message,
    unless the labeling is a bijection onto 1..|V|+|E|.  k is the common
    edge sum, None if the sums differ or there are no edges; b is lo - 1
    when k is not None and the edge labels fill one block lo..lo+|E|-1,
    else None.  The labels are a bijection onto 1..|V|+|E|, so such a block
    has 1 <= lo and lo+|E|-1 <= |V|+|E|, which puts b in 0..|V|.
    """
    check_total_labeling(graph, labeling)
    vl = labeling.vertex_labels
    el = labeling.edge_labels
    edges = graph.edges
    if not edges:
        return None, None
    u, v = edges[0]
    k = vl[u] + vl[v] + el[0]
    for (u, v), x in zip(edges, el):
        if vl[u] + vl[v] + x != k:
            return None, None
    lo = min(el)
    return k, (lo - 1 if max(el) - lo < len(el) else None)


def magic_constant_of(graph: Graph, labeling: TotalLabeling) -> Optional[int]:
    """The common edge sum, or None if sums differ or there are no edges."""
    return _magic_block(graph, labeling)[0]


def neighbor_block_holds(graph: Graph, labeling: TotalLabeling, b: int) -> bool:
    """Do all neighbors of each vertex share one of the two vertex-label blocks?

    The blocks are {1..b} and {b+|E|+1..|V|+|E|}.  Inputs are checked for
    the structural preconditions (bijection, b exactly an int in 1..|V|);
    the block property itself is evaluated directly, so a corrupted
    labeling simply returns False.  It reads the edge list once, marking
    for each vertex the blocks its neighbours fall in, and keeps nothing on
    the graph: a neighbour in neither block, or a vertex with neighbours in
    both, gives False.
    """
    check_total_labeling(graph, labeling)
    if type(b) is not int:  # True would count as 1, and 2.0 as 2
        raise LabelingError(f"b={b!r} is not an integer")
    if not 1 <= b <= graph.vertex_count:
        raise LabelingError(f"b={b} outside 1..{graph.vertex_count}")
    high_start = b + graph.edge_count + 1
    # 1 for a label in the low block, 2 in the high block, 0 in neither
    block = [1 if x <= b else 2 if x >= high_start else 0 for x in labeling.vertex_labels]
    seen = [0] * graph.vertex_count  # the blocks of each vertex's neighbours, as bits
    for u, v in graph.edges:
        if not (block[u] and block[v]):
            return False
        seen[u] |= block[v]
        seen[v] |= block[u]
    return 3 not in seen


def is_graceful(graph: Graph, labeling: VertexLabeling) -> bool:
    """True iff the endpoint differences realize {1..|E|} exactly."""
    vl = labeling.vertex_labels
    if len(vl) != graph.vertex_count:
        raise LabelingError(
            f"expected {graph.vertex_count} vertex labels, got {len(vl)}")
    e = graph.edge_count
    if any(not 0 <= x <= e for x in vl):
        raise LabelingError(f"graceful labels must lie in 0..{e}")
    if len(set(vl)) != len(vl):
        raise LabelingError("graceful labels must be pairwise distinct")
    diffs = {abs(vl[u] - vl[v]) for u, v in graph.edges}
    return diffs == set(range(1, e + 1))


def classify(graph: Graph, labeling: TotalLabeling,
             bipartition: Optional[Bipartition] = None) -> LabelingClassification:
    """Aggregate magic constant, consecutive index, super flag, and side tag.

    The side tag names the partite side, "X" or "Y", whose vertex labels
    are exactly {1..b}.  It is only set when 0 < b < |V| and that low block
    is a side of ``bipartition``, used as given, or without one of the
    graph's own (``Graph.own_bipartition``: held by a family builder's
    graph, worked out once for any other), which a disconnected or
    non-bipartite graph does not have.  The low block is compared with each
    side as a set of vertices, so a side that no low block can equal gives
    no tag: one holding a negative vertex, a vertex >= |V|, or another
    graph's vertices.

    The labeling is checked in one pass of ``_magic_block`` (bijection,
    common sum and block), and equal verdicts are one shared instance; over
    the labelings a search lists, a call costs about 3 us (2-core host,
    Python 3.11).
    """
    k, b = _magic_block(graph, labeling)
    n = graph.vertex_count
    side = None
    if b is not None and 0 < b < n:
        sides = graph.own_bipartition if bipartition is None else bipartition
        if sides is not None:
            small = frozenset([v for v, x in enumerate(labeling.vertex_labels) if x <= b])
            side = "X" if small == sides.side_x else "Y" if small == sides.side_y else None
    return _verdict(k, b, b == n, side)
