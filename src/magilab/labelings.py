"""Total and vertex labelings plus the classifiers that grade them.

All checks are exact integer arithmetic; nothing here tolerates
approximation.  A total labeling assigns ``1..|V|+|E|`` bijectively to
vertices and edges; the classifiers report whether it is edge-magic, where
its edge-label block sits, and whether it lands in the super range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Bipartition, Graph, require_record


class LabelingError(ValueError):
    """Labeling does not fit the graph it is paired with."""


def _require_int_labels(labels: tuple) -> None:
    """Reject every label that is not exactly an int: no 1.5, "a" or True."""
    if set(map(type, labels)) - {int}:
        bad = next(x for x in labels if type(x) is not int)
        raise LabelingError(f"bad labeling record: label {bad!r} is not an integer")


@dataclass(frozen=True, order=True)
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
        check it.  This is :func:`magilab.graphs._unchecked` with its loop
        unrolled: a search builds one labeling per leaf kept, and the loop
        costs about 0.4 us more per labeling.
        """
        labeling = object.__new__(cls)
        object.__setattr__(labeling, "vertex_labels", vertex_labels)
        object.__setattr__(labeling, "edge_labels", edge_labels)
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


@dataclass(frozen=True)
class VertexLabeling:
    """Distinct vertex labels drawn from 0..|E|, as used by graceful checks."""

    vertex_labels: tuple[int, ...]

    def __post_init__(self):
        vl = tuple(self.vertex_labels)
        _require_int_labels(vl)
        object.__setattr__(self, "vertex_labels", vl)

    def to_dict(self) -> dict:
        return {"vertex_labels": list(self.vertex_labels)}


@dataclass(frozen=True)
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


def check_total_labeling(graph: Graph, labeling: TotalLabeling) -> None:
    """Raise LabelingError unless the labeling is a bijection onto 1..|V|+|E|."""
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


def magic_constant_of(graph: Graph, labeling: TotalLabeling) -> Optional[int]:
    """The common edge sum, or None if sums differ or there are no edges."""
    check_total_labeling(graph, labeling)
    if graph.edge_count == 0:
        return None
    vl = labeling.vertex_labels
    el = labeling.edge_labels
    k = None
    for i, (u, v) in enumerate(graph.edges):
        s = vl[u] + vl[v] + el[i]
        if k is None:
            k = s
        elif s != k:
            return None
    return k


def consecutive_index_of(graph: Graph, labeling: TotalLabeling) -> Optional[int]:
    """Block offset b such that the edge labels are exactly {b+1..b+|E|}.

    Only reported for edge-magic labelings; a contiguous edge block without
    the magic property would be a misleading positive.
    """
    return _offset_of(graph, labeling, magic_constant_of(graph, labeling))


def _offset_of(graph: Graph, labeling: TotalLabeling, k: Optional[int]) -> Optional[int]:
    """The block offset of a checked labeling whose common edge sum is ``k``.

    ``k`` is what :func:`magic_constant_of` returned for it; None (not
    edge-magic, or no edges) gives None.  The labels are a bijection onto
    1..|V|+|E|, so a contiguous edge block has 1 <= lo and hi <= |V|+|E|,
    which puts b = lo - 1 in 0..|V|.
    """
    if k is None:
        return None
    lo = min(labeling.edge_labels)
    hi = max(labeling.edge_labels)
    if hi - lo + 1 != graph.edge_count:
        return None
    return lo - 1


def neighbor_block_holds(graph: Graph, labeling: TotalLabeling, b: int) -> bool:
    """Do all neighbors of each vertex share one of the two vertex-label blocks?

    The blocks are {1..b} and {b+|E|+1..|V|+|E|}.  Inputs are checked for
    the structural preconditions (bijection, b exactly an int in 1..|V|);
    the block property itself is evaluated directly, so a corrupted
    labeling simply returns False.
    """
    check_total_labeling(graph, labeling)
    if type(b) is not int:  # True would count as 1, and 2.0 as 2
        raise LabelingError(f"b={b!r} is not an integer")
    if not 1 <= b <= graph.vertex_count:
        raise LabelingError(f"b={b} outside 1..{graph.vertex_count}")
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
    non-bipartite graph does not have.
    """
    k = magic_constant_of(graph, labeling)
    b = _offset_of(graph, labeling, k)
    is_super = b == graph.vertex_count  # False when b is None
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
    return LabelingClassification(k, b, is_super, side)
