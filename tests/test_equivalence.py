"""``tools/equivalence.py`` digests every answer of the searches; these are
its digests on the 17 graphs with at most 10 labels."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"

DIGESTS_AT_10_LABELS = {
    "find_consecutive": "ddc56cbe47072e9b83698c25ddb1a7682c55b92c03b793614779482b2e39bd24",
    "find_edge_magic": "eb4c64df9b8bd996b49eb2465922fc43e289e9ab0d79ff555539af11d4a63309",
    "feasible_b_set": "5a715836cd3359395032d1ad337e03a35a1f8b6e99d3e5e1beda2eaf4767c569",
    "feasible_k_set": "bc09918f2d15690bc640ca79870ced1ca20c5bac896b7a8cdf4dbdf20e77d12e",
    "classify": "fa70f8a81edad28207f17cdd8c5e91dbb3ad2d1a45104ad6805fe9ad680c6f1a",
}


def _tool():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_answer_matches_its_digest():
    """A change that keeps every answer keeps these digests; one that moves
    a labeling, its order, a count or a feasible set changes one."""
    pytest.importorskip("networkx")
    assert _tool().digests(10) == (17, DIGESTS_AT_10_LABELS)


def test_the_graphs_are_the_atlas_then_the_larger_trees():
    pytest.importorskip("networkx")
    tool = _tool()
    small = tool.graphs(10)
    assert len(small) == 17 and all(g.edge_count and g.label_count <= 10 for g in small)
    # 8 vertices is the first tree size past the atlas: 23 free trees, 15 labels
    grown = tool.graphs(15)
    assert [g.vertex_count for g in grown[-23:]] == [8] * 23
    assert all(g.edge_count == 7 for g in grown[-23:])
