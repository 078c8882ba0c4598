"""Print one SHA-256 per question family the searches answer, so two trees
can be shown to give the same answers: run it in each and compare.

The graphs are networkx's connected atlas graphs with an edge (at most 7
vertices) and the free trees with 8 or more vertices, each with at most
``--max-labels`` labels |V| + |E| (default 14).  Each family hashes, graph
by graph in that order, the JSON of what it answers:

- ``find_consecutive``: ``to_dict()`` and ``orbit_count`` at every offset b,
  with ``canonical_only`` both ways and ``limit`` None and 1;
- ``find_edge_magic``: the same of the full listing with ``canonical_only``;
- ``feasible_b_set`` and ``feasible_k_set``, sorted;
- ``classify``: ``to_dict()`` of every labeling those listings hold, with
  the graph's own sides.

Run from anywhere: ``python tools/equivalence.py [--max-labels N]``.  It
reads the package from the ``src`` next to it and needs networkx, which the
package itself does not.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: answer with this tree's package
    sys.path.insert(0, str(ROOT / "src"))

from magilab.graphs import Graph  # noqa: E402
from magilab.labelings import classify  # noqa: E402
from magilab.search import (SearchQuery, feasible_b_set, feasible_k_set,  # noqa: E402
                            find_consecutive, find_edge_magic)

FAMILIES = ("find_consecutive", "find_edge_magic", "feasible_b_set",
            "feasible_k_set", "classify")


def graphs(max_labels: int) -> list[Graph]:
    """The atlas graphs, then the free trees by size, with at most ``max_labels`` labels."""
    import networkx as nx

    def graph(g):
        return Graph(g.number_of_nodes(), tuple(sorted(tuple(sorted(e)) for e in g.edges)))

    found = [graph(a) for a in nx.graph_atlas_g()
             if a.number_of_edges() and nx.is_connected(a)]
    n = 8
    while 2 * n - 1 <= max_labels:
        found += [graph(t) for t in nx.nonisomorphic_trees(n)]
        n += 1
    return [g for g in found if g.label_count <= max_labels]


def digests(max_labels: int) -> tuple[int, dict[str, str]]:
    """The number of graphs and each family's SHA-256 over them."""
    hashes = {name: hashlib.sha256() for name in FAMILIES}

    def feed(name, record):
        hashes[name].update(json.dumps(record, separators=(",", ":")).encode() + b"\n")

    def report(name, g, key, found):
        feed(name, [g.edges, key, found.to_dict(), found.orbit_count])
        for lab in found.labelings:
            feed("classify", classify(g, lab).to_dict())

    chosen = graphs(max_labels)
    for g in chosen:
        budget = g.label_count
        for b in range(g.vertex_count + 1):
            for canonical_only in (False, True):
                for limit in (None, 1):
                    query = SearchQuery(g, b=b, limit=limit, canonical_only=canonical_only)
                    report("find_consecutive", g, [b, canonical_only, limit],
                           find_consecutive(query, budget=budget))
        report("find_edge_magic", g, None,
               find_edge_magic(SearchQuery(g, canonical_only=True), budget=budget))
        feed("feasible_b_set", [g.edges, sorted(feasible_b_set(g, budget=budget))])
        feed("feasible_k_set", [g.edges, sorted(feasible_k_set(g, budget=budget))])
    return len(chosen), {name: h.hexdigest() for name, h in hashes.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-labels", type=int, default=14,
                        help="largest |V| + |E| of a graph (default 14)")
    args = parser.parse_args(argv)
    count, found = digests(args.max_labels)
    print(f"graphs           {count}")
    for name, digest in found.items():
        print(f"{name:<16} {digest}")


if __name__ == "__main__":
    main()
