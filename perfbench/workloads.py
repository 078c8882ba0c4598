"""The three benchmark workloads: seeded inputs, one pass, and its correctness check.

A pass rebuilds every graph, labeling and report from plain data, so nothing
an earlier pass computed is reused and each pass pays what a fresh
``magilab`` process pays.  Public functions are looked up on their modules at
call time (``search.find_consecutive``, not a name bound at import), so the
traced run sees every call through its wrappers.

Correctness is checked after a pass, outside its timed region, against the
committed reference table and against the small independent checkers below,
which share no code with ``magilab.labelings``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass

from magilab import analysis, cli, constructions, graphs, labelings, search

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Offset-enumerate graphs: name, family function in magilab.graphs, arguments.
# The smoke subset is what the benchmark's own tests run.
FAMILIES = [
    ("P4", "build_path", (4,)), ("P6", "build_path", (6,)),
    ("P9", "build_path", (9,)), ("P10", "build_path", (10,)),
    ("K1,5", "build_star", (5,)),
    ("C5", "build_cycle", (5,)), ("C6", "build_cycle", (6,)),
    ("C7", "build_cycle", (7,)), ("C9", "build_cycle", (9,)),
    ("K2,2", "build_complete_bipartite", (2, 2)), ("K2,3", "build_complete_bipartite", (2, 3)),
    ("K3,3", "build_complete_bipartite", (3, 3)), ("K3,4", "build_complete_bipartite", (3, 4)),
    ("DS1,2", "build_double_star", (1, 2)), ("DS2,2", "build_double_star", (2, 2)),
    ("DS1,3", "build_double_star", (1, 3)), ("DS2,3", "build_double_star", (2, 3)),
    ("DS4,4", "build_double_star", (4, 4)),
    ("L3", "build_lobster", (3,)), ("L4", "build_lobster", (4,)),
    ("CS3;2,1,2", "build_caterpillar", ((2, 1, 2),)),
    ("CS4;1,1,1,1", "build_caterpillar", ((1, 1, 1, 1),)),
    ("CS4;2,2,2,0", "build_caterpillar", ((2, 2, 2, 0),)),
]
SMOKE_FAMILIES = ("P4", "K1,5", "C5", "K2,3", "DS1,2", "L3")
# The two heaviest graphs take ~70% of a pass at one round; every other graph is
# searched in three rounds, so the call percentiles rest on 506 calls a pass.
SINGLE_ROUND = ("DS4,4", "CS4;2,2,2,0")
ROUNDS = 3

CLI_EVERY = 20  # construct-verify sends every 20th spec through the CLI as well
PASS_INPUTS = 8  # seeded inputs drawn per run; pass i of a run uses input i mod 8


def family_graph(factory: str, args: tuple) -> graphs.Graph:
    if factory == "build_caterpillar":
        (counts,) = args
        return graphs.build_caterpillar(graphs.CaterpillarSpec(len(counts), counts)).graph
    return getattr(graphs, factory)(*args).graph


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def read_or_none(path: str, mode: str):
    if not os.path.exists(path):
        return None
    with open(path, mode) as fh:
        return fh.read()


def plain(value):
    """JSON-shaped copy of a report value: sets sorted, tuples as lists."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def report_rows(reports) -> list:
    return [[r.theorem_id, r.graph_description, plain(r.predicted), plain(r.observed),
             r.verdict, r.detail] for r in reports]


# ---------------------------------------------------------------------------
# independent checkers
# ---------------------------------------------------------------------------

def magic_block(graph: graphs.Graph, labeling) -> tuple[int, int] | None:
    """(k, b) of a consecutive edge-magic total labeling, else None."""
    n, edges = graph.vertex_count, graph.edges
    vl, el = labeling.vertex_labels, labeling.edge_labels
    if len(vl) != n or len(el) != len(edges):
        return None
    if sorted(vl + el) != list(range(1, n + len(edges) + 1)):
        return None
    sums = {vl[u] + vl[v] + x for (u, v), x in zip(edges, el)}
    lo = min(el)
    if len(sums) != 1 or sorted(el) != list(range(lo, lo + len(el))):
        return None
    return sums.pop(), lo - 1


def graceful_ok(graph: graphs.Graph, vertex_labels) -> bool:
    e = graph.edge_count
    if sorted(set(vertex_labels)) != sorted(vertex_labels) or not all(0 <= x <= e for x in vertex_labels):
        return False
    return {abs(vertex_labels[u] - vertex_labels[v]) for u, v in graph.edges} == set(range(1, e + 1))


def side_sizes(counts: tuple) -> tuple[int, int]:
    """(alpha, beta) of the caterpillar S_{counts}, from the paper's definition."""
    r = len(counts)
    alpha = (r + 1) // 2 + sum(counts[1::2])
    beta = r // 2 + sum(counts[0::2])
    return alpha, beta


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    outputs: list
    calls: list  # (start, end) clock readings of each benchmark-issued public call


class SuiteSweep:
    """In-process ``magilab suite`` runs: the user's grade-the-paper path."""

    name = "suite-sweep"

    def inputs(self, seed: int, smoke: bool = False) -> list:
        """The paper's three suites, in a fixed order: the seed changes nothing here."""
        max_labels = "9" if smoke else "17"
        suites = [("caterpillar", ["--max-labels", max_labels]), ("lobster", []), ("closing", [])]
        return [suites] * PASS_INPUTS

    def run_pass(self, inputs, tmpdir: str, clock=time.perf_counter) -> PassResult:
        outputs, calls = [], []
        for suite, extra in inputs:
            path = os.path.join(tmpdir, f"suite-{suite}.json")
            if os.path.exists(path):
                os.remove(path)
            argv = ["suite", suite, *extra, "--format", "json", "-o", path]
            start = clock()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an unexpected exception fails the item
                code = repr(exc)
            calls.append((start, clock()))
            outputs.append(("-".join([suite, *extra[1:]]), code, read_or_none(path, "rb")))
        return PassResult(outputs, calls)

    def check(self, result: PassResult, reference: dict) -> tuple[int, int]:
        """One item per report row; a bad exit code or digest fails every row of its suite."""
        attempted = failed = 0
        for key, code, text in result.outputs:
            try:
                rows = json.loads(text)
            except (TypeError, ValueError):
                rows = [None]
            attempted += len(rows)
            digest = hashlib.sha256(text).hexdigest() if text is not None else None
            if code != 0 or digest != reference["suite_sha256"].get(key):
                failed += len(rows)
            else:
                failed += sum(row["verdict"] != analysis.PASS for row in rows)
        return attempted, failed


class OffsetEnumerate:
    """Every labeling at every offset of ~23 small graphs, plus the double-star suite."""

    name = "offset-enumerate"

    def inputs(self, seed: int, smoke: bool = False) -> list:
        """Per pass, one (name, |V|, b, edges) per search: each search gets its own
        seed-chosen vertex relabelling of the family graph.

        Search cost depends on vertex order by up to 1.7x per graph, so a fresh
        relabelling per search and per pass keeps one unlucky order from
        setting a whole run's timings.
        """
        rng = random.Random(seed)
        family = [(name, family_graph(factory, args)) for name, factory, args in FAMILIES
                  if not smoke or name in SMOKE_FAMILIES]
        passes = []
        for _ in range(PASS_INPUTS):
            calls = []
            for name, graph in family:
                n = graph.vertex_count
                for _ in range(1 if name in SINGLE_ROUND else ROUNDS):
                    for b in range(n + 1):
                        perm = rng.sample(range(n), n)
                        edges = tuple((perm[u], perm[v]) for u, v in graph.edges)
                        calls.append((name, n, b, edges))
            passes.append(calls)
        return passes

    def run_pass(self, inputs, tmpdir: str, clock=time.perf_counter) -> PassResult:
        found, calls = [], []
        for name, n, b, edges in inputs:
            graph = graphs.Graph(n, edges)
            start = clock()
            try:
                report = search.find_consecutive(search.SearchQuery(graph, b))
            except Exception as exc:
                report = exc
            calls.append((start, clock()))
            if isinstance(report, Exception):
                found.append((name, graph, b, report, None))
                continue
            verdicts = [labelings.classify(graph, lab) for lab in report.labelings]
            found.append((name, graph, b, report, verdicts))
        start = clock()
        try:
            rows = report_rows(analysis.double_star_suite())
        except Exception as exc:
            rows = [repr(exc)]
        calls.append((start, clock()))
        return PassResult([found, rows], calls)

    def check(self, result: PassResult, reference: dict) -> tuple[int, int]:
        """One item per (graph, b) search and one per double-star suite row."""
        found, rows = result.outputs
        failed = 0
        for name, graph, b, report, verdicts in found:
            count, constants = reference["offsets"][name][b]
            ok = (verdicts is not None and report.exhausted
                  and report.solution_count == count == len(set(report.labelings))
                  and sorted(report.constants_found) == constants
                  and all(v.consecutive_index == b and v.magic_constant in report.constants_found
                          for v in verdicts))
            if ok:
                blocks = {magic_block(graph, lab) for lab in report.labelings}
                ok = blocks <= {(k, b) for k in constants}
            failed += not ok
        expected = reference["double_star_rows"]
        failed += sum(row != want or want[4] != analysis.PASS
                      for row, want in itertools.zip_longest(rows, expected))
        return len(found) + max(len(rows), len(expected)), failed


@dataclass
class ConstructOut:
    handle: object
    derived: dict
    verdicts: dict
    graceful: object
    refused: bool
    checks: tuple
    round_trip: tuple


def construct_chain(counts: tuple) -> ConstructOut:
    """Closed forms, transforms, checks and a JSON round trip for one caterpillar."""
    spec = graphs.CaterpillarSpec(len(counts), counts)
    handle = graphs.build_caterpillar(spec)
    graph, bip = handle.graph, handle.bipartition
    beta = constructions.caterpillar_beta_labeling(spec)
    sup = constructions.caterpillar_super_labeling(spec)
    derived = {
        "beta": beta,
        "super": sup,
        "dual-beta": constructions.dual(graph, beta),
        "dual-super": constructions.dual(graph, sup),
        "star-beta": constructions.lambda_star(graph, beta, bip),
        "star-super": constructions.lambda_star(graph, sup, bip),
        "super-of-beta": constructions.to_super_edge_magic(graph, beta, bip),
    }
    verdicts = {key: labelings.classify(graph, lab, bip) for key, lab in derived.items()}
    graceful = constructions.to_graceful(graph, beta, bip)
    try:  # a super labeling has no side offset, so the graceful transform must refuse it
        constructions.to_graceful(graph, sup, bip)
        refused = False
    except constructions.ConstructionError:
        refused = True
    checks = (labelings.is_graceful(graph, graceful),
              labelings.neighbor_block_holds(graph, beta, spec.beta))
    record = json.loads(json.dumps({"graph": handle.to_dict(), "labeling": beta.to_dict()}))
    round_trip = (graphs.graph_from_dict(record["graph"]),
                  labelings.TotalLabeling.from_dict(record["labeling"]))
    return ConstructOut(handle, derived, verdicts, graceful, refused, checks, round_trip)


def expected_blocks(counts: tuple) -> dict:
    """(k, b, side) of each derived labeling, from the closed forms and transform shifts."""
    alpha, beta = side_sizes(counts)
    n = len(counts) + sum(counts)
    e = n - 1
    top = 3 * (n + e + 1)
    k_beta, k_super = 2 * alpha + 4 * beta, 2 * alpha + 3 * beta + 1
    return {
        "beta": (k_beta, beta, "Y"),
        "super": (k_super, n, None),
        "dual-beta": (top - k_beta, n - beta, "X"),
        "dual-super": (top - k_super, 0, None),
        "star-beta": (5 * beta + (n - beta) + 3 * e + 3 - k_beta, beta, "Y"),
        "star-super": (4 * n + e + 3 - k_super, n, None),
        "super-of-beta": (k_beta + (n - beta) - e, n, None),
    }


class ConstructVerify:
    """Every small caterpillar through constructions, transforms, checks and JSON."""

    name = "construct-verify"

    def inputs(self, seed: int, smoke: bool = False) -> list:
        """All specs with r <= 6 and leaf counts 0..3 that have an edge; per pass, the
        seed picks which residue mod 20 also runs through the CLI."""
        max_r = 3 if smoke else 6
        specs = [counts for r in range(1, max_r + 1)
                 for counts in itertools.product(range(4), repeat=r) if r > 1 or counts[0]]
        rng = random.Random(seed)
        return [(specs, rng.randrange(CLI_EVERY)) for _ in range(PASS_INPUTS)]

    def run_pass(self, inputs, tmpdir: str, clock=time.perf_counter) -> PassResult:
        specs, offset = inputs
        library, via_cli, calls = [], [], []
        paths = [os.path.join(tmpdir, name) for name in ("bundle.json", "dual.json", "verdict.json")]
        for i, counts in enumerate(specs):
            start = clock()
            try:
                out = construct_chain(counts)
            except Exception as exc:
                out = exc
            calls.append((start, clock()))
            library.append((counts, out))
            if i % CLI_EVERY != offset:
                continue
            for path in paths:
                if os.path.exists(path):
                    os.remove(path)
            spine = ",".join(map(str, counts))
            codes = []
            for argv in (["construct", "caterpillar-beta", "--spine", spine, "-o", paths[0]],
                         ["transform", "dual", paths[0], "-o", paths[1]],
                         ["verify", paths[1], "-o", paths[2]]):
                start = clock()
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:
                    codes.append(repr(exc))
                calls.append((start, clock()))
            via_cli.append((counts, codes, [read_or_none(path, "r") for path in paths[1:]]))
        return PassResult([library, via_cli], calls)

    def check(self, result: PassResult, reference: dict) -> tuple[int, int]:
        """One item per spec and one per CLI chain."""
        library, via_cli = result.outputs
        failed = sum(not self._library_ok(counts, out) for counts, out in library)
        failed += sum(not self._cli_ok(*item) for item in via_cli)
        return len(library) + len(via_cli), failed

    @staticmethod
    def _library_ok(counts, out) -> bool:
        if not isinstance(out, ConstructOut):
            return False
        graph = out.handle.graph
        for key, (k, b, side) in expected_blocks(counts).items():
            verdict = out.verdicts[key]
            if (magic_block(graph, out.derived[key]) != (k, b)
                    or (verdict.magic_constant, verdict.consecutive_index) != (k, b)
                    or verdict.is_super != (b == graph.vertex_count)
                    or verdict.side_with_small_labels != side):
                return False
        handle, labeling = out.round_trip
        return (graceful_ok(graph, out.graceful.vertex_labels) and out.checks == (True, True)
                and out.refused and handle == out.handle and labeling == out.derived["beta"])

    @staticmethod
    def _cli_ok(counts, codes, texts) -> bool:
        if codes != [0, 0, 0] or None in texts:
            return False
        k, b, side = expected_blocks(counts)["dual-beta"]
        bundle = json.loads(texts[0])
        graph = graphs.Graph.from_dict(bundle["graph"])
        labeling = labelings.TotalLabeling.from_dict(bundle["labeling"])
        return (magic_block(graph, labeling) == (k, b)
                and json.loads(texts[1]) == {"k": k, "b": b, "super": False, "side": side})


WORKLOADS = {w.name: w for w in (SuiteSweep(), OffsetEnumerate(), ConstructVerify())}


def setup(workload: str, seed: int):
    """What a run builds before its first pass: its seeded pass inputs and the reference table."""
    return WORKLOADS[workload].inputs(seed), load_reference()


def write_reference(tmpdir: str) -> None:
    """Regenerate the reference table from the magilab next to this benchmark.

    Offsets are searched on the unrelabelled family graphs: solution counts
    and constant sets do not change under relabelling, so one table serves
    every seed.
    """
    os.makedirs(tmpdir, exist_ok=True)
    digests = {}
    sweep = WORKLOADS["suite-sweep"]
    for smoke in (False, True):
        for key, code, text in sweep.run_pass(sweep.inputs(0, smoke)[0], tmpdir).outputs:
            if code != 0 or text is None:
                raise RuntimeError(f"suite {key} exited with {code}")
            digests[key] = hashlib.sha256(text).hexdigest()
    offsets = {}
    for name, factory, args in FAMILIES:
        graph = family_graph(factory, args)
        reports = [search.find_consecutive(search.SearchQuery(graph, b))
                   for b in range(graph.vertex_count + 1)]
        offsets[name] = [[r.solution_count, sorted(r.constants_found)] for r in reports]
    table = {"suite_sha256": digests, "offsets": offsets,
             "double_star_rows": report_rows(analysis.double_star_suite())}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
