"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive fixtures (full caterpillar sweep, edge-magic sweeps,
the differential corpus) are module-scoped and shared across criteria.
"""

import time
from itertools import product

import pytest

from magilab.analysis import PASS, caterpillar_suite, closing_claims_suite, constant_form_check
from magilab.constructions import (caterpillar_beta_labeling,
                                   caterpillar_super_labeling, dual,
                                   lambda_star, to_graceful, to_super_edge_magic)
from magilab.graphs import (CaterpillarSpec, build_caterpillar,
                            build_complete_bipartite, build_cycle,
                            build_double_star, build_lobster, build_path,
                            build_star, is_connected)
from magilab.labelings import (check_total_labeling, classify, is_graceful,
                               magic_constant_of, neighbor_block_holds)
from magilab.search import (SearchQuery, count_canonical, feasible_b_set, feasible_k_set,
                            find_consecutive, find_edge_magic, find_graceful)


def _criterion(num, description, failures, started):
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {num:02d} [{status}] {description} "
          f"({time.time() - started:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(map(str, failures[:5]))


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------

GRID_SPECS = [CaterpillarSpec(r, counts)
              for r in range(1, 6)
              for counts in product(range(4), repeat=r)]

DOUBLE_STARS = [(1, 1), (1, 2), (2, 2), (1, 3)]
EDGE_MAGIC_STARS = [(2, 2), (2, 4), (3, 3)]

CORPUS9 = [
    ("P2", build_path(2)), ("P3", build_path(3)), ("P4", build_path(4)),
    ("P5", build_path(5)),
    ("star3", build_star(3)), ("star4", build_star(4)),
    ("C3", build_cycle(3)), ("C4", build_cycle(4)), ("C5", build_cycle(5)),
    ("C6", build_cycle(6)),
    ("DS(1,2)", build_double_star(1, 2)), ("DS(2,2)", build_double_star(2, 2)),
    ("DS(1,3)", build_double_star(1, 3)),
    ("L3", build_lobster(3)), ("L4", build_lobster(4)),
    ("CS(3;2,1,2)", build_caterpillar(CaterpillarSpec(3, (2, 1, 2)))),
    ("K22", build_complete_bipartite(2, 2)), ("K23", build_complete_bipartite(2, 3)),
]


@pytest.fixture(scope="module")
def grid_labelings():
    """Criterion 1 grid: closed-form labelings for every spec, both offsets."""
    rows = []
    for spec in GRID_SPECS:
        handle = build_caterpillar(spec)
        if handle.graph.edge_count == 0:
            continue
        rows.append((spec, handle,
                     caterpillar_beta_labeling(spec),
                     caterpillar_super_labeling(spec)))
    return rows


@pytest.fixture(scope="module")
def differential_runs():
    """Every corpus graph fully searched at every offset."""
    runs = []
    for name, handle in CORPUS9:
        g = handle.graph
        for b in range(g.vertex_count + 1):
            runs.append((name, g, b, find_consecutive(SearchQuery(g, b=b))))
    return runs


@pytest.fixture(scope="module")
def double_star_runs():
    """Full consecutive searches at both side offsets for the small double stars."""
    runs = {}
    for m, n in DOUBLE_STARS:
        g = build_double_star(m, n).graph
        for b in {m + 1, n + 1}:
            runs[(m, n, b)] = find_consecutive(SearchQuery(g, b=b))
    return runs


@pytest.fixture(scope="module")
def edge_magic_runs():
    """Exhaustive edge-magic sweeps; twin symmetry broken, which preserves
    the set of realized constants."""
    runs = {}
    for m, n in EDGE_MAGIC_STARS:
        g = build_double_star(m, n).graph
        runs[(m, n)] = find_edge_magic(SearchQuery(g, canonical_only=True))
    return runs


@pytest.fixture(scope="module")
def lobster_runs():
    """Feasible sets for L_1..L_4 plus stored labelings at feasible offsets."""
    sets = {}
    labelings = []
    for p in (1, 2, 3, 4):
        g = build_lobster(p).graph
        feasible = feasible_b_set(g)
        sets[p] = feasible
        for b in sorted(feasible):
            report = find_consecutive(SearchQuery(g, b=b))
            labelings.extend((g, lab) for lab in report.labelings)
    return sets, labelings


@pytest.fixture(scope="module")
def all_labelings(grid_labelings, differential_runs, double_star_runs,
                  edge_magic_runs, lobster_runs):
    """Everything criteria 1-5 produced, as (graph, labeling) pairs."""
    rows = []
    for spec, handle, beta_lab, super_lab in grid_labelings:
        rows.append((handle.graph, beta_lab))
        rows.append((handle.graph, super_lab))
    for _, g, _, plain in differential_runs:
        rows.extend((g, lab) for lab in plain.labelings)
    for (m, n, b), report in double_star_runs.items():
        g = build_double_star(m, n).graph
        rows.extend((g, lab) for lab in report.labelings)
    for (m, n), report in edge_magic_runs.items():
        g = build_double_star(m, n).graph
        rows.extend((g, lab) for lab in report.labelings)
    rows.extend(lobster_runs[1])
    return rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_construction_validity(grid_labelings):
    """Grid r<=5, n_i<=3: beta labeling is a bijection with b=beta, k=2a+4b."""
    t0 = time.time()
    failures = []
    for spec, handle, beta_lab, _ in grid_labelings:
        g = handle.graph
        try:
            check_total_labeling(g, beta_lab)
        except Exception as exc:
            failures.append(f"{spec}: {exc}")
            continue
        got = classify(g, beta_lab, handle.bipartition)
        if got.consecutive_index != spec.beta:
            failures.append(f"{spec}: b={got.consecutive_index} != {spec.beta}")
        if got.magic_constant != 2 * spec.alpha + 4 * spec.beta:
            failures.append(f"{spec}: k={got.magic_constant}")
    assert len(grid_labelings) == sum(4 ** r for r in range(1, 6)) - 1  # minus edgeless
    _criterion(1, f"caterpillar grid construction validity "
                  f"({len(grid_labelings)} specs)", failures, t0)


def test_criterion_02_caterpillar_iff():
    """Exhausted feasible sets match {0, beta, alpha, alpha+beta} up to 19 labels."""
    t0 = time.time()
    failures = []
    reports = caterpillar_suite(max_labels=19)
    for report in reports:
        if report.verdict != PASS:
            failures.append(f"{report.graph_description}: {report.verdict} "
                            f"predicted={report.predicted} observed={report.observed}")
    spec_count = sum(1 for _ in _all_specs_up_to(10))
    if spec_count != 1022:
        failures.append(f"grid enumeration produced {spec_count} specs, expected 1022")
    _criterion(2, f"caterpillar iff over {len(reports)} isomorphism classes "
                  f"({spec_count} specs)", failures, t0)


def _all_specs_up_to(max_vertices):
    for total in range(2, max_vertices + 1):
        for r in range(1, total + 1):
            for counts in product(range(total - r + 1), repeat=r):
                if sum(counts) == total - r:
                    yield CaterpillarSpec(r, counts)


def test_criterion_03_double_star_uniqueness(double_star_runs):
    """Exactly two labeling orbits at each side offset, with forced constants."""
    t0 = time.time()
    failures = []
    for m, n in DOUBLE_STARS:
        g = build_double_star(m, n).graph
        for b, expected_k in ((m + 1, 4 * m + 2 * n + 6), (n + 1, 2 * m + 4 * n + 6)):
            orbits = count_canonical(g, b)
            if orbits != 2:
                failures.append(f"DS({m},{n}) b={b}: {orbits} orbits")
            report = double_star_runs[(m, n, b)]
            if not report.exhausted:
                failures.append(f"DS({m},{n}) b={b}: not exhausted")
            if report.constants_found != frozenset({expected_k}):
                failures.append(f"DS({m},{n}) b={b}: constants "
                                f"{sorted(report.constants_found)} != {{{expected_k}}}")
            for lab in report.labelings:
                if magic_constant_of(g, lab) != expected_k:
                    failures.append(f"DS({m},{n}) b={b}: labeling with wrong k")
    _criterion(3, "double-star uniqueness (2 orbits, forced constants)", failures, t0)


def test_criterion_04_constant_form(edge_magic_runs):
    """Every realized magic constant is gcd(m,n)*t + 6 for some t >= 0, and
    one witness per constant (``feasible_k_set``, which the suite reads)
    finds exactly the constants of the full listing."""
    t0 = time.time()
    failures = []
    for m, n in EDGE_MAGIC_STARS:
        report = edge_magic_runs[(m, n)]
        if not report.exhausted:
            failures.append(f"DS({m},{n}): not exhausted")
        if not report.constants_found:
            failures.append(f"DS({m},{n}): no edge-magic labelings found")
        witnessed = feasible_k_set(build_double_star(m, n).graph)
        if witnessed != report.constants_found:
            failures.append(f"DS({m},{n}): feasible_k_set {sorted(witnessed)} != "
                            f"listing {sorted(report.constants_found)}")
        for k in sorted(report.constants_found):
            witness = constant_form_check(m, n, k)
            if witness.t is None or witness.t < 0:
                failures.append(f"DS({m},{n}): k={k} has no witness")
            elif witness.d * witness.t + 6 != k:
                failures.append(f"DS({m},{n}): bad witness for k={k}")
    _criterion(4, "double-star magic constants of form gcd*t+6", failures, t0)


def test_criterion_05_lobster_nonexistence(lobster_runs):
    """L_3 and L_4 keep only the extreme offsets; L_1, L_2 admit middle ones."""
    t0 = time.time()
    failures = []
    sets, _ = lobster_runs
    if sets[3] != {0, 7}:
        failures.append(f"L_3 feasible {sorted(sets[3])} != [0, 7]")
    if sets[4] != {0, 9}:
        failures.append(f"L_4 feasible {sorted(sets[4])} != [0, 9]")
    if 2 not in sets[1]:
        failures.append(f"L_1 missing offset 2: {sorted(sets[1])}")
    if 3 not in sets[2]:
        failures.append(f"L_2 missing offset 3: {sorted(sets[2])}")
    _criterion(5, "lobster feasible sets (exhausted sweeps)", failures, t0)


def test_criterion_06_transform_contracts(all_labelings):
    """dual and lambda_star: involutions with exact (b, k) maps, everywhere."""
    t0 = time.time()
    failures = []
    checked = 0
    for g, lab in all_labelings:
        n, e = g.vertex_count, g.edge_count
        top = n + e + 1
        k = magic_constant_of(g, lab)
        b = classify(g, lab).consecutive_index
        if k is None:
            failures.append("non-magic labeling in corpus")
            continue
        d = dual(g, lab)
        if magic_constant_of(g, d) != 3 * top - k:
            failures.append(f"dual constant wrong on {g.vertex_count}-vertex graph")
        if classify(g, d).consecutive_index != (n - b if b is not None else None):
            failures.append("dual offset wrong")
        if dual(g, d) != lab:
            failures.append("dual not an involution")
        if b is not None:
            star = lambda_star(g, lab)
            if b == 0:
                expected = 2 * n + 5 * e + 3 - k
            elif b == n:
                expected = 4 * n + e + 3 - k
            else:
                expected = 5 * b + (n - b) + 3 * e + 3 - k
            if classify(g, star).consecutive_index != b:
                failures.append("lambda_star changed the offset")
            if magic_constant_of(g, star) != expected:
                failures.append(f"lambda_star constant {magic_constant_of(g, star)} "
                                f"!= {expected} at b={b}")
            if lambda_star(g, star) != lab:
                failures.append("lambda_star not an involution")
        checked += 1
        if len(failures) > 10:
            break
    _criterion(6, f"transform contracts over {checked} labelings", failures, t0)


def test_criterion_07_side_offset_conversions(all_labelings):
    """Side-offset labelings on small trees convert to graceful and super."""
    t0 = time.time()
    failures = []
    converted = 0
    for g, lab in all_labelings:
        n = g.vertex_count
        if n > 9 or g.edge_count != n - 1 or not is_connected(g):
            continue
        b = classify(g, lab).consecutive_index
        if b is None or b == 0 or b == n:
            continue
        phi = to_graceful(g, lab)
        if not is_graceful(g, phi):
            failures.append(f"to_graceful output not graceful (n={n}, b={b})")
        sup = to_super_edge_magic(g, lab)
        if not classify(g, sup).is_super:
            failures.append(f"to_super output not super (n={n}, b={b})")
        converted += 1
        if len(failures) > 10:
            break
    if converted == 0:
        failures.append("no side-offset tree labelings in the corpus")
    witnesses = find_graceful(build_lobster(4).graph, limit=1)
    if not witnesses or not is_graceful(build_lobster(4).graph, witnesses[0]):
        failures.append("no graceful labeling found for L_4")
    _criterion(7, f"graceful/super conversions over {converted} side-offset "
                  f"labelings, plus the L_4 graceful witness", failures, t0)


def test_criterion_08_closing_claims():
    """Cycles and complete bipartite graphs behave as the closing claims say."""
    t0 = time.time()
    failures = []
    expected_sets = {}
    for length in (3, 5, 7):
        expected_sets[f"C{length}"] = (build_cycle(length).graph, {0, length})
    for m, n in ((2, 2), (2, 3), (3, 3)):
        expected_sets[f"K{m}{n}"] = (build_complete_bipartite(m, n).graph, set())
    observed_all = {}
    for name, (g, expected) in expected_sets.items():
        observed = feasible_b_set(g)
        observed_all[name] = (g, observed)
        if observed != expected:
            failures.append(f"{name}: feasible {sorted(observed)} != {sorted(expected)}")
    for n in (1, 2, 3, 4):
        g = build_complete_bipartite(1, n).graph
        observed = feasible_b_set(g)
        observed_all[f"K1{n}"] = (g, observed)
        if not observed:
            failures.append(f"K_1,{n}: no consecutive labeling found")
    for length in (4, 6):
        g = build_cycle(length).graph
        observed = feasible_b_set(g)
        observed_all[f"C{length}"] = (g, observed)
        print(f"  C_{length} feasible set recorded: {sorted(observed)}")
    # the dual argument demands 0-feasibility iff |V|-feasibility everywhere;
    # feasible_b_set mirrors its upper offsets by that very argument, so both
    # ends are searched here on their own
    for name, (g, _) in observed_all.items():
        ends = [find_consecutive(SearchQuery(g, b=b, limit=1)).solution_count > 0
                for b in (0, g.vertex_count)]
        if ends[0] != ends[1]:
            failures.append(f"{name}: 0-feasibility and |V|-feasibility disagree")
    reports = closing_claims_suite()
    for report in reports:
        if report.verdict != PASS:
            failures.append(f"suite {report.graph_description}: {report.verdict}")
    _criterion(8, "closing claims (odd/even cycles, complete bipartite)", failures, t0)


def test_criterion_09_oracle_independence(differential_runs):
    """The stop-at-first feasible sweep agrees with full searches on the corpus."""
    t0 = time.time()
    failures = []
    found = {}
    for name, g, b, plain in differential_runs:
        offsets = found.setdefault(name, (g, set()))[1]
        if plain.solution_count > 0:
            offsets.add(b)
    for name, (g, offsets) in found.items():
        observed = feasible_b_set(g)
        if observed != offsets:
            failures.append(f"{name}: feasible {sorted(observed)} != "
                            f"full-search {sorted(offsets)}")
    _criterion(9, f"feasible sweep vs {len(differential_runs)} full searches",
               failures, t0)


def test_criterion_10_neighbor_block_property(all_labelings):
    """Both neighbor labels of any vertex share a block, for every b >= 1 found."""
    t0 = time.time()
    failures = []
    checked = 0
    for g, lab in all_labelings:
        b = classify(g, lab).consecutive_index
        if b is None or b < 1:
            continue
        if not neighbor_block_holds(g, lab, b):
            failures.append(f"block property failed at b={b} on "
                            f"{g.vertex_count}-vertex graph")
        checked += 1
        if len(failures) > 10:
            break
    if checked == 0:
        failures.append("no consecutive labelings with b >= 1 in the corpus")
    _criterion(10, f"neighbor-block property over {checked} labelings", failures, t0)
