"""Closed-form labelings and the transforms between them."""

import re
from itertools import product

import pytest

from magilab.constructions import (ConstructionError, caterpillar_beta_labeling,
                                   caterpillar_super_labeling,
                                   double_star_consecutive, dual, lambda_star,
                                   to_graceful, to_super_edge_magic)
from magilab.graphs import (Bipartition, CaterpillarSpec, Graph, GraphError,
                            build_caterpillar, build_double_star, build_path)
from magilab.labelings import (LabelingError, TotalLabeling, VertexLabeling,
                               check_total_labeling, classify, consecutive_index_of,
                               is_graceful)
from magilab.search import SearchQuery, find_consecutive


def _cat(r, counts):
    spec = CaterpillarSpec(r, counts)
    return spec, build_caterpillar(spec)


# ---------------------------------------------------------------------------
# beta-offset caterpillar labeling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("counts,beta_form,super_form", [
    ((1, 1),  # P4: c1, c1_1, c2, c2_1; edges c1-c1_1, c1-c2, c2-c2_1
     ((6, 1, 2, 7), (5, 4, 3)),
     ((3, 1, 2, 4), (7, 6, 5))),
    ((2, 0, 3, 1),
     ((17, 1, 2, 3, 18, 4, 5, 6, 7, 19), tuple(range(16, 7, -1))),
     ((8, 1, 2, 3, 9, 4, 5, 6, 7, 10), tuple(range(19, 10, -1)))),
    ((0, 2, 0, 1, 1),
     ((12, 1, 13, 14, 15, 2, 16, 17, 3), tuple(range(11, 3, -1))),
     ((4, 1, 5, 6, 7, 2, 8, 9, 3), tuple(range(17, 9, -1)))),
], ids=["P4", "S2031", "S02011"])
def test_beta_labeling_p4_exact(counts, beta_form, super_form):
    spec, handle = _cat(len(counts), counts)
    lam = caterpillar_beta_labeling(spec)
    sup = caterpillar_super_labeling(spec)
    assert (lam.vertex_labels, lam.edge_labels) == beta_form
    assert (sup.vertex_labels, sup.edge_labels) == super_form
    got = classify(handle.graph, lam)
    assert (got.magic_constant, got.consecutive_index) == \
        (2 * spec.alpha + 4 * spec.beta, spec.beta)


@pytest.mark.parametrize("r,counts,b,k", [
    (1, (3,), 3, 14),        # star with 3 leaves: alpha=1, beta=3
    (3, (2, 1, 2), 5, 26),   # alpha=3, beta=5
    (2, (1, 1), 2, 12),
])
def test_beta_labeling_classifies(r, counts, b, k):
    spec, handle = _cat(r, counts)
    lam = caterpillar_beta_labeling(spec)
    got = classify(handle.graph, lam)
    assert got.consecutive_index == b == spec.beta
    assert got.magic_constant == k == 2 * spec.alpha + 4 * spec.beta


def test_beta_labeling_grid():
    """Bijection + offset + constant over every spec with r <= 5, counts 0..3."""
    for r in range(1, 6):
        for counts in product(range(4), repeat=r):
            spec, handle = _cat(r, counts)
            if handle.graph.edge_count == 0:
                continue
            lam = caterpillar_beta_labeling(spec)
            check_total_labeling(handle.graph, lam)
            got = classify(handle.graph, lam)
            assert got.consecutive_index == spec.beta
            assert got.magic_constant == 2 * spec.alpha + 4 * spec.beta


@pytest.mark.parametrize("construction", [caterpillar_beta_labeling,
                                          caterpillar_super_labeling])
def test_closed_forms_refuse_edgeless_caterpillar(construction):
    with pytest.raises(ConstructionError, match="at least one edge"):
        construction(CaterpillarSpec(1, (0,)))


# ---------------------------------------------------------------------------
# double stars
# ---------------------------------------------------------------------------

def test_double_star_variant1_equals_beta_labeling():
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
        assert double_star_consecutive(m, n, 1) == \
            caterpillar_beta_labeling(CaterpillarSpec(2, (m, n)))


@pytest.mark.parametrize("m,n,variant,k", [
    (1, 1, 1, 12),
    (1, 2, 1, 14),
    (2, 2, 2, 18),
])
def test_double_star_classifies(m, n, variant, k):
    handle = build_double_star(m, n)
    lam = double_star_consecutive(m, n, variant)
    got = classify(handle.graph, lam)
    assert got.consecutive_index == m + 1
    assert got.magic_constant == k == 4 * m + 2 * n + 6


@pytest.mark.parametrize("variant", [True, 2.0, 0, 3, "1", None])
def test_double_star_consecutive_refuses_a_variant_other_than_int_1_or_2(variant):
    with pytest.raises(ConstructionError, match="^variant must be 1 or 2$"):
        double_star_consecutive(1, 2, variant)


def test_double_star_variants_distinct_and_extreme():
    handle = build_double_star(2, 2)
    v1 = double_star_consecutive(2, 2, 1)
    v2 = double_star_consecutive(2, 2, 2)
    assert v1 != v2
    # the low-block center takes m+1 in one variant and 1 in the other
    c2 = handle.vertex("c2")
    assert {v1.vertex_labels[c2], v2.vertex_labels[c2]} == {3, 1}
    with pytest.raises(ConstructionError):
        double_star_consecutive(2, 2, 3)


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def test_dual_maps_offset_and_constant():
    spec, handle = _cat(2, (1, 1))
    g = handle.graph
    lam = caterpillar_beta_labeling(spec)
    d = dual(g, lam)
    got = classify(g, d)
    assert got.magic_constant == 3 * (g.label_count + 1) - 12 == 12
    assert got.consecutive_index == g.vertex_count - 2 == 2
    assert dual(g, d) == lam


def test_dual_of_zero_offset_is_super():
    p3 = build_path(3).graph
    report = find_consecutive(SearchQuery(p3, b=0))
    assert report.labelings
    for lam in report.labelings:
        got = classify(p3, dual(p3, lam))
        assert got.is_super


def test_dual_rejects_non_magic():
    p3 = build_path(3).graph
    with pytest.raises(ConstructionError):
        dual(p3, TotalLabeling((1, 2, 3), (4, 5)))


# ---------------------------------------------------------------------------
# lambda_star
# ---------------------------------------------------------------------------

def test_lambda_star_side_case_constant():
    # offset 2 splits the 4-vertex double star into sides of size 2 and 2
    spec, handle = _cat(2, (1, 1))
    g = handle.graph
    lam = double_star_consecutive(1, 1, 1)
    star = lambda_star(g, lam, handle.bipartition)
    got = classify(g, star)
    assert got.consecutive_index == 2
    assert got.magic_constant == 5 * 2 + 2 + 3 * 3 + 3 - 12 == 12
    assert lambda_star(g, star, handle.bipartition) == lam


def test_lambda_star_full_and_zero_cases():
    p3 = build_path(3).graph
    sup = TotalLabeling((2, 1, 3), (5, 4))  # constant 8, offset 3
    star = lambda_star(p3, sup)
    got = classify(p3, star)
    assert got.consecutive_index == 3
    assert got.magic_constant == 4 * 3 + 2 + 3 - 8
    tag = classify(p3, sup)
    assert (tag.consecutive_index, tag.side_with_small_labels) == (3, None)

    zero = dual(p3, sup)  # offset 0
    star0 = lambda_star(p3, zero)
    got0 = classify(p3, star0)
    k0 = classify(p3, zero).magic_constant
    assert got0.consecutive_index == 0
    assert got0.magic_constant == 2 * 3 + 5 * 2 + 3 - k0
    tag0 = classify(p3, zero)
    assert (tag0.consecutive_index, tag0.side_with_small_labels) == (0, None)


def test_lambda_star_involution_all_cases():
    spec, handle = _cat(3, (2, 1, 2))
    g = handle.graph
    lam = caterpillar_beta_labeling(spec)
    chains = [lam, dual(g, lam), caterpillar_super_labeling(spec),
              dual(g, caterpillar_super_labeling(spec))]
    for labeling in chains:
        assert lambda_star(g, lambda_star(g, labeling)) == labeling


def test_classify_names_the_low_side():
    spec, handle = _cat(3, (2, 1, 2))
    lam = caterpillar_beta_labeling(spec)  # low block on side Y (size 5)
    got = classify(handle.graph, lam, handle.bipartition)
    assert (got.consecutive_index, got.side_with_small_labels) == (5, "Y")
    d = dual(handle.graph, lam)            # low block moves to side X
    got = classify(handle.graph, d, handle.bipartition)
    assert (got.consecutive_index, got.side_with_small_labels) == (3, "X")


# 3K2 at b = 3, constant 15: every edge crosses the blocks, but a disconnected
# graph has no sides of its own to name.
_3K2 = Graph(6, ((0, 3), (1, 2), (4, 5)))
_3K2_LABELING = TotalLabeling((1, 2, 7, 9, 3, 8), (5, 6, 4))


def _p4_beta():
    """P4's beta labeling (low block {1, 2}) against sides its edges do not cross."""
    spec, handle = _cat(2, (1, 1))
    return handle.graph, caterpillar_beta_labeling(spec), Bipartition({0, 1}, {2, 3})


@pytest.mark.parametrize("graph, labeling, bip, b, star", [
    (_3K2, _3K2_LABELING, None, 3, TotalLabeling((3, 2, 9, 7, 1, 8), (5, 4, 6))),
    (*_p4_beta(), 2, TotalLabeling((7, 2, 1, 6), (3, 4, 5))),
], ids=["3K2-no-sides", "P4-wrong-sides"])
def test_low_block_that_is_no_partite_side_is_reflected(graph, labeling, bip, b, star):
    """classify names no side, but every edge crosses the blocks, so
    lambda_star's reflection is magic at the same b with the reflected k."""
    got = classify(graph, labeling, bip)
    assert (got.consecutive_index, got.side_with_small_labels) == (b, None)
    assert lambda_star(graph, labeling, bip) == star
    n, e = graph.vertex_count, graph.edge_count
    reflected = classify(graph, star, bip)
    assert reflected.consecutive_index == b
    assert reflected.magic_constant == 5 * b + (n - b) + 3 * e + 3 - got.magic_constant
    assert lambda_star(graph, star, bip) == labeling


def test_lambda_star_rejects_non_consecutive():
    p3 = build_path(3).graph
    with pytest.raises(ConstructionError):
        lambda_star(p3, TotalLabeling((1, 2, 3), (4, 5)))


@pytest.mark.parametrize("graph, labeling, message", [
    # magic with k = 9 at b = 1, but the one edge joins the two high labels
    (Graph(3, ((1, 2),)), TotalLabeling((1, 3, 4), (2,)),
     "vertex labels do not split into one block per partite side"),
    # magic with k = 10, but the edge labels 4 and 2 are no block
    (build_path(3).graph, TotalLabeling((1, 5, 3), (4, 2)),
     "input labeling is not consecutive edge-magic"),
], ids=["crossing", "not-consecutive"])
@pytest.mark.parametrize("transform", [lambda_star, to_graceful, to_super_edge_magic])
def test_side_transforms_refuse_a_labeling_without_the_block_structure(
        graph, labeling, message, transform):
    with pytest.raises(ConstructionError, match=message):
        transform(graph, labeling)


# ---------------------------------------------------------------------------
# dual and lambda_star over every small caterpillar
# ---------------------------------------------------------------------------

def _small_caterpillar_labelings():
    """Both closed forms and their duals (b = |Y|, |X|, |V|, 0) for r <= 4, leaves 0..2."""
    for r in range(1, 5):
        for counts in product(range(3), repeat=r):
            spec, handle = _cat(r, counts)
            g = handle.graph
            if g.edge_count == 0:
                continue
            for lam in (caterpillar_beta_labeling(spec), caterpillar_super_labeling(spec)):
                for labeling in (lam, dual(g, lam)):
                    yield counts, handle, labeling


def _kb(graph, labeling):
    got = classify(graph, labeling)
    return got.magic_constant, got.consecutive_index


def test_dual_is_an_involution_that_reflects_k_and_b():
    for counts, handle, labeling in _small_caterpillar_labelings():
        g = handle.graph
        n, e = g.vertex_count, g.edge_count
        k, b = _kb(g, labeling)
        d = dual(g, labeling)
        assert dual(g, d) == labeling, counts
        assert _kb(g, d) == (3 * (n + e + 1) - k, n - b), counts


def test_lambda_star_is_an_involution_that_keeps_b_and_reflects_k():
    cases = set()
    for counts, handle, labeling in _small_caterpillar_labelings():
        g, bip = handle.graph, handle.bipartition
        n, e = g.vertex_count, g.edge_count
        k, b = _kb(g, labeling)
        side = classify(g, labeling, bip).side_with_small_labels
        star = lambda_star(g, labeling, bip)
        assert lambda_star(g, star, bip) == labeling, counts
        if b == 0:
            reflected = 2 * n + 5 * e + 3 - k
        elif b == n:
            reflected = 4 * n + e + 3 - k
        else:
            assert b == len({"X": bip.side_x, "Y": bip.side_y}[side]), counts
            reflected = 5 * b + (n - b) + 3 * e + 3 - k
        assert _kb(g, star) == (reflected, b), counts
        cases.add(side or ("b = 0" if b == 0 else "b = |V|"))
    assert cases == {"b = 0", "b = |V|", "X", "Y"}


@pytest.mark.parametrize("labeling", [
    TotalLabeling((6, 1, 2), (5, 4, 3)),      # one vertex label short
    TotalLabeling((6, 1, 2, 8), (5, 4, 3)),   # 8 outside 1..7
    TotalLabeling((6, 1, 2, 6), (5, 4, 3)),   # 6 used twice
])
def test_checks_still_reject_malformed_labelings(labeling):
    g = build_caterpillar(CaterpillarSpec(2, (1, 1))).graph
    for check in (classify, consecutive_index_of, dual, lambda_star):
        with pytest.raises(LabelingError):
            check(g, labeling)


def _library_outputs():
    """Every closed form and transform output on the caterpillars with
    r <= 5 and on both double-star variants."""
    for r in range(1, 6):
        for counts in product(range(4), repeat=r):
            spec, handle = _cat(r, counts)
            if handle.graph.edge_count == 0:
                continue
            g, bip = handle.graph, handle.bipartition
            beta = caterpillar_beta_labeling(spec)
            sup = caterpillar_super_labeling(spec)
            yield from (beta, sup, to_super_edge_magic(g, beta), to_graceful(g, beta))
            for lab in (beta, sup):
                yield from (dual(g, lab), lambda_star(g, lab, bip))
    for m, n in product(range(1, 5), repeat=2):
        g = build_double_star(m, n).graph
        for variant in (1, 2):
            lab = double_star_consecutive(m, n, variant)
            yield from (lab, dual(g, lab), lambda_star(g, lab), to_super_edge_magic(g, lab),
                        to_graceful(g, lab))


def test_library_outputs_equal_checked_labelings():
    # closed forms and transforms build their output unchecked; the checked
    # constructors must accept it and give it back unchanged
    for out in _library_outputs():
        labels = (out.vertex_labels,)
        if isinstance(out, TotalLabeling):
            labels += (out.edge_labels,)
            assert TotalLabeling(*labels) == out
        else:
            assert VertexLabeling(*labels) == out
        assert all(type(part) is tuple for part in labels)
        assert all(type(x) is int for part in labels for x in part)


@pytest.mark.parametrize("vertex_labels, edge_labels, message", [
    ((6, 1, 2, True), (5, 4, 3), "bad labeling record: label True is not an integer"),
    ((6, 1.0, 2, 7), (5, 4, 3), "bad labeling record: label 1.0 is not an integer"),
    ((6, 1, 2, 8), (5, 4, 3), "label 8 outside 1..7"),
    ((6, 1, 2, 7), (5, 4, 0), "label 0 outside 1..7"),
    ((6, 1, 2, 6), (5, 4, 3), "label 6 used twice"),
], ids=["bool", "float", "above", "zero", "repeated"])
def test_transforms_still_refuse_malformed_input(vertex_labels, edge_labels, message):
    g = build_caterpillar(CaterpillarSpec(2, (1, 1))).graph  # P4
    for transform in (dual, lambda_star, to_graceful, to_super_edge_magic):
        with pytest.raises(LabelingError, match=f"^{re.escape(message)}$"):
            transform(g, TotalLabeling(vertex_labels, edge_labels))


@pytest.mark.parametrize("make,message", [
    (lambda: double_star_consecutive(0, 1), "double star needs m >= 1 and n >= 1"),
    (lambda: double_star_consecutive(1, 0, 2), "double star needs m >= 1 and n >= 1"),
], ids=["DS0,1", "DS1,0-variant2"])
def test_construction_refusals(make, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("m, n", [("a", 2), (1, 2.0), (True, 1)])
def test_double_star_form_refuses_non_integer_sizes(m, n):
    with pytest.raises(GraphError, match="not an integer"):
        double_star_consecutive(m, n)


# ---------------------------------------------------------------------------
# graceful / super conversions
# ---------------------------------------------------------------------------

def test_to_graceful_p4_exact():
    spec, handle = _cat(2, (1, 1))
    phi = to_graceful(handle.graph, caterpillar_beta_labeling(spec))
    assert phi.vertex_labels == (3, 0, 1, 2)  # c1, c1_1, c2, c2_1
    assert is_graceful(handle.graph, phi)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_star_beta_labeling_turns_graceful(p):
    spec, handle = _cat(1, (p,))
    phi = to_graceful(handle.graph, caterpillar_beta_labeling(spec))
    assert is_graceful(handle.graph, phi)


def test_to_graceful_rejects_extreme_offsets():
    spec, handle = _cat(2, (1, 1))
    sup = caterpillar_super_labeling(spec)
    with pytest.raises(ConstructionError):
        to_graceful(handle.graph, sup)
    zero = dual(handle.graph, sup)
    with pytest.raises(ConstructionError):
        to_graceful(handle.graph, zero)
    with pytest.raises(ConstructionError):
        to_graceful(handle.graph, TotalLabeling((1, 2, 3, 4), (5, 6, 7)))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
def test_to_super_from_double_star(m, n):
    handle = build_double_star(m, n)
    lam = double_star_consecutive(m, n, 1)
    sup = to_super_edge_magic(handle.graph, lam)
    got = classify(handle.graph, sup)
    assert got.is_super
    with pytest.raises(ConstructionError):
        to_super_edge_magic(handle.graph, dual(handle.graph, sup))


def test_caterpillar_super_equals_transform_route():
    for r, counts in ((2, (1, 1)), (1, (3,)), (3, (2, 1, 2)), (4, (0, 2, 1, 0))):
        spec, handle = _cat(r, counts)
        via_transform = to_super_edge_magic(handle.graph,
                                            caterpillar_beta_labeling(spec))
        assert caterpillar_super_labeling(spec) == via_transform


@pytest.mark.parametrize("r,counts,k", [
    (2, (1, 1), 11),
    (1, (3,), 12),
])
def test_caterpillar_super_constant(r, counts, k):
    spec, handle = _cat(r, counts)
    got = classify(handle.graph, caterpillar_super_labeling(spec))
    assert got.is_super
    assert got.magic_constant == k == 2 * spec.alpha + 3 * spec.beta + 1


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_double_star_super_constant(m, n):
    handle = build_double_star(m, n)
    got = classify(handle.graph, caterpillar_super_labeling(CaterpillarSpec(2, (m, n))))
    assert got.magic_constant == 3 * m + 2 * n + 6
    assert got.is_super


# ---------------------------------------------------------------------------
# the full chain of derived constants on double stars
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_double_star_constant_chain(m, n):
    """Six composite transforms realize six (offset, constant) pairs."""
    handle = build_double_star(m, n)
    g = handle.graph
    nv = g.vertex_count

    def bk(labeling, graph=g):
        got = classify(graph, labeling)
        return got.consecutive_index, got.magic_constant

    base = double_star_consecutive(m, n, 1)
    assert bk(base) == (m + 1, 4 * m + 2 * n + 6)

    sup = to_super_edge_magic(g, base)
    assert bk(sup) == (nv, 3 * m + 2 * n + 6)

    sup_star = lambda_star(g, sup)
    assert bk(sup_star) == (nv, 2 * m + 3 * n + 6)

    zero = dual(g, sup_star)
    assert bk(zero) == (0, 4 * m + 3 * n + 6)

    zero_star = lambda_star(g, zero)
    assert bk(zero_star) == (0, 3 * m + 4 * n + 6)

    # the mirrored construction realizes the remaining pair
    mirror = build_double_star(n, m)
    swapped = double_star_consecutive(n, m, 1)
    assert bk(swapped, mirror.graph) == (n + 1, 2 * m + 4 * n + 6)
