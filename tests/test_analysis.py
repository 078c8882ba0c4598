"""Theorem predictions and their comparison against the search oracle."""

import re

import pytest

from magilab import analysis, cli
from magilab.analysis import (FAIL, PASS, SuiteLimitError, _caterpillar_specs,
                              caterpillar_suite, classify_trichotomy, closing_claims_suite,
                              constant_form_check, double_star_suite,
                              format_report_table, lobster_b_set,
                              lobster_suite, predicted_b_candidates)
from magilab.graphs import (CaterpillarSpec, Graph, GraphError,
                            build_caterpillar, build_complete_bipartite, build_cycle,
                            build_double_star, build_lobster, build_path, build_star)
from magilab.search import SearchError, feasible_b_set


def test_predicted_candidates():
    assert predicted_b_candidates(build_double_star(1, 2).graph) == {0, 2, 3, 5}
    assert predicted_b_candidates(build_cycle(5).graph) == {0, 5}
    assert predicted_b_candidates(build_cycle(4).graph) == {0, 2, 4}
    from magilab.graphs import Graph
    with pytest.raises(SearchError):
        predicted_b_candidates(Graph(4, ((0, 1), (2, 3))))


def test_side_checks_search_the_graph_once(monkeypatch):
    """predicted_b_candidates and classify_trichotomy read the sides and
    the connectivity a builder's graph holds, with no breadth-first search;
    any other graph is searched once, however many calls ask, and a
    disconnected one is still refused."""
    from magilab import graphs

    bfs, searches = graphs._bfs, []

    def counted_bfs(graph, root):
        searches.append(graph)
        return bfs(graph, root)

    monkeypatch.setattr(graphs, "_bfs", counted_bfs)
    for handle in (build_path(4), build_star(3), build_caterpillar(CaterpillarSpec(3, (2, 0, 1))),
                   build_double_star(1, 2), build_lobster(3), build_cycle(6),
                   build_complete_bipartite(2, 3)):
        g = handle.graph
        predicted = predicted_b_candidates(g)
        assert predicted == {0, *g.own_bipartition.sizes, g.vertex_count}
        classify_trichotomy(g, predicted)
    assert predicted_b_candidates(build_cycle(5).graph) == {0, 5}
    assert searches == []
    l3 = build_lobster(3).graph
    copy = Graph(l3.vertex_count, l3.edges)
    assert predicted_b_candidates(copy) == {0, 3, 4, 7}
    assert classify_trichotomy(copy, {0, 7}).verdict == PASS
    assert predicted_b_candidates(copy) == {0, 3, 4, 7}
    assert searches == [copy]
    # an odd cycle has no sides; the search that finds none also finds it connected
    c5 = Graph(5, build_cycle(5).graph.edges)
    for _ in range(3):
        assert predicted_b_candidates(c5) == {0, 5}
    with pytest.raises(SearchError, match="^trichotomy applies to bipartite graphs$"):
        classify_trichotomy(c5, set())
    assert searches == [copy, c5]
    two_k2 = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(SearchError, match="predicted_b_candidates requires a connected graph"):
        predicted_b_candidates(two_k2)
    with pytest.raises(SearchError, match="trichotomy applies to connected graphs"):
        classify_trichotomy(two_k2, set())


@pytest.mark.parametrize("r,counts,expected", [
    (2, (1, 2), {0, 2, 3, 5}),
    (2, (3, 3), {0, 4, 8}),
    (3, (2, 1, 2), {0, 3, 5, 8}),
    (1, (4,), {0, 1, 4, 5}),
])
def test_caterpillar_b_set(r, counts, expected):
    graph = build_caterpillar(CaterpillarSpec(r, counts)).graph
    assert predicted_b_candidates(graph) == expected
    assert predicted_b_candidates(Graph(graph.vertex_count, graph.edges)) == expected


def test_predicted_b_candidates_match_the_caterpillar_formula():
    """The paper's {0, alpha, beta, alpha+beta} for every caterpillar with
    at most 10 vertices, against sides found by a breadth-first search: each
    graph is a copy that does not hold the builder's sides."""
    specs = 0
    for spec in _caterpillar_specs(10):
        specs += 1
        edges = build_caterpillar(spec).graph.edges
        n = spec.vertex_count
        assert predicted_b_candidates(Graph(n, edges)) == {0, spec.alpha, spec.beta, n}
    assert specs == 1022


def test_lobster_b_set():
    assert lobster_b_set(3) == {0, 7}
    assert lobster_b_set(4) == {0, 9}
    assert lobster_b_set(1) == {0, 1, 2, 3}
    assert 2 in lobster_b_set(1)
    assert 3 in lobster_b_set(2)
    with pytest.raises(GraphError, match="^lobster needs p >= 1$"):
        lobster_b_set(0)


@pytest.mark.parametrize("p", [True, 2.0, "3"])
def test_lobster_b_set_refuses_a_p_that_is_not_an_int(p):
    with pytest.raises(GraphError, match=r"^bad lobster parameter: p=.* is not an integer$"):
        lobster_b_set(p)


def test_constant_form_check():
    assert constant_form_check(2, 2, 18).t == 6
    assert constant_form_check(3, 6, 7).t is None
    assert constant_form_check(1, 1, 12).t == 6
    assert constant_form_check(2, 4, 6).t == 0
    assert constant_form_check(2, 4, 5).t is None


@pytest.mark.parametrize("m,n", [(0, 0), (-2, 2), (2, -2), (0, 3), (1, 0)])
def test_constant_form_check_refuses_a_double_star_that_cannot_exist(m, n):
    # (0, 0) divided by gcd 0, and (-2, 2) passed as gcd 2
    with pytest.raises(GraphError, match="double star needs m >= 1 and n >= 1"):
        constant_form_check(m, n, 18)


@pytest.mark.parametrize("m,n,k,message", [
    (True, 2, 18, "bad double star parameter: m=True is not an integer"),
    (1.5, 2, 18, "bad double star parameter: m=1.5 is not an integer"),
    (2, 2.0, 18, "bad double star parameter: n=2.0 is not an integer"),
    (2, 2, 18.0, "bad magic constant: k=18.0 is not an integer"),
    (2, 2, "18", "bad magic constant: k='18' is not an integer"),
])
def test_constant_form_check_refuses_values_that_are_not_ints(m, n, k, message):
    # m=True passed as 1, m=1.5 reached math.gcd (TypeError) and k=18.0 gave t=6.0
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        constant_form_check(m, n, k)


def test_trichotomy_cases():
    k22 = build_complete_bipartite(2, 2).graph
    report = classify_trichotomy(k22, feasible_b_set(k22))
    assert report.verdict == PASS
    assert "case (i)" in report.observed

    ds = build_double_star(1, 1).graph
    report = classify_trichotomy(ds, feasible_b_set(ds))
    assert "case (iii)" in report.observed

    c4 = build_cycle(4).graph
    report = classify_trichotomy(c4, feasible_b_set(c4))
    assert "case (i)" in report.observed


def test_trichotomy_failure_and_refusal():
    p3 = build_path(3).graph
    report = classify_trichotomy(p3, {1})  # impossible observed set
    assert report.verdict == FAIL
    with pytest.raises(SearchError):
        classify_trichotomy(build_cycle(5).graph, set())


def test_closing_claims_suite_passes():
    reports = closing_claims_suite()
    assert all(r.verdict == PASS for r in reports)
    by_desc = {r.graph_description: r for r in reports}
    assert by_desc["C_3"].observed == {0, 3}
    assert by_desc["K_2,3"].observed == set()
    assert by_desc["K_1,3"].observed == "nonempty"


def test_lobster_suite_passes():
    reports = lobster_suite()
    assert all(r.verdict == PASS for r in reports)
    graceful = [r for r in reports if r.theorem_id == "lobster-graceful"]
    assert len(graceful) == 1 and graceful[0].observed == "found"


def test_lobster_graceful_row_fails_without_a_labeling(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "find_graceful", lambda *args, **kwargs: [])
    row = lobster_suite()[-1]
    assert (row.theorem_id, row.observed, row.verdict) == ("lobster-graceful", "none", FAIL)
    assert cli.main(["suite", "lobster"]) == 1
    assert "lobster-graceful  L_4" in capsys.readouterr().out


def test_double_star_suite_passes():
    reports = double_star_suite()
    assert all(r.verdict == PASS for r in reports)
    kinds = {r.theorem_id for r in reports}
    assert kinds == {"double-star-uniqueness", "double-star-constant-form"}


def test_caterpillar_suite_small():
    reports = caterpillar_suite(max_labels=9)
    assert reports
    assert all(r.verdict == PASS for r in reports)


@pytest.mark.parametrize("suite,kwargs,named", [
    (caterpillar_suite, {"max_labels": 2}, "max_labels must be at least 3, got 2"),
    (caterpillar_suite, {"max_labels": -5}, "max_labels must be at least 3, got -5"),
])
def test_suite_limit_below_range_raises(suite, kwargs, named):
    with pytest.raises(ValueError, match=named):
        suite(**kwargs)


@pytest.mark.parametrize("max_labels", [5.5, 9.0, True, "9", None])
def test_caterpillar_suite_limit_must_be_an_int(max_labels):
    with pytest.raises(SuiteLimitError, match="max_labels must be an integer"):
        caterpillar_suite(max_labels=max_labels)


@pytest.mark.parametrize("budget", [0, True, 2.5])
def test_suite_budget_must_be_a_positive_int(budget):
    # a refused budget raises out of the suite instead of marking rows out-of-budget
    with pytest.raises(SearchError, match="budget must be"):
        lobster_suite(budget=budget)


def test_feasible_subset_of_predicted():
    handles = [build_path(4), build_cycle(5), build_cycle(6),
               build_double_star(1, 2), build_lobster(2),
               build_complete_bipartite(2, 2)]
    for handle in handles:
        g = handle.graph
        assert feasible_b_set(g) <= predicted_b_candidates(g)


def test_tree_certificate_matches_isomorphism():
    """Every free tree with at most 10 vertices, long diameters and two
    centres among them: three numberings of one tree share a certificate,
    and no two trees do."""
    nx = pytest.importorskip("networkx")
    from random import Random

    from magilab.analysis import _tree_certificate

    rng = Random(19)
    certificates = set()
    trees = 0
    for n in range(1, 11):
        for tree in nx.nonisomorphic_trees(n):
            trees += 1
            found = set()
            for _ in range(3):
                perm = rng.sample(range(n), n)
                found.add(_tree_certificate(Graph(n, tuple((perm[u], perm[v])
                                                           for u, v in tree.edges))))
            assert len(found) == 1
            certificates |= found
    assert trees == 201 and len(certificates) == trees


def test_spine_key_groups_spellings_as_the_certificate_does():
    """Every spelling with at most 11 vertices: two spellings share a spine
    key exactly when their trees share a certificate.  A key that is not
    complete would merge two classes, and one that is not invariant would
    split one, and neither would show in a passing suite."""
    from magilab.analysis import _spine_key, _tree_certificate

    key_to_cert, cert_to_key = {}, {}
    specs = 0
    for spec in _caterpillar_specs(11):
        specs += 1
        key = _spine_key(spec.leaf_counts)
        cert = _tree_certificate(build_caterpillar(spec).graph)
        assert key_to_cert.setdefault(key, cert) == cert, spec
        assert cert_to_key.setdefault(cert, key) == key, spec
    assert specs == 2046 and len(key_to_cert) == 287


def test_caterpillar_suite_rows_match_grouping_every_spelling(monkeypatch):
    """The rows, in order, are those of a loop that builds and certifies
    every spelling and groups them by certificate, while the suite builds
    one graph per class."""
    from magilab.analysis import _tree_certificate

    groups = {}
    for spec in _caterpillar_specs(8):
        graph = build_caterpillar(spec).graph
        groups.setdefault(_tree_certificate(graph), []).append((spec, graph))
    expected = []
    for _, members in sorted(groups.items()):
        spec, graph = members[0]
        desc = "S_" + ",".join(str(c) for c in spec.leaf_counts)
        if len(members) > 1:
            desc += f" (+{len(members) - 1} isomorphic spellings)"
        observed = feasible_b_set(graph)
        predicted = predicted_b_candidates(graph)
        expected.append((desc, predicted, observed, PASS if predicted == observed else FAIL, ""))

    built = []

    def counted_build(spec):
        built.append(spec)
        return build_caterpillar(spec)

    monkeypatch.setattr(analysis, "build_caterpillar", counted_build)
    reports = caterpillar_suite(max_labels=15)
    assert [(r.graph_description, r.predicted, r.observed, r.verdict, r.detail)
            for r in reports] == expected
    assert len(built) == len(reports) == len(groups) == 43


def test_report_table_renders():
    text = format_report_table(closing_claims_suite())
    assert "verdict" in text.splitlines()[0]
    assert "C_3" in text


def test_report_json_roundtrip():
    for report in closing_claims_suite():
        record = report.to_dict()
        assert record["verdict"] == PASS
        assert isinstance(record["predicted"], (list, str, bool))
