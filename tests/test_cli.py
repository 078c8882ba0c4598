"""Command-line driver: round trips, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magilab
from magilab import analysis, cli, constructions, search
from magilab.cli import main, to_dot
from magilab.graphs import (CaterpillarSpec, build_caterpillar, build_complete_bipartite,
                            build_cycle, build_double_star, build_lobster, build_path,
                            build_star, graph_from_dict)
from magilab.labelings import TotalLabeling, classify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_caterpillar_json(capsys):
    code, out, _ = run(capsys, "gen", "caterpillar", "--spine", "2,1,2")
    assert code == 0
    record = json.loads(out)
    assert record["vertex_count"] == 8
    handle = graph_from_dict(record)
    assert handle.family["kind"] == "caterpillar"


def test_gen_allows_zero_leaf_counts(capsys):
    code, out, _ = run(capsys, "gen", "caterpillar", "--spine", "0,0,0,0")
    assert code == 0
    assert json.loads(out)["vertex_count"] == 4


def test_gen_to_file_then_search_all(tmp_path, capsys):
    path = tmp_path / "L3.json"
    code, _, _ = run(capsys, "gen", "lobster", "-p", "3", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "search", "--graph", str(path), "--b", "all")
    assert code == 0
    assert json.loads(out) == {"feasible_b": [0, 7], "exhausted": True}


def test_construct_verify_pipeline(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    code, out, _ = run(capsys, "construct", "caterpillar-beta", "--spine", "1,1",
                       "-o", str(bundle_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(bundle_path))
    assert code == 0
    got = json.loads(out)
    assert got["k"] == 12 and got["b"] == 2 and got["super"] is False


def test_verify_bundle_on_stdin(capsys, monkeypatch, tmp_path):
    import io
    import sys as _sys
    code, out, _ = run(capsys, "construct", "double-star", "2", "2", "--variant", "2")
    bundle = out
    monkeypatch.setattr(_sys, "stdin", io.StringIO(bundle))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert json.loads(out)["k"] == 18


def test_verify_two_files_and_failure_exit(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    lpath = tmp_path / "lab.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    lpath.write_text(json.dumps(TotalLabeling((1, 5, 2), (4, 3)).to_dict()))
    code, out, _ = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 0
    assert json.loads(out)["b"] == 2
    # a bijection that is not magic verifies with exit 1
    lpath.write_text(json.dumps(TotalLabeling((1, 2, 3), (4, 5)).to_dict()))
    code, out, _ = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 1
    assert json.loads(out)["k"] is None


def test_transform_dual_and_graceful(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    run(capsys, "construct", "caterpillar-beta", "--spine", "1,1", "-o", str(bundle_path))
    code, out, _ = run(capsys, "transform", "dual", str(bundle_path))
    assert code == 0
    got = json.loads(out)
    assert got["classification"]["k"] == 12 and got["classification"]["b"] == 2

    code, out, _ = run(capsys, "transform", "graceful", str(bundle_path))
    assert code == 0
    got = json.loads(out)
    assert got["is_graceful"] is True
    assert got["graceful"]["vertex_labels"] == [3, 0, 1, 2]


def test_transform_dual_writes_dot(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    run(capsys, "construct", "caterpillar-beta", "--spine", "1,1", "-o", str(bundle_path))
    code, out, err = run(capsys, "transform", "dual", str(bundle_path), "--format", "dot")
    assert (code, err) == (0, "")
    # P4's beta labeling (6, 1, 2, 7)/(5, 4, 3) complemented in 8
    assert out.startswith("graph G {")
    assert '0 [label="2"];' in out and '0 -- 2 [label="4"];' in out


def test_transform_graceful_refuses_dot_output(tmp_path, capsys):
    """A graceful labeling is written as JSON only; asking for dot is a usage error."""
    bundle_path = tmp_path / "bundle.json"
    run(capsys, "construct", "caterpillar-beta", "--spine", "1,1", "-o", str(bundle_path))
    code, out, err = run(capsys, "transform", "graceful", str(bundle_path), "--format", "dot")
    assert code == 2
    assert out == "" and err == "error: transform graceful writes JSON only, not dot\n"


def test_transform_super_rejects_wrong_offset(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    run(capsys, "construct", "caterpillar-super", "--spine", "1,1", "-o", str(bundle_path))
    code, _, err = run(capsys, "transform", "super", str(bundle_path))
    assert code == 1
    assert "error" in err


def test_transform_lambda_star_reflects_a_graph_without_sides(capsys, monkeypatch):
    import io
    import sys as _sys
    # 3K2 at b = 3: the graph is disconnected, but every edge crosses the
    # blocks, so the reflection is magic at the same b (here with the same k)
    bundle = {"graph": {"vertex_count": 6, "edges": [[0, 3], [1, 2], [4, 5]]},
              "labeling": TotalLabeling((1, 2, 7, 9, 3, 8), (5, 6, 4)).to_dict()}
    monkeypatch.setattr(_sys, "stdin", io.StringIO(json.dumps(bundle)))
    code, out, err = run(capsys, "transform", "lambda-star", "-")
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got["labeling"] == TotalLabeling((3, 2, 9, 7, 1, 8), (5, 4, 6)).to_dict()
    assert (got["classification"]["k"], got["classification"]["b"]) == (15, 3)


def test_transform_graceful_refuses_a_graph_with_too_few_edges(capsys, monkeypatch):
    import io
    import sys as _sys
    # the 3K2 bundle at b = 3 is valid, but 6 vertices cannot take distinct labels in 0..3
    bundle = {"graph": {"vertex_count": 6, "edges": [[0, 3], [1, 2], [4, 5]]},
              "labeling": TotalLabeling((1, 2, 7, 9, 3, 8), (5, 6, 4)).to_dict()}
    monkeypatch.setattr(_sys, "stdin", io.StringIO(json.dumps(bundle)))
    code, out, err = run(capsys, "transform", "graceful", "-")
    assert code == 1
    assert out == "" and err == "error: 6 vertices need more graceful labels than 0..3\n"


@pytest.mark.parametrize("labeling, message", [
    ({"vertex_labels": [1, 2], "edge_labels": [3, 4]}, "expected 3 vertex labels, got 2"),
    ({"vertex_labels": [1, 2, 2], "edge_labels": [4, 5]}, "label 2 used twice"),
])
@pytest.mark.parametrize("argv", [("verify", "-"), ("transform", "dual", "-"),
                                  ("transform", "lambda-star", "-"), ("transform", "graceful", "-")])
def test_a_labeling_that_does_not_fit_its_graph_exits_1(capsys, monkeypatch, argv, labeling,
                                                         message):
    """verify and every transform give a bundle whose labeling does not fit
    its graph the same exit code and error line."""
    import io
    import sys as _sys
    bundle = {"graph": json.loads(_P3), "labeling": labeling}
    monkeypatch.setattr(_sys, "stdin", io.StringIO(json.dumps(bundle)))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_with_too_few_vertex_labels_exits_1(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    lpath = tmp_path / "lab.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    lpath.write_text(json.dumps({"vertex_labels": [1, 2], "edge_labels": [3, 4]}))
    code, out, err = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 1
    assert out == "" and err == "error: expected 3 vertex labels, got 2\n"


def test_search_report_matches_in_process(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "double-star", "1", "2", "-o", str(gpath))
    code, out, _ = run(capsys, "search", "--graph", str(gpath), "--b", "2")
    assert code == 0
    record = json.loads(out)
    assert record["b"] == 2 and record["exhausted"] is True
    assert record["constants"] == [14]
    # CLI output never disagrees with the in-process search
    from magilab.graphs import build_double_star
    from magilab.search import SearchQuery, find_consecutive
    in_process = find_consecutive(SearchQuery(build_double_star(1, 2).graph, b=2))
    assert record == json.loads(json.dumps(in_process.to_dict()))


def test_search_edge_magic_mode(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    code, out, _ = run(capsys, "search", "--graph", str(gpath))
    assert code == 0
    record = json.loads(out)
    assert record["b"] is None
    assert record["constants"] == [8, 9, 10]


def test_search_budget_refusal_and_env(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "lobster", "-p", "3", "-o", str(gpath))
    code, _, err = run(capsys, "search", "--graph", str(gpath), "--b", "all",
                       "--budget", "5")
    assert code == 1
    assert "budget exceeded" in err
    monkeypatch.setenv("MAGILAB_BUDGET", "5")
    code, _, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 1
    assert "budget exceeded" in err
    monkeypatch.setenv("MAGILAB_BUDGET", "30")
    code, out, _ = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 0


def test_analyze_constant_form(capsys):
    code, out, _ = run(capsys, "analyze", "constant-form", "2", "2", "18")
    assert code == 0
    assert json.loads(out)["t"] == 6
    code, out, _ = run(capsys, "analyze", "constant-form", "3", "6", "7")
    assert code == 1
    assert json.loads(out)["t"] is None


@pytest.mark.parametrize("m,n", [("0", "0"), ("-2", "2"), ("1", "0")])
def test_analyze_constant_form_of_an_impossible_double_star_exits_2(capsys, m, n):
    code, out, err = run(capsys, "analyze", "constant-form", m, n, "18")
    assert code == 2
    assert out == "" and "double star needs m >= 1 and n >= 1" in err


def test_suite_closing(capsys):
    code, out, _ = run(capsys, "suite", "closing")
    assert code == 0
    assert "pass" in out and "fail" not in out.replace("pass", "")
    code, out, _ = run(capsys, "suite", "closing", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["verdict"] == "pass" for r in reports)


def test_suite_lobster_table(capsys):
    code, out, _ = run(capsys, "suite", "lobster")
    assert code == 0
    assert "L_4" in out


def test_malformed_spine_exits_2(capsys):
    code, _, err = run(capsys, "gen", "caterpillar", "--spine", "2,x")
    assert code == 2
    assert "malformed spine" in err


@pytest.mark.parametrize("construction", ["caterpillar-beta", "caterpillar-super"])
def test_construct_edgeless_caterpillar_exits_2(capsys, construction):
    code, out, err = run(capsys, "construct", construction, "--spine", "0")
    assert code == 2
    assert out == "" and "at least one edge" in err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "search", "--graph", str(path), "--b", "1")
    assert code == 2
    assert "cannot read JSON" in err


@pytest.mark.parametrize("argv", [("search", "--graph", "{}", "--b", "1"), ("verify", "{}"),
                                  ("transform", "dual", "{}")],
                         ids=["search", "verify", "transform"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vertex_count": "\xff"}')
    code, out, err = run(capsys, *[arg.format(path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read JSON from {path}: ")


# an integer past Python's 4,300-digit int-string limit, and arrays nested
# past the JSON reader's recursion limit (10,000 levels, 20 KB)
_UNREADABLE_JSON = {"long-int": '{"vertex_count": 1' + "0" * 4300 + ', "edges": []}',
                    "deep-array": "[" * 10_000 + "]" * 10_000}


@pytest.mark.parametrize("text", list(_UNREADABLE_JSON.values()), ids=list(_UNREADABLE_JSON))
@pytest.mark.parametrize("argv, bad", [
    (("search", "--graph", "{bad}", "--b", "1"), "{bad}"),
    (("verify", "{good}", "{bad}"), "{bad}"),
    (("verify", "{bad}"), "{bad}"),
    (("transform", "dual", "{bad}"), "{bad}"),
    (("search", "--graph", "-", "--b", "1"), "-"),
    (("verify", "-"), "-"),
], ids=["graph-file", "labeling-file", "bundle-file", "transform-bundle", "graph-stdin",
        "bundle-stdin"])
def test_json_python_cannot_read_exits_2(tmp_path, capsys, monkeypatch, text, argv, bad):
    import io
    import sys as _sys
    paths = {"good": tmp_path / "good.json", "bad": tmp_path / "bad.json"}
    paths["good"].write_text('{"vertex_count": 2, "edges": [[0, 1]]}')
    paths["bad"].write_text(text)
    monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read JSON from {bad.format(**paths)}: ")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["5", "null", '"graph labeling"', '["graph", "labeling"]'])
@pytest.mark.parametrize("argv", [("verify", "-"), ("transform", "dual", "-")])
def test_bundle_that_is_not_an_object_exits_2(capsys, monkeypatch, argv, text):
    import io
    import sys as _sys
    monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: expected a bundle object")


_P3 = '{"vertex_count": 3, "edges": [[0, 1], [1, 2]]}'


@pytest.mark.parametrize("argv, text, message", [
    (("search", "--graph", "-", "--b", "1"), "5", "bad graph record: expected a JSON object, got a number"),
    (("search", "--graph", "-", "--b", "1"), "[1, 2]", "bad graph record: expected a JSON object, got an array"),
    (("search", "--graph", "-", "--b", "1"), '"x"', "bad graph record: expected a JSON object, got a string"),
    (("search", "--graph", "-", "--b", "1"), "null", "bad graph record: expected a JSON object, got null"),
    (("search", "--graph", "-", "--b", "1"), "{}", "bad graph record: missing key 'vertex_count'"),
    (("search", "--graph", "-", "--b", "1"), '{"vertex_count": 3, "edges": [5]}',
     "bad graph record: edges must be an array of [u, v] pairs"),
    (("search", "--graph", "-", "--b", "1"),
     '{"vertex_count": 3, "edges": [[0, 1], [1, 2]], "family": {"kind": "path"}}',
     "bad family descriptor for kind 'path': missing parameter 'n'"),
    (("verify", "-"), '{"graph": 5, "labeling": {}}',
     "bad graph record: expected a JSON object, got a number"),
    (("verify", "-"), f'{{"graph": {_P3}, "labeling": 5}}',
     "bad labeling record: expected a JSON object, got a number"),
    (("verify", "-"), f'{{"graph": {_P3}, "labeling": [1, 5, 2]}}',
     "bad labeling record: expected a JSON object, got an array"),
    (("verify", "-"), f'{{"graph": {_P3}, "labeling": {{"vertex_labels": [1, 5, 2]}}}}',
     "bad labeling record: missing key 'edge_labels'"),
    (("verify", "-"), f'{{"graph": {_P3}, "labeling": {{"vertex_labels": 5, "edge_labels": []}}}}',
     "bad labeling record: vertex_labels must be an array of integers"),
], ids=["graph-int", "graph-list", "graph-str", "graph-null", "graph-empty", "graph-edge-int",
        "graph-family-param", "bundle-graph-int", "labeling-int", "labeling-list",
        "labeling-missing-key", "labeling-labels-int"])
def test_malformed_record_is_reported_in_its_own_terms(capsys, monkeypatch, argv, text, message):
    import io
    import sys as _sys
    monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "path", "-n", "3", "-o", str(out_path))
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot write {out_path}")
    assert not out_path.exists()


def test_search_limit_below_one_exits_2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "1",
                         "--limit", "0")
    assert code == 2
    assert out == "" and "limit" in err


@pytest.mark.parametrize("record", [
    {"vertex_count": 2, "edges": [[0, 1.9]]},
    {"vertex_count": 2, "edges": [[0, True]]},
    {"vertex_count": 2.7, "edges": [[0, 1]]},
])
def test_search_non_integer_graph_exits_2(tmp_path, capsys, record):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(record))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 2
    assert out == "" and "not an integer" in err


@pytest.mark.parametrize("flags,named", [
    (["--limit", "0"], "--limit"),
    (["--limit", "3"], "--limit"),
    (["--k", "99"], "--k"),
    (["--canonical"], "--canonical"),
    (["--k", "9", "--canonical"], "--k, --canonical"),
])
def test_search_all_rejects_single_offset_flags(tmp_path, capsys, flags, named):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all", *flags)
    assert code == 2
    assert out == "" and f"{named} cannot be used with --b all" in err


def test_search_family_with_boolean_parameter_exits_2(tmp_path, capsys):
    record = build_lobster(1).to_dict()
    record["family"]["p"] = True
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(record))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 2
    assert out == "" and "not an integer" in err


@pytest.mark.parametrize("family", ["caterpillar", [1]], ids=["str", "list"])
def test_search_non_object_family_exits_2(tmp_path, capsys, family):
    record = build_lobster(1).to_dict()
    record["family"] = family
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(record))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 2
    assert out == "" and "is not an object" in err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_search_unhashable_family_kind_exits_2(tmp_path, capsys, kind):
    record = build_lobster(1).to_dict()
    record["family"] = {"kind": kind}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(record))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 2
    assert out == "" and "bad family descriptor for kind" in err


def test_search_non_integer_offset_or_env_budget_exits_2(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "abc")
    assert code == 2
    assert out == "" and err == "error: --b expects an integer or 'all', got 'abc'\n"
    monkeypatch.setenv("MAGILAB_BUDGET", "abc")
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "1")
    assert code == 2
    assert out == "" and err == "error: MAGILAB_BUDGET must be an integer, got 'abc'\n"


# every integer the command line reads: its argv, with {} where the value
# goes ({graph} is a P3 file; an "env" slot sets MAGILAB_BUDGET), and the
# refusal a badly spelled value meets
_INTEGER_SLOTS = {
    "gen double-star m": (("gen", "double-star", "{}", "2"), "invalid int value"),
    "gen double-star n": (("gen", "double-star", "2", "{}"), "invalid int value"),
    "gen lobster -p": (("gen", "lobster", "-p", "{}"), "invalid int value"),
    "gen cycle --length": (("gen", "cycle", "--length", "{}"), "invalid int value"),
    "gen path -n": (("gen", "path", "-n", "{}"), "invalid int value"),
    "gen star -p": (("gen", "star", "-p", "{}"), "invalid int value"),
    "gen kmn m": (("gen", "kmn", "{}", "2"), "invalid int value"),
    "gen kmn n": (("gen", "kmn", "2", "{}"), "invalid int value"),
    "gen caterpillar --spine": (("gen", "caterpillar", "--spine", "1,{}"),
                                "malformed spine spec"),
    "construct caterpillar-beta --spine": (("construct", "caterpillar-beta", "--spine",
                                            "{},1"), "malformed spine spec"),
    "construct caterpillar-super --spine": (("construct", "caterpillar-super", "--spine",
                                             "{}"), "malformed spine spec"),
    "construct double-star m": (("construct", "double-star", "{}", "2"), "invalid int value"),
    "construct double-star n": (("construct", "double-star", "2", "{}"), "invalid int value"),
    "construct double-star --variant": (("construct", "double-star", "2", "2", "--variant",
                                         "{}"), "invalid int value"),
    "search --b": (("search", "--graph", "{graph}", "--b", "{}"),
                   "--b expects an integer or 'all'"),
    "search --k": (("search", "--graph", "{graph}", "--b", "1", "--k", "{}"),
                   "invalid int value"),
    "search --limit": (("search", "--graph", "{graph}", "--limit", "{}"), "invalid int value"),
    "search --budget": (("search", "--graph", "{graph}", "--budget", "{}"),
                        "invalid int value"),
    "search MAGILAB_BUDGET": (("env", "search", "--graph", "{graph}", "--b", "1"),
                              "MAGILAB_BUDGET must be an integer"),
    "analyze constant-form m": (("analyze", "constant-form", "{}", "3", "9"),
                                "invalid int value"),
    "analyze constant-form n": (("analyze", "constant-form", "2", "{}", "9"),
                                "invalid int value"),
    "analyze constant-form k": (("analyze", "constant-form", "2", "3", "{}"),
                                "invalid int value"),
    "suite --max-labels": (("suite", "caterpillar", "--max-labels", "{}"), "invalid int value"),
    "suite --budget": (("suite", "closing", "--budget", "{}"), "invalid int value"),
    "suite MAGILAB_BUDGET": (("env", "suite", "closing"), "MAGILAB_BUDGET must be an integer"),
}


@pytest.mark.parametrize("slot", sorted(_INTEGER_SLOTS))
def test_integers_are_read_strictly(slot, tmp_path, capsys, monkeypatch):
    """An integer is an optional sign and ASCII digits: int() would also
    read 1_0 as 10, ' 2' as 2 and an Arabic-Indic three as 3."""
    template, refusal = _INTEGER_SLOTS[slot]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(build_path(3).to_dict()))

    def call(value):
        argv = [part.format(value, graph=graph) for part in template]
        if argv[0] == "env":
            monkeypatch.setenv("MAGILAB_BUDGET", value)
            argv = argv[1:]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for value in ("1_0", " 2", "2 ", "\u0663", "+ 2", "2.0", ""):
        code, out, err = call(value)
        assert code == 2 and out == "" and refusal in err, (value, err)
    # a sign is part of an integer: -1 reaches the range checks, if any
    for value in ("-1", "+2"):
        code, _, err = call(value)
        assert code in (0, 1, 2) and refusal not in err, (value, err)


def test_repeated_json_keys_are_refused(tmp_path, capsys, monkeypatch):
    import io
    import sys as _sys
    graph = '{"vertex_count": 3, "edges": [[0, 1], [1, 2]], "vertex_count": 4}'
    gpath = tmp_path / "g.json"
    gpath.write_text(graph)
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "1")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read JSON from {gpath}: duplicate key 'vertex_count'\n"
    # in a bundle, at any depth
    bundle = ('{"graph": {"vertex_count": 2, "edges": [[0, 1]], "edges": [[0, 1]]}, '
              '"labeling": {"vertex_labels": [1, 2], "edge_labels": [3]}}')
    bpath = tmp_path / "bundle.json"
    bpath.write_text(bundle)
    code, out, err = run(capsys, "verify", str(bpath))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read JSON from {bpath}: duplicate key 'edges'\n"
    monkeypatch.setattr(_sys, "stdin", io.StringIO(
        '{"vertex_count": 3, "edges": [[0, 1], [1, 2]], "edges": [[0, 1]]}'))
    code, out, err = run(capsys, "search", "--graph", "-", "--b", "1")
    assert (code, out) == (2, "")
    assert err == "error: cannot read JSON from -: duplicate key 'edges'\n"


def test_search_single_offset_budget(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "lobster", "-p", "3", "-o", str(gpath))  # 13 labels
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "7",
                         "--budget", "12")
    assert code == 1
    assert out == "" and "budget exceeded" in err
    monkeypatch.setenv("MAGILAB_BUDGET", "12")
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "7")
    assert code == 1
    assert out == "" and "budget exceeded" in err
    code, out, _ = run(capsys, "search", "--graph", str(gpath), "--b", "7",
                       "--budget", "13")
    assert code == 0
    assert json.loads(out)["count"] > 0


@pytest.mark.parametrize("label", ["a", 1.5, True])
def test_verify_non_integer_label_exits_2(tmp_path, capsys, label):
    gpath = tmp_path / "g.json"
    lpath = tmp_path / "lab.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    lpath.write_text(json.dumps({"vertex_labels": [label, 5, 2], "edge_labels": [4, 3]}))
    code, out, err = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 2
    assert out == "" and "not an integer" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_dot_output(capsys):
    code, out, _ = run(capsys, "construct", "caterpillar-beta", "--spine", "1,1",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert '0 [label="6"];' in out
    assert '0 -- 2 [label="4"];' in out


SPEC = CaterpillarSpec(3, (2, 1, 2))

GEN_CASES = {
    "caterpillar": (("--spine", "2,1,2"), lambda: build_caterpillar(SPEC)),
    "double-star": (("2", "3"), lambda: build_double_star(2, 3)),
    "lobster": (("-p", "2"), lambda: build_lobster(2)),
    "cycle": (("-l", "5"), lambda: build_cycle(5)),
    "path": (("-n", "4"), lambda: build_path(4)),
    "star": (("-p", "3"), lambda: build_star(3)),
    "kmn": (("2", "3"), lambda: build_complete_bipartite(2, 3)),
}


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("family", GEN_CASES)
def test_gen_prints_what_the_library_builds(capsys, family, fmt):
    argv, build = GEN_CASES[family]
    handle = build()
    expected = (json.dumps(handle.to_dict(), indent=2) if fmt == "json"
                else to_dot(handle.graph, name_map=handle.name_map))
    assert run(capsys, "gen", family, *argv, "--format", fmt) == (0, expected + "\n", "")


CONSTRUCT_CASES = [
    pytest.param(("caterpillar-beta", "--spine", "2,1,2"), lambda: build_caterpillar(SPEC),
                 lambda: constructions.caterpillar_beta_labeling(SPEC), id="caterpillar-beta"),
    pytest.param(("caterpillar-super", "--spine", "2,1,2"), lambda: build_caterpillar(SPEC),
                 lambda: constructions.caterpillar_super_labeling(SPEC), id="caterpillar-super"),
    pytest.param(("double-star", "2", "3", "--variant", "1"), lambda: build_double_star(2, 3),
                 lambda: constructions.double_star_consecutive(2, 3, 1), id="double-star-1"),
    pytest.param(("double-star", "2", "3", "--variant", "2"), lambda: build_double_star(2, 3),
                 lambda: constructions.double_star_consecutive(2, 3, 2), id="double-star-2"),
]


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("argv, build, label", CONSTRUCT_CASES)
def test_construct_prints_what_the_library_builds(capsys, argv, build, label, fmt):
    handle, labeling = build(), label()
    if fmt == "json":
        expected = json.dumps({"graph": handle.to_dict(), "labeling": labeling.to_dict(),
                               "classification": classify(handle.graph, labeling).to_dict()},
                              indent=2)
    else:
        expected = to_dot(handle.graph, labeling)
    assert run(capsys, "construct", *argv, "--format", fmt) == (0, expected + "\n", "")


def test_cli_looks_library_functions_up_at_call_time(tmp_path, capsys, monkeypatch):
    """A wrapper put in place after the parser is built, the way the benchmark's
    tracer instruments a run, sees every call the CLI makes."""
    cli._build_parser()
    calls = []
    for owner, name in ((cli, "build_lobster"), (constructions, "caterpillar_beta_labeling"),
                        (analysis, "lobster_suite"), (search, "find_consecutive")):
        def counted(*args, _raw=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _raw(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    gpath = tmp_path / "L2.json"
    for argv, name in ((("gen", "lobster", "-p", "2", "-o", str(gpath)), "build_lobster"),
                       (("construct", "caterpillar-beta", "--spine", "1,1"),
                        "caterpillar_beta_labeling"),
                       (("suite", "lobster", "--budget", "2"), "lobster_suite"),
                       (("search", "--graph", str(gpath), "--b", "0"), "find_consecutive")):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [name]


def test_dot_without_labeling_uses_names():
    handle = build_lobster(2)
    text = to_dot(handle.graph, name_map=handle.name_map)
    assert '[label="x"]' in text and '[label="y1"]' in text


def test_search_reads_graph_from_stdin(capsys, monkeypatch):
    import io
    import sys as _sys
    monkeypatch.setattr(_sys, "stdin",
                        io.StringIO(json.dumps(build_lobster(3).to_dict())))
    code, out, _ = run(capsys, "search", "--graph", "-", "--b", "all")
    assert code == 0
    assert json.loads(out)["feasible_b"] == [0, 7]


def test_module_entry_point():
    import subprocess
    import sys as _sys
    proc = subprocess.run([_sys.executable, "-m", "magilab", "analyze",
                           "constant-form", "2", "2", "18"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t"] == 6


@pytest.mark.parametrize("suite, rows", [("closing", 12), ("caterpillar", 151),
                                         ("lobster", 5), ("double-star", 9)])
def test_suite_budget_covers_every_row(capsys, suite, rows):
    # the smallest graph any suite searches, P2 = K_1,1, needs 3 labels
    code, out, _ = run(capsys, "suite", suite, "--budget", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == rows
    assert all(row["verdict"] == "out-of-budget" for row in reports)


@pytest.mark.parametrize("argv", [("suite", "lobster"), ("search", "--b", "all")])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_exits_2(tmp_path, capsys, monkeypatch, argv, budget):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "path", "-n", "3", "-o", str(gpath))
    extra = ("--graph", str(gpath)) if argv[0] == "search" else ()
    code, out, err = run(capsys, *argv, *extra, "--budget", budget)
    assert code == 2
    assert out == "" and f"--budget must be at least 1, got {budget}" in err
    monkeypatch.setenv("MAGILAB_BUDGET", budget)
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2
    assert out == "" and f"MAGILAB_BUDGET must be at least 1, got '{budget}'" in err


@pytest.mark.parametrize("max_labels", ["2", "0", "-3"])
def test_suite_max_labels_below_three_exits_2(capsys, max_labels):
    code, out, err = run(capsys, "suite", "caterpillar", "--max-labels", max_labels)
    assert code == 2
    assert out == "" and f"--max-labels must be at least 3, got {max_labels}" in err


@pytest.mark.parametrize("suite", ["closing", "lobster"])
def test_suite_max_labels_ignored_outside_caterpillar(capsys, suite):
    code, out, _ = run(capsys, "suite", suite, "--format", "json")
    assert code == 0
    code, capped, _ = run(capsys, "suite", suite, "--max-labels", "2", "--format", "json")
    assert code == 0 and capped == out


def test_suite_warns_on_stderr_when_the_budget_refuses_rows(capsys):
    code, out, err = run(capsys, "suite", "caterpillar", "--max-labels", "9", "--budget", "5",
                         "--format", "json")
    assert code == 0
    rows = json.loads(out)
    refused = sum(row["verdict"] == "out-of-budget" for row in rows)
    assert 0 < refused < len(rows)
    assert err == (f"warning: {refused} of {len(rows)} rows refused by the label budget; "
                   f"--budget raises the limit\n")
    code, _, err = run(capsys, "suite", "caterpillar", "--max-labels", "9", "--format", "json")
    assert code == 0 and err == ""


def test_suite_smallest_max_labels_checks_p2(capsys):
    code, out, _ = run(capsys, "suite", "caterpillar", "--max-labels", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# one parser per process: back-to-back calls share no state
# ---------------------------------------------------------------------------

def test_usage_error_then_construct_matches_construct_alone(capsys):
    argv = ("construct", "caterpillar-beta", "--spine", "2,1")
    _, alone, _ = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["construct", "caterpillar-beta"])  # --spine missing
    assert exc.value.code == 2
    capsys.readouterr()
    code, after_error, err = run(capsys, *argv)
    assert code == 0 and err == "" and after_error == alone


def test_search_flags_do_not_leak_into_the_next_call(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "double-star", "1", "2", "-o", str(gpath))
    single = ("search", "--graph", str(gpath), "--b", "2", "--limit", "1")
    every = ("search", "--graph", str(gpath), "--b", "all")
    _, single_alone, _ = run(capsys, *single)
    _, every_alone, _ = run(capsys, *every)
    for first, second, expected in ((single, every, every_alone),
                                    (every, single, single_alone)):
        run(capsys, *first)
        code, out, err = run(capsys, *second)
        assert code == 0 and err == "" and out == expected


def test_budget_env_read_after_parser_is_built(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "lobster", "-p", "3", "-o", str(gpath))  # 13 labels
    code, _, _ = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 0
    monkeypatch.setenv("MAGILAB_BUDGET", "5")
    code, out, err = run(capsys, "search", "--graph", str(gpath), "--b", "all")
    assert code == 1
    assert out == "" and "budget exceeded" in err


def _run_module(module, *argv):
    """Run ``python -m module argv`` on this package, with no budget from
    the environment."""
    env = {k: v for k, v in os.environ.items() if k != "MAGILAB_BUDGET"}
    src = str(Path(magilab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.delenv("MAGILAB_BUDGET", raising=False)
    argv = ("suite", "closing", "--format", "json")
    proc = _run_module("magilab", *argv)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")
    proc = _run_module("magilab.cli", "search")  # --graph missing
    with pytest.raises(SystemExit) as exc:
        main(["search"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (exc.value.code, "",
                                                           capsys.readouterr().err)
    assert proc.returncode == 2 and "required: --graph" in proc.stderr
