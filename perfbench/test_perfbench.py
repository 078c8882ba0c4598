"""Tests of the benchmark itself: seeded inputs, reference invariants, span
arithmetic, and a small pass of each workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from magilab import cli, graphs, labelings, search  # noqa: E402

REFERENCE = workloads.load_reference()


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """One small untraced pass of each workload, shared by the tests below."""
    tmp = str(tmp_path_factory.mktemp("smoke"))
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        out[name] = workload.run_pass(workload.inputs(2, smoke=True)[0], tmp)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5, smoke=True) == workload.inputs(5, smoke=True)


def test_seed_changes_the_relabelling_only():
    workload = workloads.WORKLOADS["offset-enumerate"]
    first, second = workload.inputs(5), workload.inputs(6)
    assert first != second
    assert [[call[:3] for call in p] for p in first] == [[call[:3] for call in p] for p in second]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_keeps_reference_invariants(seed):
    for name, n, b, edges in workloads.WORKLOADS["offset-enumerate"].inputs(seed, smoke=True)[0]:
        report = search.find_consecutive(search.SearchQuery(graphs.Graph(n, edges), b))
        assert [report.solution_count, sorted(report.constants_found)] == \
            REFERENCE["offsets"][name][b], (name, b)


def _span(name, start, end, parent, pass_id=0, info=None, error=None):
    return tracing.Span(name, start, end, parent, pass_id, info, error)


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),    # overlaps a: together they cover 1..6
        _span("c", 2.0, 3.0, 1),
        _span("d", 9.0, 12.0, 0),   # only 9..10 lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_group_by_pass():
    spans = [
        _span("cli.main", 0.0, 5.0, -1, 0),
        _span("search.feasible_b_set", 1.0, 3.0, 0, 0, info=(5, 2)),
        _span("search.find_consecutive", 3.0, 4.0, 0, 0, info=0),
        _span("constructions.transform", 4.0, 4.5, 0, 0, error="ConstructionError"),
        _span("search.find_consecutive", 10.0, 12.0, -1, 1, info=7),
    ]
    first, second = (tracing.layer_metrics(spans)[i] for i in (0, 1))
    assert set(first) == set(tracing.LAYER_METRICS) - set(tracing.RUN_METRICS)
    assert first["cli.main.calls"] == 1
    assert first["cli.main.self_s"] == pytest.approx(1.5)
    assert first["search.feasible_b_set.feasible_frac"] == pytest.approx(0.4)
    assert first["search.find_consecutive.infeasible_s"] == pytest.approx(1.0)
    assert first["constructions.refused"] == 1
    assert second["search.find_consecutive.solutions"] == 7
    assert second["search.find_consecutive.feasible_s"] == pytest.approx(2.0)
    assert second["cli.main.calls"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_has_no_failures(name, smoke_results):
    attempted, failed = workloads.WORKLOADS[name].check(smoke_results[name], REFERENCE)
    assert attempted > 0
    assert failed == 0


def test_reference_mismatch_counts_as_failure(smoke_results):
    wrong = json.loads(json.dumps(REFERENCE))
    wrong["offsets"]["P4"][0][0] += 1
    wrong["double_star_rows"][0][4] = "fail"
    _, failed = workloads.WORKLOADS["offset-enumerate"].check(smoke_results["offset-enumerate"], wrong)
    assert failed == workloads.ROUNDS + 1


def test_traced_pass_reports_layers_and_restores_originals(tmp_path):
    workload = workloads.WORKLOADS["construct-verify"]
    specs, offset = inputs = workload.inputs(2, smoke=True)[0]
    original = labelings.classify
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        assert cli.classify is not original
        workload.run_pass(inputs, str(tmp_path))
    assert cli.classify is original and labelings.classify is original
    metrics = tracing.layer_metrics(recorder.spans)[0]
    via_cli = len(specs[offset::workloads.CLI_EVERY])
    assert metrics["constructions.refused"] == len(specs)
    assert metrics["cli.main.calls"] == 3 * via_cli
    assert metrics["labelings.classify.calls"] == 7 * len(specs) + 3 * via_cli
    assert metrics["graphs.json.self_s"] > 0
    assert metrics["search.find_consecutive.calls"] == 0


def test_traced_suite_pass_sees_calls_through_analysis(tmp_path):
    workload = workloads.WORKLOADS["suite-sweep"]
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        result = workload.run_pass(workload.inputs(1, smoke=True)[0], str(tmp_path))
    metrics = tracing.layer_metrics(recorder.spans)[0]
    rows = sum(len(json.loads(text)) for _, _, text in result.outputs)
    assert metrics["analysis.rows"] == rows
    assert metrics["analysis.rows_not_pass"] == 0
    assert metrics["search.feasible_b_set.calls"] > 0
    assert metrics["search.find_graceful.self_s"] > 0
    assert 0 < metrics["search.feasible_b_set.feasible_frac"] < 1


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_time_integrates_host_speed():
    clock = hostclock.HostClock()
    clock.samples = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.5)]
    to_ref = clock.reference_time()
    assert [to_ref(t) for t in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)] == \
        pytest.approx([-1.0, 0.0, 0.375, 0.75, 1.25, 1.75])
    assert clock.speed() == pytest.approx(2 / 3)


def test_window_samples_and_leaves_calibration_out():
    clock = hostclock.HostClock()
    with clock.window():
        raw_start, start, spent = time.perf_counter(), clock.now(), clock.spent
        while time.perf_counter() < raw_start + 0.3:
            pass
        raw, net = time.perf_counter() - raw_start, clock.now() - start
        spent = clock.spent - spent
    assert len(clock.samples) >= 10  # at the start, every 20 ms, at the end
    assert spent > 0
    assert raw - net == pytest.approx(spent, abs=1e-4)
