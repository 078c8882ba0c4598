"""Run one workload of the magilab benchmark and print its metrics.

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout: magilab is imported from ``src/``
of the checkout this file sits in, and the run exits with status 2, printing
no result, when that source tree is missing.  Everything runs in this one
process, one pass after another; the only other processes are the fresh
interpreters started one at a time to time set-up.

A run repeats timed passes of the workload until ``--seconds`` have passed.
With ``--trace 0`` every pass is untraced and the run reports the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the run
reports the per-layer metrics, including the tracing overhead.  Each metric
is printed as ``name value unit``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

``--write-reference`` regenerates ``perfbench/reference.json`` from the
checkout's magilab; nothing else ever writes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# A fresh interpreter that does what a run does before its first pass, and
# prints the host speed it saw and the time its own speed samples took.
SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
import hostclock
clock = hostclock.HostClock()
with clock.window():
    import workloads
    workloads.setup(sys.argv[3], int(sys.argv[4]))
print(clock.speed(), clock.spent)
"""


class PassTiming(NamedTuple):
    raw_wall: float  # seconds on the host's clock, calibration left out
    speed: float     # mean host speed during the pass
    wall: float      # reference-speed seconds, as are the call times
    calls: list


def git_sha() -> str:
    """HEAD commit read from the checkout's own ``.git``; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": git_sha(), "cpu_model": cpu, "loadavg_start": list(os.getloadavg())}


def measure_setup(workload: str, seed: int) -> float:
    """Median time of fresh interpreters that import magilab and build the inputs.

    Each child is scaled by the host speed it sampled itself: the two vCPUs
    of the development host ran at different speeds at the same moment, so
    samples taken in this process did not fit the child.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: Popen.wait polls every 50 ms when given one, which would quantize the time
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, HERE, SRC, workload, str(seed)],
                             cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        wall = time.perf_counter() - start
        speed, spent = map(float, out.split())
        times.append((wall - spent) * speed)
    return statistics.median(times)


def pass_metrics(wall: float, calls: list) -> dict:
    """The timed end-to-end metrics of one pass; a run reports their medians over passes."""
    return {"wall_s": wall,
            "call_p50_ms": statistics.median(calls) * 1e3,
            "call_p90_ms": statistics.quantiles(calls, n=10, method="inclusive")[8] * 1e3}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed passes for ``seconds``; returns the result object of the run.

    Every time is in reference-speed seconds (see hostclock.py): clock
    readings of a pass, its spans included, are mapped onto the reference
    timeline of that pass.
    """
    import tracing
    import workloads

    setup_s = None if trace else measure_setup(workload_name, seed)
    clock = hostclock.HostClock()
    workload = workloads.WORKLOADS[workload_name]
    inputs, reference = workloads.setup(workload_name, seed)
    os.makedirs(TMP, exist_ok=True)

    def timed_pass(pass_inputs):
        start = clock.now()
        result = workload.run_pass(pass_inputs, TMP, clock.now)
        return result, start, clock.now()

    recorder = tracing.Recorder(clock.now)
    untraced, traced = [], []  # PassTiming per pass
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # traced pass k runs on the same inputs as untraced pass k
        is_traced = trace and len(traced) < len(untraced)
        pass_inputs = inputs[(len(traced) if is_traced else len(untraced)) % len(inputs)]
        gc.collect()
        first_span = len(recorder.spans)
        with clock.window():
            if is_traced:
                recorder.pass_id = len(traced)
                with tracing.instrument(recorder):
                    result, start, end = timed_pass(pass_inputs)
            else:
                result, start, end = timed_pass(pass_inputs)
        to_ref = clock.reference_time()
        for span in recorder.spans[first_span:]:
            span.start, span.end = to_ref(span.start), to_ref(span.end)
        (traced if is_traced else untraced).append(PassTiming(
            end - start, clock.speed(), to_ref(end) - to_ref(start),
            [to_ref(b) - to_ref(a) for a, b in result.calls]))
        item_count, item_failures = workload.check(result, reference)
        attempted += item_count
        failed += item_failures
        del result
        if time.perf_counter() - started >= seconds and (traced or not trace):
            break

    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"items {attempted} attempted, {failed} failed")
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print(f"{kind} pass walls (raw s)", " ".join(f"{p.raw_wall:.3f}" for p in passes))
            print(f"{kind} host speeds", " ".join(f"{p.speed:.3f}" for p in passes))
    walls = [p.wall for p in untraced]
    print(f"calls {sum(len(p.calls) for p in untraced)} timed over {len(untraced)} untraced passes")
    if trace:
        values = {"host.speed": statistics.mean(p.speed for p in untraced + traced)}
        per_pass = tracing.layer_metrics(recorder.spans).values()
        for name, unit in tracing.LAYER_METRICS.items():
            if name not in tracing.RUN_METRICS:
                value = statistics.median(m[name] for m in per_pass)
                values[name] = int(value) if unit == "count" else value
        values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                         / statistics.median(walls) - 1)
        units = tracing.LAYER_METRICS
        write_spans(workload_name, seed, recorder)
    else:
        per_pass = [pass_metrics(p.wall, p.calls) for p in untraced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_METRICS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_spans(workload: str, seed: int, recorder) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "pass", "info", "error"],
                   "spans": [span.row() for span in recorder.spans]}, fh)
    print(f"spans {len(recorder.spans)} written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("suite-sweep", "offset-enumerate", "construct-verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "magilab", "__init__.py")):
        print(f"error: no magilab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC]
    import magilab
    if os.path.dirname(os.path.abspath(magilab.__file__)) != os.path.join(SRC, "magilab"):
        print(f"error: imported magilab from {magilab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.write_reference:
        import workloads
        workloads.write_reference(TMP)
        return 0

    env = environment()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env}))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
