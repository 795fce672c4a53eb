"""Tests of the benchmark itself:  python3 -m pytest perfbench

They live outside the library's testpaths, so the library's own suite
does not run them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics  # noqa: E402

lib = run.load_library()

# one small instance per workload, same shape, dist and line
SMALL_N = {"circle-rings": 10, "circle-line": 16, "rect-uniform": 24,
           "square-uniform": 20, "corridor-large": 300}


def _library_namespaces():
    spaces = [m for name, m in sys.modules.items()
              if name == "rbannulus" or name.startswith("rbannulus.")]
    spaces += [v for m in list(spaces) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("rbannulus")]
    return spaces


def _snapshot():
    return {(id(space), key): value for space in _library_namespaces()
            for key, value in list(vars(space).items())}


def _solve(name):
    wl = run.WORKLOADS[name]._replace(n=SMALL_N[name], pool=1)
    line = None if wl.line is None else lib.cli.parse_line_spec(wl.line)
    pool, _ = run.make_pool(lib, wl, 7)
    answers, failures = {}, []
    run.run_pass(lib, wl, pool, line, None, answers, failures)
    assert not failures
    return repr(answers[0])


def test_traced_answers_match_and_originals_come_back():
    before = _snapshot()
    plain = {name: _solve(name) for name in SMALL_N}
    tracer = Tracer()
    with tracer:
        traced = {name: _solve(name) for name in SMALL_N}
    assert traced == plain
    assert tracer.absent == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    # every layer was reached by at least one workload
    assert all(tracer.stats[name][0] > 0 for name, _, _ in TARGETS
               if name not in ("rect.gap_tree_build",
                               "rect.color_tree_build"))


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            _solve("circle-rings")
            _solve("square-uniform")
        counts.append({name: st[0] for name, st in tracer.stats.items()})
    assert counts[0] == counts[1]


def test_missing_names_are_absent_not_fatal():
    targets = TARGETS + (("gone.fn", "circles", "no_such_generator"),
                         ("gone.method", "lcorridor", "GapTree.no_such"),
                         ("gone.class", "rect", "NoSuchTree.__init__"),
                         ("gone.module", "no_such_module", "fn"))
    before = _snapshot()
    tracer = Tracer(targets)
    for _ in range(2):  # a tracer is installed once per traced phase
        with tracer:
            _solve("corridor-large")
    assert tracer.absent == ["gone.fn", "gone.method", "gone.class",
                             "gone.module"]
    assert tracer.stats["lcorridor.gap_insert"][0] > 0
    assert set(layer_metrics(tracer.stats, 0.0)) == set(
        _benchmark_json()["per_layer_names"])
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {"per_layer_names": [m["name"] for m in doc["per_layer"]],
            "workloads": [w["name"] for w in doc["workloads"]]}


def test_benchmark_json_names_every_workload():
    assert _benchmark_json()["workloads"] == list(run.WORKLOADS)


def test_default_seed_is_recorded_for_every_workload():
    for name, wl in run.WORKLOADS.items():
        record = run.load_record(name)
        assert str(run.DEFAULT_SEED) in record["pools"]
        for g in run.instance_seeds(wl, run.DEFAULT_SEED):
            assert str(g) in record["widths"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circle-rings",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout


def test_speed_probe_times_each_kernel():
    for kernel in run.NOMINAL_S:
        probe = run.SpeedProbe(kernel)
        probe()
        probe()
        assert len(probe.samples) == 2 and probe.seconds() > 0


def test_run_for_solves_round_robin_and_probes():
    wl = run.WORKLOADS["circle-rings"]._replace(n=SMALL_N["circle-rings"],
                                                pool=2)
    pool, _ = run.make_pool(lib, wl, 7)
    answers, failures = {}, []
    probe = run.SpeedProbe(wl.kernel)
    times, order = run.run_for(lib, wl, pool, None, None, answers,
                               failures, 0.2, probe)
    assert not failures and len(times) == len(order) >= len(pool)
    assert order == [i % 2 for i in range(len(order))]
    assert probe.samples
