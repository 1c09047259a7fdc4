"""The benchmark in ``perfbench/`` against the package it wraps.

``perfbench/`` names package modules, functions and the bindings other
modules import, and its projection walks the experiment arms through
``build_plan``; a change in ``src/`` that breaks one of them fails here in
about a second rather than in a benchmark run. Each workload also runs once,
traced, at tiny size, so a change to the calls its traced layers require
fails here too (about 3 s in all). ``perfbench/`` is put on
``sys.path`` for the test only, and its modules are unloaded afterwards.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("selftest", "run", "tracing", "workloads",
                            "projection")}
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, mod in list(sys.modules.items()):
            if Path(getattr(mod, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def test_benchmark_file_matches_workloads_and_metrics(bench):
    bench["selftest"].check_benchmark_file(bench["run"], bench["tracing"],
                                           bench["workloads"])


def test_every_wrapped_binding_is_patched_and_restored(bench):
    bench["selftest"].check_bindings(bench["tracing"])


def test_projection_walks_the_experiment_grid(bench):
    # synthetic rates for every per-layer name the benchmark declares
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    layers = {m["name"].rsplit(".", 1)[0]: {"calls": 10, "busy_s": 0.02,
                                            "self_s": 0.01, "p50_ms": 1.0}
              for m in spec["per_layer"]}
    traced = {w["name"]: {"layers": layers, "work": {"ddim_point_steps": 1000}}
              for w in spec["workloads"]}
    got = bench["projection"].project(traced)
    assert got["arm_runs"] == 45
    assert math.isfinite(got["total_s"]) and got["total_s"] > 0


@pytest.mark.parametrize("workload", ["train-dense", "prune-gradflow",
                                      "sample-eval"])
def test_traced_workload_passes_its_checks(bench, workload, tmp_path,
                                           monkeypatch):
    """One traced run at tiny size, whose layer check requires the calls
    each workload's traced layers name (train-dense: ``diffusion.loss``,
    then ``engine.forward`` and ``engine.gradient``)."""
    monkeypatch.setattr(bench["run"], "OUT_DIR", tmp_path)
    report = bench["run"].run(workload, 0, 0, True, size="tiny")
    line = bench["run"].result_line(report)
    assert line["correct"] and line["failed"] == 0, report["failures"]
