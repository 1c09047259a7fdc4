"""Spans around calls into flowprune's public functions, from outside.

The package is not modified. ``instrument`` replaces every binding of each
wrapped function -- the defining module's attribute, each ``from x import f``
copy in another flowprune module, or the class attribute for a method -- with
a wrapper, and restores the originals on exit. A binding is found by
identity, so a new ``from .diffusion import train`` elsewhere is covered
without editing this file.

Spans live in memory as ``[name, start, end, parent, job]`` lists and are
written out once, after the run. A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT_SPAN = "job"


def _path_size(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _criterion(args, kwargs) -> str:
    return args[0] if args else kwargs["criterion"]


@dataclass(frozen=True)
class Layer:
    """One wrapped function. ``attr`` is ``name`` or ``Class.method``.

    ``split`` suffixes the span name with a value taken from the call;
    ``counter`` is ``(stat, fn(args, kwargs, result))`` recorded per call.
    """

    module: str
    attr: str
    split: Callable | None = None
    counter: tuple[str, Callable] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("engine", "forward"),
    Layer("engine", "gradient"),
    Layer("engine", "hessian_vector_product"),
    Layer("diffusion", "train"),
    Layer("diffusion", "loss_and_grads"),
    Layer("diffusion", "loss"),
    Layer("diffusion", "Adam.step"),
    Layer("diffusion", "time_embedding"),
    Layer("diffusion", "NoisePredictor.predict"),
    Layer("diffusion", "sample_ddim"),
    Layer("criteria", "compute_scores", split=_criterion),
    Layer("criteria", "gradient_flow_delta"),
    Layer("masking", "apply_mask_update",
          counter=("units", lambda a, k, out: out.total_units)),
    Layer("scheduler", "run_progressive_soft"),
    Layer("scheduler", "final_hard_prune"),
    Layer("scheduler", "finetune"),
    Layer("scheduler", "energy_flow"),
    Layer("metrics", "frechet_distance"),
    Layer("metrics", "consistency_ssim"),
    Layer("datasets", "generate",
          counter=("rows", lambda a, k, out: out.shape[0])),
    Layer("checkpoint", "save_checkpoint", counter=("bytes", _path_size)),
    Layer("checkpoint", "load_checkpoint", counter=("bytes", _path_size)),
    Layer("pipeline", "pretrain"),
    Layer("pipeline", "prune_run"),
    Layer("pipeline", "evaluate_model"),
    Layer("pipeline", "dense_sample_cache"),
)
LAYER_BY_NAME = {layer.name: layer for layer in LAYERS}

# Span names reported as per-layer metrics: compute_scores is split by the
# criteria the workloads use. config.digest is not wrapped: its only timed
# use is below timer resolution.
REPORTED_SPANS = tuple(
    name for layer in LAYERS
    for name in ((f"{layer.name}.gradient-flow", f"{layer.name}.taylor")
                 if layer.split else (layer.name,))
)
SPAN_STATS = (("calls", "count", "lower"), ("busy_s", "s", "lower"),
              ("self_s", "s", "lower"), ("p50_ms", "ms", "lower"))
COUNTER_STATS = (
    ("masking.apply_mask_update.units", "count", "lower"),
    ("datasets.generate.rows", "count", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.save_checkpoint.mb_per_s", "MB/s", "higher"),
    ("checkpoint.load_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.mb_per_s", "MB/s", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", unit, better)
           for span in REPORTED_SPANS for stat, unit, better in SPAN_STATS]
    return out + list(COUNTER_STATS)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple[int, str, float]] = []
        self.job = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.job, name, float(value)))

    @contextmanager
    def job_span(self, job: int):
        self.job = job
        idx = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(idx)

    def write(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "job": job, "id": i,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _make_wrapper(fn, layer: Layer, tracer: Tracer | None, probe):
    if tracer is None:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe(args, kwargs, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            name = layer.name
            if layer.split is not None:
                name = f"{name}.{layer.split(args, kwargs)}"
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if layer.counter is not None:
                stat, measure = layer.counter
                tracer.count(f"{layer.name}.{stat}", measure(args, kwargs, result))
            if probe is not None:
                probe(args, kwargs, result)
            return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer.attr)
    return wrapper


def _package_modules() -> list:
    import flowprune

    for info in pkgutil.iter_modules(flowprune.__path__):
        importlib.import_module(f"flowprune.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "flowprune" or name.startswith("flowprune.")]


@contextmanager
def instrument(tracer: Tracer | None, probes: dict | None = None):
    """Wrap flowprune functions for the duration of the block.

    With a tracer every layer in ``LAYERS`` records spans (and runs its probe,
    if any); without one only the layers named in ``probes`` are wrapped, and
    the wrapper just hands each call's result to the probe. Yields
    ``{layer name: [patched binding, ...]}``; every binding is restored on
    exit, also when the block raises.
    """
    probes = probes or {}
    layers = LAYERS if tracer is not None else [LAYER_BY_NAME[n] for n in probes]
    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []
    patched: dict[str, list[str]] = {}
    try:
        for layer in layers:
            home = importlib.import_module(f"flowprune.{layer.module}")
            owner_name, _, attr = layer.attr.rpartition(".")
            if owner_name:
                cls = getattr(home, owner_name)
                original = vars(cls)[attr]
                owners = [(cls, attr, f"{layer.module}.{owner_name}")]
            else:
                original = getattr(home, attr)
                owners = [(mod, key, mod.__name__.removeprefix("flowprune."))
                          for mod in modules
                          for key, value in list(vars(mod).items())
                          if value is original]
            wrapper = _make_wrapper(original, layer, tracer, probes.get(layer.name))
            for owner, key, label in owners:
                undo.append((owner, key, original))
                setattr(owner, key, wrapper)
                patched.setdefault(layer.name, []).append(f"{label}.{key}")
        yield patched
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def tail_percentile(values) -> tuple[str, float] | None:
    """Highest of p99.9 / p99 / p90 / p50 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", float(np.percentile(values, q))
    return None


def span_stats(tracer: Tracer) -> dict:
    """Per span name: per-job medians of calls, busy and self time, plus call
    durations (p50 and tail). Also checks that children never cover more than
    their parent."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    jobs = sorted({s[4] for s in spans if s[0] == ROOT_SPAN})
    per_job: dict[str, dict[int, list[float]]] = {}
    durations: dict[str, list[float]] = {}
    overfull = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        dur = end - start
        self_time = dur - child_time[i]
        if self_time < -1e-9:
            overfull.append(name)
        acc = per_job.setdefault(name, {}).setdefault(job, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += self_time
        durations.setdefault(name, []).append(dur)
    out = {}
    for name, by_job in per_job.items():
        rows = [by_job.get(j, [0, 0.0, 0.0]) for j in jobs]
        tail = tail_percentile(durations[name])
        out[name] = {
            "calls": float(np.median([r[0] for r in rows])),
            "busy_s": float(np.median([r[1] for r in rows])),
            "self_s": float(np.median([r[2] for r in rows])),
            "p50_ms": 1e3 * float(np.median(durations[name])),
            "samples": len(durations[name]),
            "total_s": float(sum(durations[name])),
            "tail": None if tail is None else {"label": tail[0],
                                               "ms": 1e3 * tail[1]},
        }
    return {"jobs": len(jobs), "layers": out, "overfull_spans": overfull}


def counter_stats(tracer: Tracer, layers: dict) -> dict:
    """Units per mask update; rows and bytes per job; checkpoint MB/s."""
    jobs = sorted({s[4] for s in tracer.spans if s[0] == ROOT_SPAN})
    per_call: dict[str, list[float]] = {}
    per_job: dict[str, dict[int, float]] = {}
    for job, name, value in tracer.counters:
        per_call.setdefault(name, []).append(value)
        per_job.setdefault(name, {}).setdefault(job, 0.0)
        per_job[name][job] += value

    def job_median(name):
        by_job = per_job.get(name, {})
        return float(np.median([by_job.get(j, 0.0) for j in jobs])) if jobs else 0.0

    out = {
        "masking.apply_mask_update.units":
            float(np.median(per_call["masking.apply_mask_update.units"]))
            if "masking.apply_mask_update.units" in per_call else 0.0,
        "datasets.generate.rows": job_median("datasets.generate.rows"),
    }
    for fn in ("save_checkpoint", "load_checkpoint"):
        key = f"checkpoint.{fn}"
        out[f"{key}.bytes"] = job_median(f"{key}.bytes")
        total = sum(per_call.get(f"{key}.bytes", []))
        busy = layers.get(key, {}).get("total_s", 0.0)
        out[f"{key}.mb_per_s"] = total / 1e6 / busy if busy > 0 else 0.0
    return out
