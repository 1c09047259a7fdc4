"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code name the same workloads and metrics,
that every binding of a wrapped function is patched and then restored, and
that each workload at tiny size, for two seeds, traced and untraced, passes
its own checks and emits every metric with its unit, with no span's children
covering more time than the span itself.
"""

from __future__ import annotations

import json
import sys

import env

# Bindings that a patch of the defining module alone would miss.
IMPORTED_BINDINGS = {
    "pipeline": ("train", "sample_ddim", "save_checkpoint", "load_checkpoint",
                 "generate", "frechet_distance", "consistency_ssim",
                 "run_progressive_soft", "final_hard_prune", "finetune"),
    "scheduler": ("train", "compute_scores", "gradient_flow_delta",
                  "apply_mask_update"),
    "criteria": ("loss",),
}


def expect(ok: bool, what="") -> None:
    if not ok:
        raise AssertionError(what)


def check_benchmark_file(run, tracing, workloads) -> None:
    bench = json.loads(run.BENCH_FILE.read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS))
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E)
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == tracing.per_layer_metrics())


def check_bindings(tracing) -> None:
    import importlib

    def mod(name):
        return importlib.import_module(f"flowprune.{name}")

    before = {(m, n): getattr(mod(m), n)
              for m, names in IMPORTED_BINDINGS.items() for n in names}
    adam_step = mod("diffusion").Adam.step
    with tracing.instrument(tracing.Tracer()) as patched:
        for (m, n), original in before.items():
            now = getattr(mod(m), n)
            expect(now is not original and now.__wrapped__ is original, f"{m}.{n}")
        # scheduler binds the Adam class itself; the class attribute is patched
        expect(mod("scheduler").Adam is mod("diffusion").Adam)
        expect(mod("scheduler").Adam.step.__wrapped__ is adam_step)
        expect(set(patched) == {layer.name for layer in tracing.LAYERS})
    for (m, n), original in before.items():
        expect(getattr(mod(m), n) is original, f"{m}.{n} not restored")
    expect(mod("diffusion").Adam.step is adam_step)


def check_spans(path) -> None:
    spans = [json.loads(line) for line in open(path)]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    for s, child in zip(spans, covered):
        expect(child <= s["end"] - s["start"] + 1e-9, s["name"])


def main() -> int:
    env.pin_threads()
    import run

    tracing, workloads = run._load_package()
    check_benchmark_file(run, tracing, workloads)
    check_bindings(tracing)
    layer_units = {n: u for n, u, _ in tracing.per_layer_metrics()}
    expected = {0: run.E2E, 1: layer_units}
    for name in workloads.WORKLOADS:
        for seed in (0, 1):
            for trace in (0, 1):
                report = run.run(name, seed, 0, bool(trace), size="tiny")
                line = run.result_line(report)
                expect(line["correct"] and line["failed"] == 0, report["failures"])
                got = {k: m["unit"] for k, m in line["metrics"].items()}
                expect(got == expected[trace], (name, trace))
                expect(set(report["reported"]) <= set(run.REPORTED))
                if trace:
                    check_spans(report["spans_file"])
                print(f"ok {name} seed={seed} trace={trace}: "
                      f"{line['attempted']} checks", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
