"""flowprune benchmark: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload train-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One process, one caller: each job starts after the previous one returns, for
``--seconds`` seconds (at least two jobs, so repeat runs can be compared).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs after one warm-up job and reports per-layer metrics
from spans recorded around calls into flowprune. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload both ways in child processes, prints one table and the
projected cost of the table1 + table2 grid.

Detailed reports and spans go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import env

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BENCH_FILE = ROOT / "BENCHMARK.json"
MIN_JOBS = 2

# End-to-end metrics gated by BENCHMARK.json, and the ones only printed: they
# exist on one or two workloads, or vary with the seed by design (model
# quality), so a bound across seeds would not hold.
E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
REPORTED = {"train_steps_per_s": "steps/s", "ddim_point_steps_per_s":
            "point-steps/s", "final_loss": "mse", "frechet": "1", "ssim": "1",
            "error_rate": "ratio"}


def _load_package():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import flowprune
    except ImportError as exc:
        sys.exit(f"error: cannot import flowprune from {ROOT / 'src'}: {exc}")
    if not Path(flowprune.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: flowprune imported from {flowprune.__file__}, "
                 f"not from {ROOT / 'src'}")
    import tracing
    import workloads
    return tracing, workloads


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run in this process; returns the full report."""
    tracing, workloads = _load_package()
    import calibration
    wl = workloads.WORKLOADS[name]
    sz = workloads.SIZES[size]
    inputs = workloads.inputs_from_seed(seed)
    ledger = workloads.Ledger()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = tracing.Tracer() if trace else None
    ref = calibration.Reference()
    setups, walls, traced_walls, outputs = [], [], [], []
    setup_refs = [ref.measure()]
    job_refs: list[float] = []
    extra: dict = {}
    try:
        state = None
        for i in range(1 if trace else wl.setup_reps):
            t0 = perf_counter()
            got = wl.setup(inputs, sz, work / f"setup{i}", ledger)
            setups.append(perf_counter() - t0)
            setup_refs.append(ref.measure())
            if state is None:
                state = got
            else:
                ledger.expect("set-up reproduces its inputs",
                              got["fingerprint"] == state["fingerprint"])
        job_refs.append(setup_refs[-1])
        window = perf_counter()
        n = 0
        while n < MIN_JOBS + trace or perf_counter() - window < seconds:
            # traced runs alternate untraced and traced jobs after a warm-up
            # job, so the tracing overhead compares jobs that ran under the
            # same conditions
            traced = trace and n % 2 == 1
            cap = workloads.Capture()
            job_dir = work / f"job{n}"
            ok = True
            with tracing.instrument(tracer if traced else None, cap.probes()):
                span = tracer.job_span(n) if traced else nullcontext()
                t0 = perf_counter()
                try:
                    with span:
                        out = wl.job(state, job_dir)
                except Exception as exc:  # a failed job is counted, not fatal
                    ok = ledger.expect("job completes", False, repr(exc))
                wall = perf_counter() - t0
            job_refs.append(ref.measure())
            if not ok:
                walls.append(wall)
                break
            ledger.expect("job completes", True)
            (traced_walls if traced else walls).append(wall)
            result = wl.check(state, out, cap, ledger)
            extra.update({k: v for k, v in out.items()
                          if k in ("train_steps", "ddim_point_steps")})
            if outputs:
                for key, value in result.items():
                    ledger.expect(f"{key} identical across repeated jobs",
                                  value == outputs[0][key],
                                  f"{value!r} vs {outputs[0][key]!r}")
            outputs.append(result)
            shutil.rmtree(job_dir, ignore_errors=True)
            n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": name, "seed": seed, "trace": int(trace), "size": size,
              "why": wl.why, "inputs": vars(inputs), "env": env.describe(ROOT),
              "jobs": len(walls) + len(traced_walls), "job_walls_s": walls,
              "traced_job_walls_s": traced_walls, "work": extra}
    wall = median(walls)
    if trace and traced_walls:
        report.update(_per_layer(tracing, tracer, wl, ledger, walls[1:] or walls,
                                 traced_walls))
        report["spans_file"] = str(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
        tracer.write(report["spans_file"], f"{name}-seed{seed}")
    elif trace:
        report.update(metrics={}, layers={}, tracing_overhead_s=0.0)
    else:
        report["metrics"] = {
            "setup_s": median(calibration.corrected(setups, setup_refs)),
            "wall_s": median(calibration.corrected(walls, job_refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    report["raw"] = {"setup_s": median(setups), "wall_s": wall,
                     "reference_s": median(setup_refs + job_refs),
                     "setup_refs_s": setup_refs, "job_refs_s": job_refs}
    reported = {"error_rate": ledger.failed / max(ledger.attempted, 1)}
    if "train_steps" in extra:
        reported["train_steps_per_s"] = extra["train_steps"] / wall
    if "ddim_point_steps" in extra:
        reported["ddim_point_steps_per_s"] = extra["ddim_point_steps"] / wall
    if outputs:
        reported.update(outputs[0])
    report["reported"] = reported
    report["attempted"] = ledger.attempted
    report["failed"] = ledger.failed
    report["failures"] = ledger.failures
    detail = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    detail.write_text(json.dumps(report, indent=1, default=str))
    report["detail_file"] = str(detail)
    return report


def _per_layer(tracing, tracer, wl, ledger, untraced_walls, traced_walls) -> dict:
    stats = tracing.span_stats(tracer)
    layers = stats["layers"]
    counters = tracing.counter_stats(tracer, layers)
    for layer in wl.layers:
        ledger.expect(f"traced layer {layer} recorded calls",
                      layers.get(layer, {}).get("calls", 0) > 0)
    ledger.expect("children never cover more than their span",
                  not stats["overfull_spans"], ", ".join(stats["overfull_spans"]))
    metrics = {}
    for name, unit, _ in tracing.per_layer_metrics():
        if name in counters:
            metrics[name] = counters[name]
        else:
            span, _, stat = name.rpartition(".")
            metrics[name] = layers.get(span, {}).get(stat, 0.0)
    return {"metrics": metrics, "layers": layers,
            "tracing_overhead_s": median(traced_walls) - median(untraced_walls)}


def units() -> dict:
    import tracing
    out = dict(E2E)
    out.update({name: unit for name, unit, _ in tracing.per_layer_metrics()})
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict) -> None:
    from calibration import NOMINAL_S
    unit_of = units()
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']}: "
          f"{report['jobs']} jobs, closed loop, 1 caller")
    print("env " + json.dumps(report["env"], sort_keys=True))
    if report["trace"]:
        layers = report["layers"]
        job = layers.get("job", {}).get("busy_s", 0.0) or 1.0
        print(f"{'span':44} {'calls':>8} {'busy_s':>9} {'self_s':>9} "
              f"{'self%':>6} {'p50_ms':>9}  tail")
        for name, st in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            tail = st["tail"]
            tail_txt = f"{tail['label']}={tail['ms']:.4g}ms" if tail else "-"
            print(f"{name:44} {st['calls']:8.0f} {st['busy_s']:9.4f} "
                  f"{st['self_s']:9.4f} {100 * st['self_s'] / job:6.1f} "
                  f"{st['p50_ms']:9.4f}  {tail_txt} (n={st['samples']})")
        print(f"tracing overhead (traced - untraced wall_s): "
              f"{report['tracing_overhead_s']:+.4f} s; config.digest not traced "
              f"(below timer resolution)")
    else:
        for name, value in report["metrics"].items():
            print(f"  {name:24} {_fmt(value):>14} {unit_of[name]}")
        raw = report["raw"]
        print(f"  (uncorrected: setup_s {raw['setup_s']:.6g} s, wall_s "
              f"{raw['wall_s']:.6g} s; reference kernel {raw['reference_s']:.6g} s "
              f"against nominal {NOMINAL_S} s)")
    for name, value in report["reported"].items():
        print(f"  {name:24} {_fmt(value):>14} {REPORTED[name]}  (printed, not gated)")
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"details: {report['detail_file']}")


def result_line(report: dict) -> dict:
    unit_of = units()
    metrics = {name: {"value": value if math.isfinite(value) else 0.0,
                      "unit": unit_of[name]}
               for name, value in report["metrics"].items()}
    finite = all(math.isfinite(v) for v in report["metrics"].values())
    return {"correct": report["failed"] == 0 and finite,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import projection
    import workloads

    results, details = {}, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}")
                print(done.stdout)
                return 1
            results[(name, trace)] = json.loads(lines[-1])
            details[(name, trace)] = json.loads(
                (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").read_text())
    print(f"{'workload':16} {'metric':24} {'value':>14} unit")
    combined = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        res, det = results[(name, 0)], details[(name, 0)]
        for metric, m in res["metrics"].items():
            print(f"{name:16} {metric:24} {_fmt(m['value']):>14} {m['unit']}")
            combined[f"{name}.{metric}"] = m
        for metric, value in det["reported"].items():
            print(f"{name:16} {metric:24} {_fmt(value):>14} {REPORTED[metric]} "
                  f"(not gated)")
        traced = details[(name, 1)]
        print(f"{name:16} {'tracing_overhead_s':24} "
              f"{_fmt(traced['tracing_overhead_s']):>14} s (not gated)")
        for trace in (0, 1):
            attempted += results[(name, trace)]["attempted"]
            failed += results[(name, trace)]["failed"]
    print()
    projection.print_projection(
        {name: details[(name, 1)] for name in workloads.WORKLOADS})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.workload == "all":
        _load_package()
        return run_all(args.seed, args.seconds)
    _, workloads = _load_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    line = result_line(report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    env.pin_threads()
    sys.exit(main())
