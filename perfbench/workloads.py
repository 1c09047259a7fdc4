"""The three workloads: inputs from the seed, set-up, one job, output checks.

Every workload is a closed loop with one caller: the benchmark starts the
next job only after the previous one returns, as a researcher waiting on a
batch job would. All use ring-mixture data and the default model (width 128,
depth 4, SiLU); the sizes below set only step and sample counts.

- train-dense: ``pipeline.pretrain`` from scratch at batch 128, ending with
  one checkpoint save. Engine forward+gradient, Adam and the time embedding
  dominate; criteria, masking and the HVP are never reached.
- prune-gradflow: ``pipeline.prune_run`` with the default plan (gradient-flow
  criterion, exact HVP, element-wise global masks, final Taylor row-group
  hard prune) from a checkpoint pretrained in set-up. Mask updates are close
  together and the evaluation is small, so scoring, masking and checkpoint IO
  carry much of the time. The only workload that reaches criteria, masking,
  the scheduler and the HVP.
- sample-eval: the ``flowprune evaluate`` path (two checkpoint loads,
  ``dense_sample_cache``, ``evaluate_model``) on a model hard-pruned by rows
  at s = 0.5 and finetuned in set-up. Forward-only DDIM at large batch, no
  gradients.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from flowprune import checkpoint, pipeline
from flowprune.config import RunConfig
from flowprune.diffusion import ddim_timesteps

# Quality range a working model stays inside: the data has unit variance per
# coordinate, so a Frechet distance of 1 means the samples miss the
# distribution at its own scale.
FRECHET_MAX = 1.0


@dataclass(frozen=True)
class Size:
    train_steps: int        # train-dense: pretrain steps per job
    pretrain_steps: int     # set-up pretraining for the other two workloads
    m_iters: int            # prune-gradflow mask iterations
    n_iters: int
    interval: int
    prune_finetune: int
    prune_eval: tuple[int, int]  # (samples, DDIM substeps)
    eval_finetune: int      # sample-eval set-up finetune steps after the prune
    eval_eval: tuple[int, int]


SIZES = {
    "full": Size(train_steps=500, pretrain_steps=400, m_iters=10, n_iters=5,
                 interval=20, prune_finetune=100, prune_eval=(1000, 20),
                 eval_finetune=300, eval_eval=(1000, 100)),
    "tiny": Size(train_steps=30, pretrain_steps=100, m_iters=2, n_iters=1,
                 interval=5, prune_finetune=20, prune_eval=(200, 5),
                 eval_finetune=60, eval_eval=(300, 20)),
}


@dataclass(frozen=True)
class Inputs:
    """What the package receives; derived from the workload seed only."""

    dataset_seed: int
    model_seed: int
    noise_seed: int


def inputs_from_seed(seed: int) -> Inputs:
    words = np.random.SeedSequence(seed).generate_state(3)
    return Inputs(*(int(w) & 0x7FFFFFFF for w in words))


class Ledger:
    """Operations attempted and failed: jobs, set-ups and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Capture:
    """Results handed out of the package during one job, for the checks."""

    trains: list = field(default_factory=list)     # (stage, [(step, loss)])
    saves: list = field(default_factory=list)      # (path, tensors, meta)
    samples: list = field(default_factory=list)    # DDIM outputs

    def probes(self) -> dict:
        def on_train(args, kwargs, result):
            self.trains.append((kwargs.get("stage", "train"), list(result)))

        def on_save(args, kwargs, result):
            path, tensors = args[0], args[1]
            meta = args[2] if len(args) > 2 else kwargs.get("meta")
            # the model keeps training after a stage save, so copy now
            self.saves.append((str(path),
                               {n: np.array(v, dtype="<f8") for n, v in tensors.items()},
                               json.loads(json.dumps(meta or {}, sort_keys=True))))

        def on_sample(args, kwargs, result):
            self.samples.append(result)

        return {"diffusion.train": on_train,
                "checkpoint.save_checkpoint": on_save,
                "diffusion.sample_ddim": on_sample}

    def last_loss(self, stage: str) -> tuple[float, float]:
        """(first, last) logged loss of the last train() call of ``stage``."""
        trace = [t for s, t in self.trains if s == stage][-1]
        return trace[0][1], trace[-1][1]


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_roundtrips(ledger: Ledger, saves: list) -> dict:
    """Each checkpoint written in the job loads back bit-identical to the
    tensors and metadata handed to ``save_checkpoint``. Returns the loaded
    tensors by file name."""
    out = {}
    for path, tensors, meta in saves:
        loaded, loaded_meta = checkpoint.load_checkpoint(path)
        same = (set(loaded) == set(tensors) and loaded_meta == meta and all(
            loaded[n].shape == tensors[n].shape
            and loaded[n].tobytes() == tensors[n].tobytes() for n in tensors))
        ledger.expect(f"checkpoint {Path(path).name} loads back bit-identical", same)
        out[Path(path).name] = loaded
    return out


def check_row_prune(ledger: Ledger, tensors: dict, s: float, what: str) -> None:
    """Row-group hard prune at ``s``: every masked layer but ``out.w`` has
    exactly floor(s * rows) all-zero rows and all other rows all-one."""
    bad = []
    for name in sorted(k for k in tensors if k.endswith(".w.mask")):
        mask = tensors[name]
        zero_rows = int(np.count_nonzero((mask == 0.0).all(axis=1)))
        one_rows = int(np.count_nonzero((mask == 1.0).all(axis=1)))
        want = 0 if name == "out.w.mask" else math.floor(s * mask.shape[0])
        if zero_rows != want or zero_rows + one_rows != mask.shape[0]:
            bad.append(f"{name}: {zero_rows} pruned rows, want {want}")
    ledger.expect(f"{what}: kept rows per layer match floor(s*rows)", not bad,
                  "; ".join(bad))


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x)


# --------------------------------------------------------------- train-dense

def _train_cfg(inp: Inputs, size: Size) -> RunConfig:
    return RunConfig(dataset_seed=inp.dataset_seed, train_batch=128,
                     pretrain_steps=size.train_steps)


def train_setup(inp: Inputs, size: Size, work: Path, ledger: Ledger) -> dict:
    cfg = _train_cfg(inp, size)
    data = pipeline.build_dataset(cfg)
    model = pipeline.build_model(cfg, inp.model_seed)
    digest = hashlib.sha256(data.tobytes())
    for name in sorted(model.params):
        digest.update(model.params[name].tobytes())
    return {"cfg": cfg, "seed": inp.model_seed, "fingerprint": digest.hexdigest()}


def train_job(state: dict, work: Path) -> dict:
    pipeline.pretrain(state["cfg"], state["seed"], work)
    return {"train_steps": state["cfg"].pretrain_steps}


def train_check(state: dict, out: dict, cap: Capture, ledger: Ledger) -> dict:
    first, last = cap.last_loss("pretrain")
    ledger.expect("final loss finite and below the first logged loss",
                  _finite(last) and last < first, f"first {first!r}, last {last!r}")
    check_roundtrips(ledger, cap.saves)
    return {"final_loss": last}


# ------------------------------------------------------------ prune-gradflow

def _prune_cfg(inp: Inputs, size: Size) -> RunConfig:
    return RunConfig(
        dataset_seed=inp.dataset_seed, pretrain_steps=size.pretrain_steps,
        plan_m_iters=size.m_iters, plan_n_iters=size.n_iters,
        plan_interval=size.interval,
        plan_total_steps=size.m_iters * size.interval + size.prune_finetune,
        eval_samples=size.prune_eval[0], eval_substeps=size.prune_eval[1],
        eval_seed=inp.noise_seed,
    )


def prune_setup(inp: Inputs, size: Size, work: Path, ledger: Ledger) -> dict:
    cfg = _prune_cfg(inp, size)
    pre = pipeline.pretrain(cfg, inp.model_seed, work / "pretrain")
    dense = pipeline.load_stage_model(cfg, inp.model_seed, pre)
    dense_samples = pipeline.dense_sample_cache(cfg, dense)
    digest = hashlib.sha256(_file_digest(pre).encode())
    digest.update(dense_samples.tobytes())
    return {"cfg": cfg, "seed": inp.model_seed, "pretrain": pre,
            "dense_samples": dense_samples, "fingerprint": digest.hexdigest()}


def prune_job(state: dict, work: Path) -> dict:
    report = pipeline.prune_run(state["cfg"], state["seed"], state["pretrain"],
                                work, dense_samples=state["dense_samples"])
    return {"report": report}


def prune_check(state: dict, out: dict, cap: Capture, ledger: Ledger) -> dict:
    report = out["report"]
    ledger.expect("three stage checkpoints written", len(cap.saves) == 3,
                  f"{len(cap.saves)} saves")
    loaded = check_roundtrips(ledger, cap.saves)
    for stage in ("hard_prune", "finetune"):
        check_row_prune(ledger, loaded[f"{stage}.ckpt"], state["cfg"].plan_s, stage)
    frechet, ssim = report["metrics"]["frechet"], report["metrics"]["ssim"]
    ledger.expect("frechet and ssim finite", _finite(frechet) and _finite(ssim),
                  f"frechet {frechet!r}, ssim {ssim!r}")
    return {"final_loss": cap.last_loss("finetune")[1], "frechet": frechet,
            "ssim": ssim}


# --------------------------------------------------------------- sample-eval

def _eval_cfg(inp: Inputs, size: Size, samples: tuple[int, int]) -> RunConfig:
    return RunConfig(
        dataset_seed=inp.dataset_seed, pretrain_steps=size.pretrain_steps,
        plan_mode="one-shot", plan_total_steps=size.eval_finetune,
        eval_samples=samples[0], eval_substeps=samples[1],
        eval_seed=inp.noise_seed,
    )


def eval_setup(inp: Inputs, size: Size, work: Path, ledger: Ledger) -> dict:
    # the prune run's own closing evaluation is kept small; the job evaluates
    # the finetuned checkpoint at full size
    small = _eval_cfg(inp, size, (200, 10))
    pre = pipeline.pretrain(small, inp.model_seed, work / "pretrain")
    report = pipeline.prune_run(small, inp.model_seed, pre, work / "prune")
    pruned = report["checkpoints"]["finetune"]
    check_row_prune(ledger, checkpoint.load_checkpoint(pruned)[0], small.plan_s,
                    "evaluated model")
    digest = hashlib.sha256((_file_digest(pre) + _file_digest(pruned)).encode())
    return {"cfg": _eval_cfg(inp, size, size.eval_eval), "seed": inp.model_seed,
            "pretrain": pre, "pruned": pruned, "fingerprint": digest.hexdigest()}


def eval_job(state: dict, work: Path) -> dict:
    cfg, seed = state["cfg"], state["seed"]
    model = pipeline.load_stage_model(cfg, seed, state["pruned"])
    dense = pipeline.load_stage_model(cfg, seed, state["pretrain"])
    dense_samples = pipeline.dense_sample_cache(cfg, dense)
    quality = pipeline.evaluate_model(cfg, model, dense_samples, seed)
    steps = len(ddim_timesteps(cfg.diffusion_t, cfg.eval_substeps))
    return {"quality": quality, "ddim_point_steps": 2 * cfg.eval_samples * steps}


def eval_check(state: dict, out: dict, cap: Capture, ledger: Ledger) -> dict:
    q = out["quality"]
    ledger.expect("two DDIM sample sets, all finite",
                  len(cap.samples) == 2 and all(np.isfinite(s).all()
                                                for s in cap.samples))
    ledger.expect(f"frechet in [0, {FRECHET_MAX})",
                  _finite(q.frechet) and 0.0 <= q.frechet < FRECHET_MAX,
                  repr(q.frechet))
    ledger.expect("ssim in (0, 1]", _finite(q.ssim) and 0.0 < q.ssim <= 1.0,
                  repr(q.ssim))
    return {"frechet": q.frechet, "ssim": q.ssim}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable    # (Inputs, Size, work dir, Ledger) -> state
    job: Callable      # (state, work dir) -> outputs; the timed part
    check: Callable    # (state, outputs, Capture, Ledger) -> compared values
    setup_reps: int
    # layers that must record calls in a traced run of this workload
    layers: tuple[str, ...]


_TRAIN_LAYERS = ("engine.forward", "engine.gradient", "diffusion.train",
                 "diffusion.loss_and_grads", "diffusion.loss",
                 "diffusion.Adam.step", "diffusion.time_embedding")
_SAMPLE_LAYERS = ("diffusion.NoisePredictor.predict", "diffusion.sample_ddim",
                  "metrics.frechet_distance", "metrics.consistency_ssim",
                  "pipeline.evaluate_model", "datasets.generate",
                  "checkpoint.load_checkpoint")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-dense",
            "pretraining from scratch at batch 128: engine forward+gradient, "
            "Adam and the time embedding; no pruning code runs",
            train_setup, train_job, train_check, setup_reps=21,
            layers=_TRAIN_LAYERS + ("datasets.generate",
                                    "checkpoint.save_checkpoint",
                                    "pipeline.pretrain")),
        Workload(
            "prune-gradflow",
            "the paper's method: gradient-flow scores with exact HVP, global "
            "element masks, Taylor row-group hard prune, stage checkpoints",
            prune_setup, prune_job, prune_check, setup_reps=3,
            layers=_TRAIN_LAYERS + _SAMPLE_LAYERS + (
                "engine.hessian_vector_product",
                "criteria.compute_scores.gradient-flow",
                "criteria.compute_scores.taylor", "criteria.gradient_flow_delta",
                "masking.apply_mask_update", "scheduler.run_progressive_soft",
                "scheduler.final_hard_prune", "scheduler.finetune",
                "scheduler.energy_flow", "checkpoint.save_checkpoint",
                "pipeline.prune_run")),
        Workload(
            "sample-eval",
            "the evaluate path on a row-pruned model: forward-only DDIM over "
            "1000 points x 100 steps, then Frechet and SSIM; no gradients",
            eval_setup, eval_job, eval_check, setup_reps=3,
            layers=_SAMPLE_LAYERS + ("engine.forward", "diffusion.time_embedding",
                                     "pipeline.dense_sample_cache")),
    )
}
