"""Importance criteria: magnitude, Taylor, and gradient-flow scores.

The gradient-flow score of a weight is (effective weight) * (H g), where H
and g are the Hessian and gradient of the denoising loss with respect to the
effective (masked) weight matrices. Scores are signed and ranked ascending:
the most negative units prune first, since removing a unit with importance I
shifts the squared gradient norm by about -2I, so negative-I units increase
gradient flow when removed. Magnitude and Taylor scores are the usual
absolute-value baselines.

All criteria average over a fixed set of batches whose timesteps are
stratified evenly over [0, T); the batch seed fully determines the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .diffusion import DiffusionSchedule, NoisePredictor, TrainBatch, loss
from .seeding import make_rng

CRITERIA = ("magnitude", "taylor", "gradient-flow")


@dataclass
class ImportanceScores:
    criterion: str
    per_param: dict[str, np.ndarray]

    def __post_init__(self):
        for name, arr in self.per_param.items():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite scores for {name!r}")

    def pooled(self) -> np.ndarray:
        """All scores as one vector, parameters in sorted-name order."""
        names = sorted(self.per_param)
        return np.concatenate([self.per_param[n].ravel() for n in names])


def score_batches(model: NoisePredictor, sched: DiffusionSchedule,
                  data: np.ndarray, seed: int, n_batches: int = 4,
                  batch_size: int = 256) -> list[TrainBatch]:
    """Score-estimation batches with timesteps stratified over [0, T)."""
    t = ((np.arange(batch_size) + 0.5) * sched.T / batch_size).astype(np.int64)
    out = []
    for i in range(n_batches):
        rng = make_rng(seed, "score-batch", i)
        idx = rng.integers(0, data.shape[0], size=batch_size)
        eps = rng.standard_normal((batch_size, data.shape[1]))
        out.append(TrainBatch(x0=data[idx], t=t, eps=eps))
    return out


def magnitude_scores(model: NoisePredictor) -> ImportanceScores:
    per = {p.name: np.abs(p.effective()) for p in model.masked_params()}
    return ImportanceScores(criterion="magnitude", per_param=per)


def taylor_scores_from_record(
    record, inputs, names, values: dict | None = None
) -> dict[str, np.ndarray]:
    """|effective weight * dL/dw| for one loss record.

    ``values`` are node values already computed for ``inputs`` (see
    ``engine.gradient``).
    """
    grads = engine.gradient(record, inputs, names, values)
    return {n: np.abs(np.asarray(inputs[n]) * grads[n]) for n in names}


def gradient_flow_scores_from_record(record, inputs, names,
                                     hvp_method: str = "exact",
                                     prefactor: dict | None = None,
                                     values: dict | None = None) -> dict:
    """(effective weight) * (H g) for one loss record; signed.

    H and g are taken at the weights fed through ``inputs``; ``prefactor``
    (the effective weights) defaults to those same values. Scoring a masked
    model feeds the dense weights and passes weight*mask as the prefactor,
    so a mask of p scales a unit's score by exactly p and mask changes do
    not feed back into the curvature measurement. ``values`` are node values
    already computed for ``inputs``; the gradient extends them and the HVP
    reuses the forward and gradient nodes.
    """
    values = {} if values is None else values
    grads = engine.gradient(record, inputs, names, values)
    hg = engine.hessian_vector_product(record, inputs, names, grads,
                                       method=hvp_method, values=values)
    pre = prefactor or {n: np.asarray(inputs[n]) for n in names}
    return {n: np.asarray(pre[n]) * hg[n] for n in names}


def taylor_scores(model: NoisePredictor, sched: DiffusionSchedule,
                  batches: list[TrainBatch]) -> ImportanceScores:
    """Mean over batches of |effective weight * dL/dw|."""
    if not batches:
        raise ValueError("need at least one batch")
    names = model.weight_names
    acc = {n: np.zeros_like(model.params[n]) for n in names}
    for batch in batches:
        ctx = loss(model, sched, batch)
        per = taylor_scores_from_record(ctx.record, ctx.inputs, names,
                                        ctx.values)
        # free this batch's node values before the next forward
        del ctx
        for n in names:
            acc[n] += per[n]
    per = {n: acc[n] / len(batches) for n in names}
    return ImportanceScores(criterion="taylor", per_param=per)


def gradient_flow_scores(model: NoisePredictor, sched: DiffusionSchedule,
                         batches: list[TrainBatch],
                         hvp_method: str = "exact") -> ImportanceScores:
    """Mean over batches of (effective weight) * (H g); signed.

    H g is measured on the dense network at the current stored weights; the
    mask enters only through the effective-weight prefactor.
    """
    if not batches:
        raise ValueError("need at least one batch")
    names = model.weight_names
    prefactor = {n: model.masked[n].effective() for n in names}
    acc = {n: np.zeros_like(model.params[n]) for n in names}
    for batch in batches:
        ctx = loss(model, sched, batch, masked=False)
        per = gradient_flow_scores_from_record(ctx.record, ctx.inputs, names,
                                               hvp_method, prefactor,
                                               ctx.values)
        del ctx
        for n in names:
            acc[n] += per[n]
    per = {n: acc[n] / len(batches) for n in names}
    return ImportanceScores(criterion="gradient-flow", per_param=per)


def gradient_flow_delta_from_record(record, inputs, names,
                                    values: dict | None = None) -> float:
    grads = engine.gradient(record, inputs, names, values)
    return float(sum(np.sum(g * g) for g in grads.values()))


def gradient_flow_delta(model: NoisePredictor, sched: DiffusionSchedule,
                        batch: TrainBatch) -> float:
    """Squared gradient norm of the loss over all trainable parameters."""
    ctx = loss(model, sched, batch)
    return gradient_flow_delta_from_record(ctx.record, ctx.inputs,
                                           list(model.params), ctx.values)


def compute_scores(criterion: str, model: NoisePredictor,
                   sched: DiffusionSchedule, data: np.ndarray, seed: int,
                   n_batches: int = 4, batch_size: int = 256,
                   hvp_method: str = "exact") -> ImportanceScores:
    """Uniform entry point used by the pruning driver."""
    if criterion == "magnitude":
        return magnitude_scores(model)
    batches = score_batches(model, sched, data, seed, n_batches, batch_size)
    if criterion == "taylor":
        return taylor_scores(model, sched, batches)
    if criterion == "gradient-flow":
        return gradient_flow_scores(model, sched, batches, hvp_method)
    raise ValueError(f"unknown criterion {criterion!r}")
