"""Importance criteria: magnitude, Taylor, and gradient-flow scores.

The gradient-flow score of a weight is (effective weight) * (H g), where H
and g are the Hessian and gradient of the denoising loss with respect to the
weight matrices. Scores are signed and ranked ascending: the most negative
units prune first, since removing a unit with importance I shifts the
squared gradient norm by about -2I, so negative-I units increase gradient
flow when removed. Magnitude and Taylor scores are the usual absolute-value
baselines.

Sign convention: the score here is theta * Hg, the negation of GraSP's
S(-theta) = -theta * Hg (Wang, Zhang and Grosse, ICLR 2020, arXiv
2002.07376). The ascending ranking here therefore removes first the weights
GraSP removes first, which are GraSP's highest scores. Acceptance criterion 3
checks the sign by removing the lowest-scored weights one at a time.

All criteria average over a fixed set of batches whose timesteps are
stratified evenly over [0, T); the batch seed fully determines the scores.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import engine
from .diffusion import DiffusionSchedule, NoisePredictor, TrainBatch, loss
from .seeding import make_rng

CRITERIA = ("magnitude", "taylor", "gradient-flow")


def score_batches(sched: DiffusionSchedule, data: np.ndarray, seed: int,
                  n_batches: int = 4, batch_size: int = 256
                  ) -> list[TrainBatch]:
    """Score-estimation batches with timesteps stratified over [0, T)."""
    t = ((np.arange(batch_size) + 0.5) * sched.T / batch_size).astype(np.int64)
    out = []
    for i in range(n_batches):
        rng = make_rng(seed, "score-batch", i)
        idx = rng.integers(0, data.shape[0], size=batch_size)
        eps = rng.standard_normal((batch_size, data.shape[1]))
        out.append(TrainBatch(x0=data[idx], t=t, eps=eps))
    return out


def magnitude_scores(model: NoisePredictor) -> dict[str, np.ndarray]:
    """|effective weight| per weight."""
    return {n: np.abs(model.params[n] * m) for n, m in model.masks.items()}


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
                                       values=values)
    pre = prefactor or {n: np.asarray(inputs[n]) for n in names}
    return {n: np.asarray(pre[n]) * hg[n] for n in names}


def _batch_mean(model: NoisePredictor, sched: DiffusionSchedule,
                batches: list[TrainBatch], masked: bool, score) -> dict:
    """Mean over batches of a per-record scorer's per-weight scores, each
    batch's loss taken on the masked or the dense forward."""
    if not batches:
        raise ValueError("need at least one batch")
    names = model.weight_names
    acc = {n: np.zeros_like(model.params[n]) for n in names}
    for batch in batches:
        ctx = loss(model, sched, batch, masked=masked)
        per = score(ctx.record, ctx.inputs, names, values=ctx.values)
        # free this batch's node values before the next forward
        del ctx
        for n in names:
            acc[n] += per[n]
    return {n: acc[n] / len(batches) for n in names}


def taylor_scores(model: NoisePredictor, sched: DiffusionSchedule,
                  batches: list[TrainBatch]) -> dict[str, np.ndarray]:
    """Mean over batches of |effective weight * dL/dw|."""
    return _batch_mean(model, sched, batches, True, taylor_scores_from_record)


def gradient_flow_scores(model: NoisePredictor, sched: DiffusionSchedule,
                         batches: list[TrainBatch]) -> dict[str, np.ndarray]:
    """Mean over batches of (effective weight) * (H g); signed.

    H g is measured on the dense network at the current stored weights; the
    mask enters only through the effective-weight prefactor.
    """
    prefactor = {n: model.params[n] * m for n, m in model.masks.items()}
    score = partial(gradient_flow_scores_from_record, prefactor=prefactor)
    return _batch_mean(model, sched, batches, False, score)


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
                   n_batches: int = 4, batch_size: int = 256
                   ) -> dict[str, np.ndarray]:
    """Per-weight scores of one criterion, the pruning driver's entry point.

    Raises ``FloatingPointError`` for a non-finite score and ``ValueError``
    when every score is zero, since no ranking can then be read from them.
    """
    if criterion == "magnitude":
        scores = magnitude_scores(model)
    elif criterion in CRITERIA:
        batches = score_batches(sched, data, seed, n_batches, batch_size)
        scorer = taylor_scores if criterion == "taylor" else gradient_flow_scores
        scores = scorer(model, sched, batches)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    for name, arr in scores.items():
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite scores for {name!r}")
    if not any(np.any(arr) for arr in scores.values()):
        raise ValueError(f"{criterion} scores are all zero")
    return scores
