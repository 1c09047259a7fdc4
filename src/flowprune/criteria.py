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

``compute_scores`` is the one scoring driver. Magnitude reads only the
weights; Taylor and gradient-flow average the record-level scorers over the
batches the caller passes, which ``score_batches`` draws with timesteps
stratified evenly over [0, T), so the batch seed fully determines the
scores. ``pipeline.prune_run`` draws one such set per run, and every mask
update and the hard prune of that run score on it.

The model trains in float32, but ``compute_scores`` and
``gradient_flow_delta`` work on a float64 copy of it
(``NoisePredictor.float64``), dropped when they return: scores, the loss
they read, its gradient and the HVP are float64, and the model's own arrays
are left as they were. Each batch is one engine replay that frees every
node after its last use: H g for gradient-flow, the gradient for Taylor
and the gradient norm. No batch keeps its forward values for a later call.
"""

from __future__ import annotations

import numpy as np

from . import engine
# ``loss`` is unused here but stays bound: perfbench wraps every binding
from .diffusion import (DiffusionSchedule, NoisePredictor, TrainBatch, loss,
                        loss_inputs)
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


def taylor_scores_from_record(record, inputs, names) -> dict[str, np.ndarray]:
    """|effective weight * dL/dw| for one loss record."""
    grads = engine.gradient(record, inputs, names)
    return {n: np.abs(np.asarray(inputs[n]) * grads[n]) for n in names}


def gradient_flow_scores_from_record(record, inputs, names,
                                     prefactor: dict | None = None) -> dict:
    """(effective weight) * (H g) for one loss record; signed.

    H and g are taken at the weights fed through ``inputs``; ``prefactor``
    (the effective weights) defaults to those same values. Scoring a masked
    model feeds the dense weights and passes weight*mask as the prefactor,
    so a mask of p scales a unit's score by exactly p and mask changes do
    not feed back into the curvature measurement. H g comes from one
    replay of forward, gradient and double backward.
    """
    hg = engine.hessian_vector_product(record, inputs, names)
    pre = prefactor or {n: np.asarray(inputs[n]) for n in names}
    return {n: np.asarray(pre[n]) * hg[n] for n in names}


def gradient_flow_delta_from_record(record, inputs, names) -> float:
    grads = engine.gradient(record, inputs, names)
    return float(sum(np.sum(g * g) for g in grads.values()))


def gradient_flow_delta(model: NoisePredictor, sched: DiffusionSchedule,
                        batch: TrainBatch) -> float:
    """Squared gradient norm of the loss over all trainable parameters, in
    float64."""
    rec, feed = loss_inputs(model.float64(), sched, batch)
    return gradient_flow_delta_from_record(rec, feed, list(model.params))


def compute_scores(criterion: str, model: NoisePredictor,
                   sched: DiffusionSchedule, batches: list[TrainBatch]
                   ) -> dict[str, np.ndarray]:
    """Per-weight scores of one criterion, the pruning driver's entry point.

    Scores are float64, computed on a float64 copy of ``model``.
    Magnitude is |effective weight|. Taylor and gradient-flow average their
    record scorers over ``batches``: Taylor on the masked loss,
    gradient-flow on the dense loss with the effective weights as
    prefactor, so H g is measured at the stored weights and the mask enters
    only through the prefactor.

    Raises ``ValueError`` for an unknown criterion, for Taylor or
    gradient-flow without batches, and when every score is zero, since no
    ranking can then be read from them; ``FloatingPointError`` for a
    non-finite score.
    """
    model = model.float64()
    if criterion == "magnitude":
        scores = {n: np.abs(model.params[n] * m)
                  for n, m in model.masks.items()}
    elif criterion in CRITERIA:
        if not batches:
            raise ValueError("need at least one batch")
        names = model.weight_names
        taylor = criterion == "taylor"
        prefactor = None if taylor else {
            n: model.params[n] * model.masks[n] for n in names}
        scores = {n: np.zeros_like(model.params[n]) for n in names}
        for batch in batches:
            rec, feed = loss_inputs(model, sched, batch, masked=taylor)
            if taylor:
                per = taylor_scores_from_record(rec, feed, names)
            else:
                per = gradient_flow_scores_from_record(rec, feed, names,
                                                       prefactor=prefactor)
            for n in names:
                scores[n] += per[n]
        scores = {n: scores[n] / len(batches) for n in names}
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    for name, arr in scores.items():
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite scores for {name!r}")
    if not any(np.any(arr) for arr in scores.values()):
        raise ValueError(f"{criterion} scores are all zero")
    return scores
