"""The (s_t, p_t) trajectory, the prune-train loop, and the energy diagnostic.

Mask iterations are decoupled from weight updates: between consecutive mask
updates the model trains for ``interval`` steps with the current masks
applied. Over ``m_iters`` mask iterations the schedule ramps sparsity s_t
from 0 to s while the soft mask value p_t decays from 1 to 0 (mode
``progressive-soft``); the ablation modes pin one or both of these. Every
update ranks on the caller's score batches, and the loop returns one
diagnostics row per update, keyed by ``DIAG_FIELDS`` (the ``diagnostics.csv``
columns); its ``delta_e`` is the energy-flow step length, read from the units
that update counted. A one-shot row-group hard prune on the same batches then
fixes the final mask, and fine-tuning trains only the surviving weights for
the plan's remaining steps. It trains the compacted network, so a row-group
prune makes every finetune step cheaper; the units the prune removed keep
their biases, and the next layer keeps its columns reading them, at their
hard-prune values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CRITERIA, compute_scores, gradient_flow_delta
from .diffusion import Adam, DiffusionSchedule, NoisePredictor, TrainBatch, train
from .masking import GRANULARITIES, MaskState, apply_mask_update

DIAG_FIELDS = ["iteration", "loss", "grad_flow_delta", "delta_e", "s_t", "p_t",
               "churn"]

# mode -> (s_t ramps from 0 to s, p_t ramps from 1 to 0) over n_iters; a
# schedule that does not ramp sits at s_t = s or p_t = 0 from the start
MODES = {
    "one-shot": (False, False),
    "iterative": (False, False),
    "iterative+soft": (False, True),
    "iterative+progressive": (True, False),
    "progressive-soft": (True, True),
}


@dataclass
class PrunePlan:
    """Inputs of the prune-train loop.

    ``total_steps`` is the weight-update budget K shared by the prune stage
    and fine-tuning; the prune stage consumes m_iters * interval of it.
    Both stages train on batches of ``train_batch``. The target sparsity s
    lies in (0, 1).
    """

    s: float
    total_steps: int
    m_iters: int
    n_iters: int
    interval: int = 100
    criterion: str = "gradient-flow"
    mode: str = "progressive-soft"
    granularity: str = "element"
    score_n_batches: int = 4
    score_batch_size: int = 256
    train_batch: int = 128

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"target sparsity s must lie in (0, 1), got {self.s}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        for what, least in (("m_iters", 0), ("n_iters", 0), ("interval", 1),
                            ("score_n_batches", 1), ("score_batch_size", 1),
                            ("train_batch", 1)):
            if getattr(self, what) < least:
                raise ValueError(f"{what} must be at least {least}, got "
                                 f"{getattr(self, what)}")
        if self.mode == "one-shot" and self.m_iters != 0:
            raise ValueError("one-shot mode requires m_iters == 0")
        if self.mode != "one-shot" and self.m_iters > 0:
            if not 0 < self.n_iters <= self.m_iters:
                raise ValueError("need 0 < n_iters <= m_iters")
        if self.m_iters * self.interval > self.total_steps:
            raise ValueError("prune stage exceeds the total step budget")

    @property
    def final_criterion(self) -> str:
        """The final hard prune's criterion: Taylor after an element-wise
        soft loop, the plan's own criterion after a row-group one."""
        return "taylor" if self.granularity == "element" else self.criterion

    @property
    def finetune_steps(self) -> int:
        return self.total_steps - self.m_iters * self.interval


@dataclass(frozen=True)
class ScheduleStep:
    s_t: float
    p_t: float


def schedule_at(plan: PrunePlan, t: int) -> ScheduleStep:
    """Current (s_t, p_t) at mask iteration t for the plan's mode."""
    if not 0 <= t <= plan.m_iters:
        raise ValueError(f"iteration {t} outside [0, {plan.m_iters}]")
    ramp_s, ramp_p = MODES[plan.mode]
    ramping = t < plan.n_iters
    s_t = t * plan.s / plan.n_iters if ramp_s and ramping else plan.s
    p_t = 1.0 - t / plan.n_iters if ramp_p and ramping else 0.0
    return ScheduleStep(s_t, p_t)


def energy_flow(state: MaskState) -> float:
    """Norm of the mask-space descent step of one mask update: each kept
    unit contributes 1, each soft-pruned unit 1 - p.

    The counts are the update's own: entries for element units, rows of the
    ranked parameters for row groups. The norm depends only on them, not on
    which units the ranking picks.
    """
    kept = state.total_units - state.pruned_units
    return float(np.sqrt(kept + state.pruned_units
                         * (1.0 - state.p_current) ** 2))


def run_progressive_soft(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    data: np.ndarray,
    plan: PrunePlan,
    seed: int,
    lr: float,
    batches: list[TrainBatch],
    diag_batch: TrainBatch,
    after_update=None,
) -> tuple[list[dict], MaskState | None]:
    """Alternate weight training and mask updates for m_iters iterations.

    The weights train with Adam at learning rate ``lr``. Every mask update
    ranks on the score set ``batches`` and every ``grad_flow_delta`` reads
    ``diag_batch``, so churn and the delta follow the model, not resampling.
    Returns the diagnostics rows (one per mask update, keyed by
    ``DIAG_FIELDS``) and the last mask state. ``after_update(t)``, if
    given, runs after mask update t, and what it returns is ignored.
    """
    rows: list[dict] = []
    opt = Adam(model.params, lr)
    state: MaskState | None = None
    prev_kept = None
    for t in range(1, plan.m_iters + 1):
        trace = train(
            model, sched, data, steps=plan.interval, opt=opt, seed=seed,
            stage="prune-train", start_step=(t - 1) * plan.interval,
            batch_size=plan.train_batch,
            # pruned weights keep training (recoverable, soft-pruning
            # style); finetune freezes them
            grad_mode="dense",
        )
        step = schedule_at(plan, t)
        # scores go straight in, so none outlive the update
        state = _update_masks(
            model, compute_scores(plan.criterion, model, sched, batches),
            step.s_t, step.p_t, plan.granularity)
        # units whose kept/pruned status changed since the last update
        churn = state.pruned_units if prev_kept is None else sum(
            int(np.count_nonzero(prev_kept[n] != k))
            for n, k in state.kept.items()
        )
        prev_kept = state.kept
        rows.append({
            "iteration": t,
            "loss": trace[-1][1],
            "grad_flow_delta": gradient_flow_delta(model, sched, diag_batch),
            "delta_e": energy_flow(state),
            "s_t": step.s_t,
            "p_t": step.p_t,
            "churn": churn,
        })
        if after_update is not None:
            after_update(t)
    return rows, state


def _update_masks(model: NoisePredictor, scores: dict[str, np.ndarray],
                  s_t: float, p_t: float, granularity: str) -> MaskState:
    """Mask update under the grouped-prune policy: group-granular pruning
    skips the output projection and ranks per layer; element pruning ranks
    globally."""
    grouped = granularity != "element"
    return apply_mask_update(
        model.masks, scores, s_t, p_t, granularity=granularity,
        exclude=model.output_weights if grouped else (),
    )


def final_hard_prune(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    plan: PrunePlan,
    batches: list[TrainBatch],
) -> tuple[MaskState, dict]:
    """One-shot hard prune at sparsity s; masks are {0,1} afterwards.

    Uses the plan's final criterion on row groups, ranked within each layer
    on ``batches``, the score set the soft loop ranked on; the output
    projection stays dense. Returns the mask state plus a diagnostic with
    the kept-set overlap against the pre-existing mask.
    """
    before = {n: np.abs(m) > 0.5 for n, m in model.masks.items()}
    scores = compute_scores(plan.final_criterion, model, sched, batches)
    state = _update_masks(model, scores, plan.s, 0.0, "row-group")
    after_kept = sum(
        int(np.count_nonzero((np.abs(m) > 0.5) & before[n]))
        for n, m in model.masks.items()
    )
    total_kept = sum(
        int(np.count_nonzero(np.abs(m) > 0.5)) for m in model.masks.values()
    )
    overlap = after_kept / total_kept if total_kept else 1.0
    return state, {"kept_overlap_with_prior_mask": overlap}


def finetune(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    data: np.ndarray,
    plan: PrunePlan,
    seed: int,
    lr: float,
) -> list[tuple[int, float]]:
    """Train ``model.compact()`` for ``plan.finetune_steps`` with Adam at
    learning rate ``lr``, so a step costs what the pruned network computes,
    then write it back into ``model``.

    The removed units' biases, and the next layer's columns reading them,
    stay frozen at their hard-prune values: they only add a constant to the
    next layer's pre-activation, which that layer's bias can absorb.
    Zero-mask entries receive zero gradient, and a fresh optimizer keeps
    them bit-identical throughout.
    """
    small = model.compact()
    opt = Adam(small.params, lr)
    trace = train(
        small, sched, data, steps=plan.finetune_steps, opt=opt, seed=seed,
        stage="finetune", batch_size=plan.train_batch,
    )
    if small is not model:
        small.write_back()
    return trace
