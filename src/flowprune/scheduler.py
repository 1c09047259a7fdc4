"""The (s_t, p_t) trajectory, the prune-train loop, and the energy diagnostic.

Mask iterations are decoupled from weight updates: between consecutive mask
updates the model trains for ``interval`` steps with the current masks
applied. Over ``m_iters`` mask iterations the schedule ramps sparsity s_t
from 0 to s while the soft mask value p_t decays from 1 to 0 (mode
``progressive-soft``); the ablation modes pin one or both of these. After the
loop a one-shot hard prune at the configured granularity fixes the final
mask, and fine-tuning trains only the surviving weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    CRITERIA,
    ImportanceScores,
    compute_scores,
    gradient_flow_delta,
    score_batches,
)
from .diffusion import Adam, DiffusionSchedule, NoisePredictor, OptimizerConfig, train
from .masking import MaskState, apply_mask_update

MODES = (
    "one-shot",
    "iterative",
    "iterative+soft",
    "iterative+progressive",
    "progressive-soft",
)


@dataclass
class PrunePlan:
    """Inputs of the prune-train loop.

    ``total_steps`` is the weight-update budget K shared by the prune stage
    and fine-tuning; the prune stage consumes m_iters * interval of it.
    s == 0 is allowed as an explicit identity run.
    """

    s: float
    total_steps: int
    m_iters: int
    n_iters: int
    interval: int = 100
    criterion: str = "gradient-flow"
    mode: str = "progressive-soft"
    granularity: str = "element"
    final_criterion: str = "taylor"
    final_granularity: str = "row-group"
    final_per_layer: bool = True
    per_layer: bool = False
    hvp_method: str = "exact"
    score_n_batches: int = 4
    score_batch_size: int = 256
    # prune-stage weight updates: "dense" lets pruned weights keep training
    # (recoverable, soft-pruning style); finetune always freezes them
    train_grad: str = "dense"

    def __post_init__(self):
        if not 0.0 <= self.s < 1.0:
            raise ValueError("target sparsity must lie in [0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.mode == "one-shot" and self.m_iters != 0:
            raise ValueError("one-shot mode requires m_iters == 0")
        if self.mode != "one-shot" and self.m_iters > 0:
            if not 0 < self.n_iters <= self.m_iters:
                raise ValueError("need 0 < n_iters <= m_iters")
        if self.m_iters * self.interval > self.total_steps:
            raise ValueError("prune stage exceeds the total step budget")

    @property
    def finetune_steps(self) -> int:
        return self.total_steps - self.m_iters * self.interval


@dataclass(frozen=True)
class ScheduleStep:
    t: int
    s_t: float
    p_t: float


def schedule_at(plan: PrunePlan, t: int) -> ScheduleStep:
    """Current (s_t, p_t) at mask iteration t for the plan's mode."""
    if not 0 <= t <= max(plan.m_iters, 0):
        raise ValueError(f"iteration {t} outside [0, {plan.m_iters}]")
    if plan.mode == "one-shot":
        return ScheduleStep(t, plan.s, 0.0)
    ramp_s = t * plan.s / plan.n_iters if t < plan.n_iters else plan.s
    ramp_p = 1.0 - t / plan.n_iters if t < plan.n_iters else 0.0
    if plan.mode == "iterative":
        return ScheduleStep(t, plan.s, 0.0)
    if plan.mode == "iterative+soft":
        return ScheduleStep(t, plan.s, ramp_p)
    if plan.mode == "iterative+progressive":
        return ScheduleStep(t, ramp_s, 0.0)
    return ScheduleStep(t, ramp_s, ramp_p)  # progressive-soft


def energy_flow(scores: ImportanceScores, s_t: float, p_t: float) -> float:
    """Norm of the mask-space descent step: kept units contribute 1,
    soft-pruned units contribute 1 - p_t.

    The mask update soft-prunes floor(s_t * d) of the d units, so the norm
    depends only on that count, not on which units the ranking picks.
    """
    pooled = scores.pooled()
    if float(np.linalg.norm(pooled)) <= 0.0:
        raise ValueError("energy_flow needs a nonzero score vector")
    d = pooled.size
    n_prune = int(np.floor(s_t * d))
    return float(np.sqrt((d - n_prune) + n_prune * (1.0 - p_t) ** 2))


@dataclass
class DiagRecord:
    t: int
    s_t: float
    p_t: float
    loss: float
    grad_delta: float
    delta_e: float
    churn: int


@dataclass
class EnergyDiagnostics:
    records: list[DiagRecord] = field(default_factory=list)
    quality_trace: list[tuple[int, float]] = field(default_factory=list)

    def rows(self) -> list[dict]:
        return [
            {
                "iteration": r.t,
                "loss": r.loss,
                "grad_flow_delta": r.grad_delta,
                "delta_e": r.delta_e,
                "s_t": r.s_t,
                "p_t": r.p_t,
                "churn": r.churn,
            }
            for r in self.records
        ]


def run_progressive_soft(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    data: np.ndarray,
    plan: PrunePlan,
    seed: int,
    opt_config: OptimizerConfig | None = None,
    quality_eval=None,
) -> tuple[EnergyDiagnostics, MaskState | None]:
    """Alternate weight training and mask updates for m_iters iterations.

    ``quality_eval(model)``, when given, is called after every mask update
    and its value recorded in the quality trace (one row per iteration).
    """
    diags = EnergyDiagnostics()
    opt = Adam(model.params, opt_config or OptimizerConfig())
    state: MaskState | None = None
    prev_kept = None
    for t in range(1, plan.m_iters + 1):
        trace = train(
            model, sched, data, steps=plan.interval, opt=opt, seed=seed,
            stage="prune-train", start_step=(t - 1) * plan.interval,
            grad_mode=plan.train_grad,
        )
        step = schedule_at(plan, t)
        # one fixed batch set per run: consecutive updates then rank with
        # correlated estimates and mask churn reflects model drift, not
        # resampling noise
        scores = compute_scores(
            plan.criterion, model, sched, data, seed=_score_seed(seed, 0),
            n_batches=plan.score_n_batches, batch_size=plan.score_batch_size,
            hvp_method=plan.hvp_method,
        )
        state = _update_masks(model, scores, step.s_t, step.p_t,
                              plan.granularity, plan.per_layer,
                              grouped_per_layer=True)
        # units whose kept/pruned status changed since the last update
        churn = state.pruned_units if prev_kept is None else sum(
            int(np.count_nonzero(prev_kept[n] != k))
            for n, k in state.kept.items()
        )
        prev_kept = state.kept
        diag_batch = score_batches(
            model, sched, data, _score_seed(seed, t), n_batches=1,
            batch_size=plan.score_batch_size,
        )[0]
        diags.records.append(
            DiagRecord(
                t=t, s_t=step.s_t, p_t=step.p_t, loss=trace[-1][1],
                grad_delta=gradient_flow_delta(model, sched, diag_batch),
                delta_e=energy_flow(scores, step.s_t, step.p_t),
                churn=churn,
            )
        )
        if quality_eval is not None:
            diags.quality_trace.append((t, float(quality_eval(model))))
    return diags, state


def _score_seed(seed: int, t: int) -> int:
    return (int(seed) * 1_000_003 + t) & 0x7FFFFFFF


def _update_masks(model: NoisePredictor, scores: ImportanceScores, s_t: float,
                  p_t: float, granularity: str, per_layer: bool,
                  grouped_per_layer: bool) -> MaskState:
    """Mask update under the grouped-prune policy: group-granular pruning
    skips the output projection and ranks per layer when
    ``grouped_per_layer``; element pruning follows ``per_layer``."""
    grouped = granularity != "element"
    return apply_mask_update(
        model.masked_params(), scores.per_param, s_t, p_t,
        granularity=granularity,
        per_layer=grouped_per_layer if grouped else per_layer,
        exclude=model.output_weight_names if grouped else (),
    )


def final_hard_prune(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    data: np.ndarray,
    plan: PrunePlan,
    seed: int,
) -> tuple[MaskState, dict]:
    """One-shot hard prune at sparsity s; masks are {0,1} afterwards.

    Uses the plan's final criterion (Taylor by default) at the final
    granularity. Group-granular pruning ranks within each layer and skips the
    output projection. Returns the mask state plus a diagnostic with the
    kept-set overlap against the pre-existing mask.
    """
    before = {
        p.name: np.abs(p.mask) > 0.5 for p in model.masked_params()
    }
    scores = compute_scores(
        plan.final_criterion, model, sched, data, seed=_score_seed(seed, 0),
        n_batches=plan.score_n_batches, batch_size=plan.score_batch_size,
        hvp_method=plan.hvp_method,
    )
    state = _update_masks(model, scores, plan.s, 0.0, plan.final_granularity,
                          plan.per_layer,
                          grouped_per_layer=plan.final_per_layer)
    after_kept = sum(
        int(np.count_nonzero((np.abs(p.mask) > 0.5) & before[p.name]))
        for p in model.masked_params()
    )
    total_kept = sum(
        int(np.count_nonzero(np.abs(p.mask) > 0.5)) for p in model.masked_params()
    )
    overlap = after_kept / total_kept if total_kept else 1.0
    return state, {"kept_overlap_with_prior_mask": overlap}


def finetune(
    model: NoisePredictor,
    sched: DiffusionSchedule,
    data: np.ndarray,
    plan: PrunePlan,
    seed: int,
    opt_config: OptimizerConfig | None = None,
    steps: int | None = None,
    start_step: int = 0,
) -> list[tuple[int, float]]:
    """Train the pruned model; zero-mask units receive zero gradient, and a
    fresh optimizer keeps their weights bit-identical throughout."""
    opt = Adam(model.params, opt_config or OptimizerConfig())
    n = plan.finetune_steps if steps is None else steps
    return train(
        model, sched, data, steps=n, opt=opt, seed=seed, stage="finetune",
        start_step=start_step,
    )
