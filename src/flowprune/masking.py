"""Mask tensors over model weights: hard, soft and row-group pruning.

Masks are two-valued per update: pruned units carry the current soft value
``p`` and kept units carry 1. Masks are recomputed from scratch on every
update, so a soft-pruned unit whose score recovers is restored -- that
recoverability is what distinguishes soft from permanent pruning. The soft
sparsity of a mask set is the fraction of entries equal to ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRANULARITIES = ("element", "row-group")

# Mask entries are compared against p at this absolute tolerance.
MASK_ATOL = 1e-12


@dataclass
class MaskedParam:
    """A weight tensor with a same-shape mask in [0, 1]."""

    name: str
    weights: np.ndarray
    mask: np.ndarray

    def effective(self) -> np.ndarray:
        return self.weights * self.mask


@dataclass
class MaskState:
    """Result of one mask update."""

    p_current: float
    kept: dict[str, np.ndarray] = field(default_factory=dict)
    pruned_units: int = 0
    total_units: int = 0


def _unit_scores(score: np.ndarray, granularity: str) -> np.ndarray:
    """Per-unit scores: elements as-is, rows as member sums."""
    if granularity == "element":
        return score.ravel()
    if granularity == "row-group":
        return score.sum(axis=1)
    raise ValueError(f"unknown granularity {granularity!r}")


def _write_mask(param: MaskedParam, keep_units: np.ndarray, p: float, granularity: str):
    if granularity == "element":
        mask = np.where(keep_units.reshape(param.weights.shape), 1.0, p)
    else:
        mask = np.where(keep_units[:, None], 1.0, p)
        mask = np.broadcast_to(mask, param.weights.shape).copy()
    param.mask = np.ascontiguousarray(mask, dtype=np.float64)


def soft_sparsity(params: list[MaskedParam], p: float) -> float:
    """Fraction of mask entries equal to ``p`` across all params.

    Degenerate when p == 1 with nothing pruned: every kept entry also equals
    p, so the value saturates at 1 regardless of the pruned set.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    total = sum(par.mask.size for par in params)
    if total == 0:
        return 0.0
    hits = sum(
        int(np.count_nonzero(np.abs(par.mask - p) <= MASK_ATOL)) for par in params
    )
    return hits / total


def _ranked_keep(unit_scores: dict[str, np.ndarray],
                 s_t: float) -> dict[str, np.ndarray]:
    """Boolean keep array per parameter from one pooled ranking.

    The lowest floor(s_t * units) units are dropped in ascending
    (score, name, index) order, the tie rule: pooling in name order and
    sorting stably leaves equal scores in (name, index) order.
    """
    names = sorted(unit_scores)
    if not names:
        return {}
    pooled = np.concatenate([unit_scores[n] for n in names])
    order = np.argsort(pooled, kind="stable")
    keep = np.ones(pooled.size, dtype=bool)
    keep[order[: int(np.floor(s_t * pooled.size))]] = False
    bounds = np.cumsum([unit_scores[n].size for n in names])[:-1]
    return dict(zip(names, np.split(keep, bounds)))


def apply_mask_update(
    params: list[MaskedParam],
    scores: dict[str, np.ndarray],
    s_t: float,
    p_t: float,
    granularity: str = "element",
    per_layer: bool = False,
    exclude: tuple[str, ...] = (),
) -> MaskState:
    """Recompute all masks: lowest-scoring floor(s_t * units) get ``p_t``.

    Masks are rebuilt from scratch, so any previously pruned unit whose score
    recovers is restored to 1.

    Ranking is global by default (one pooled score vector); ``per_layer``
    ranks within each parameter instead. ``exclude`` names parameters whose
    mask is pinned to all-ones (they drop out of the unit universe).
    """
    if not 0.0 <= s_t <= 1.0:
        raise ValueError("s_t must lie in [0, 1]")
    if not 0.0 <= p_t <= 1.0:
        raise ValueError("p_t must lie in [0, 1]")
    active = [p for p in params if p.name not in exclude]
    for par in active:
        if par.name not in scores:
            raise KeyError(f"scores missing parameter {par.name!r}")
        if np.asarray(scores[par.name]).shape != par.weights.shape:
            raise ValueError(f"score shape mismatch for {par.name!r}")

    state = MaskState(p_current=float(p_t))
    for par in params:
        if par.name in exclude:
            par.mask = np.ones_like(par.weights)

    units = {
        par.name: _unit_scores(np.asarray(scores[par.name], dtype=np.float64),
                               granularity)
        for par in active
    }
    if per_layer:
        keep = {n: _ranked_keep({n: u}, s_t)[n] for n, u in units.items()}
    else:
        keep = _ranked_keep(units, s_t)

    for par in active:
        _write_mask(par, keep[par.name], p_t, granularity)
        state.kept[par.name] = keep[par.name]
    state.pruned_units = sum(int(np.count_nonzero(~k)) for k in keep.values())
    state.total_units = sum(k.size for k in keep.values())
    return state


def nonzero_params(params: list[MaskedParam], always_dense: int = 0) -> int:
    """Count of weights whose mask is nonzero, plus unmaskable params."""
    n = sum(int(np.count_nonzero(np.abs(par.mask) > MASK_ATOL)) for par in params)
    return n + always_dense


def dense_params(params: list[MaskedParam], always_dense: int = 0) -> int:
    return sum(par.mask.size for par in params) + always_dense
