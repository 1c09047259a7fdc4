"""Mask updates over a model's weights: hard, soft and row-group pruning.

A mask set is a dict from weight name to a same-shape array in [0, 1], kept
beside the raw weights (``NoisePredictor.masks``); the forward pass reads
weight * mask. Masks are two-valued per update: pruned units carry the
current soft value ``p`` and kept units carry 1. Masks are recomputed from
scratch on every update, so a soft-pruned unit whose score recovers is
restored -- that recoverability is what distinguishes soft from permanent
pruning. The soft sparsity of a mask set is the fraction of entries equal to
``p``.

One grouping rule serves both granularities: a parameter is viewed as
[units, group], the group one entry for element units and one row for row
groups. A unit's score is the sum over its group, and its mask value is
repeated across its group. Each update's ``MaskState`` counts the units it
ranked and pruned; the energy diagnostic reads those counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRANULARITIES = ("element", "row-group")

# Mask entries are compared against p at this absolute tolerance.
MASK_ATOL = 1e-12


@dataclass
class MaskState:
    """Result of one mask update: the pruned units' value, each ranked
    parameter's keep flag per unit, and the pruned and ranked unit counts."""

    p_current: float
    kept: dict[str, np.ndarray]
    pruned_units: int
    total_units: int


def _group_size(shape: tuple, granularity: str) -> int:
    """Entries per unit under the grouping rule."""
    if granularity == "element":
        return 1
    if granularity == "row-group":
        return int(np.prod(shape[1:]))
    raise ValueError(f"unknown granularity {granularity!r}")


def soft_sparsity(masks: dict[str, np.ndarray], p: float) -> float:
    """Fraction of mask entries equal to ``p`` across all masks.

    Degenerate when p == 1 with nothing pruned: every kept entry also equals
    p, so the value saturates at 1 regardless of the pruned set.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    # a Python float takes each mask's dtype, so a float32 mask entry set
    # to p compares equal to it
    p = float(p)
    total = sum(m.size for m in masks.values())
    if total == 0:
        return 0.0
    hits = sum(int(np.count_nonzero(np.abs(m - p) <= MASK_ATOL))
               for m in masks.values())
    return hits / total


def _ranked_keep(unit_scores: dict[str, np.ndarray],
                 s_t: float) -> dict[str, np.ndarray]:
    """Boolean keep array per parameter from one pooled ranking.

    The lowest floor(s_t * units) units are dropped in ascending
    (score, name, index) order, the tie rule: pooled in name order, every
    unit below the k-th lowest score goes, then that score's ties in index
    order until k are gone. NaN ranks above every number, as in a sort.
    A partition finds the k-th score in O(units).
    """
    names = sorted(unit_scores)
    if not names:
        return {}
    pooled = np.concatenate([unit_scores[n] for n in names])
    keep = np.ones(pooled.size, dtype=bool)
    k = int(np.floor(s_t * pooled.size))
    if k:
        kth = np.partition(pooled, k - 1)[k - 1]
        if np.isnan(kth):
            ties = np.isnan(pooled)
            below = ~ties
        else:
            below, ties = pooled < kth, pooled == kth
        keep[below] = False
        keep[np.flatnonzero(ties)[: k - int(np.count_nonzero(below))]] = False
    bounds = np.cumsum([unit_scores[n].size for n in names])[:-1]
    return dict(zip(names, np.split(keep, bounds)))


def apply_mask_update(
    masks: dict[str, np.ndarray],
    scores: dict[str, np.ndarray],
    s_t: float,
    p_t: float,
    granularity: str = "element",
    exclude: tuple[str, ...] = (),
) -> MaskState:
    """Recompute every mask in ``masks``: the lowest-scoring floor(s_t *
    units) get ``p_t``, the rest 1. New arrays of each mask's dtype replace
    the dict's entries.

    Masks are rebuilt from scratch, so any previously pruned unit whose score
    recovers is restored to 1.

    Element units rank globally (one pooled score vector); row groups rank
    within each parameter. ``exclude`` names parameters whose mask is pinned
    to all-ones (they drop out of the unit universe).
    """
    if not 0.0 <= s_t <= 1.0:
        raise ValueError("s_t must lie in [0, 1]")
    if not 0.0 <= p_t <= 1.0:
        raise ValueError("p_t must lie in [0, 1]")
    active = [n for n in masks if n not in exclude]
    for n in active:
        if n not in scores:
            raise KeyError(f"scores missing parameter {n!r}")
        if np.asarray(scores[n]).shape != masks[n].shape:
            raise ValueError(f"score shape mismatch for {n!r}")

    for n in masks:
        if n in exclude:
            masks[n] = np.ones_like(masks[n])

    group = {n: _group_size(masks[n].shape, granularity) for n in active}
    units = {
        n: np.asarray(scores[n], dtype=np.float64).reshape(-1, group[n]).sum(1)
        for n in active
    }
    if granularity == "element":
        keep = _ranked_keep(units, s_t)
    else:
        keep = {n: _ranked_keep({n: u}, s_t)[n] for n, u in units.items()}

    for n in active:
        masks[n] = np.where(np.repeat(keep[n], group[n]).reshape(
            masks[n].shape), 1.0, p_t).astype(masks[n].dtype, copy=False)
    return MaskState(
        p_current=float(p_t),
        kept={n: keep[n] for n in active},
        pruned_units=sum(int(np.count_nonzero(~k)) for k in keep.values()),
        total_units=sum(k.size for k in keep.values()),
    )
