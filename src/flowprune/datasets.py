"""The deterministic synthetic dataset, sized for desk-scale diffusion training.

The generator draws from ``seeding.make_rng(seed, 0)``, numpy's Philox bit
generator (counter-based, with a fixed, platform-independent algorithm), so
the same size and seed reproduce the same tensor bit-exactly everywhere.
"""

from __future__ import annotations

import numpy as np

from .seeding import make_rng

DIM = 2

# The ring mixture: RING_MODES isotropic Gaussians of std RING_SIGMA centred
# on the unit circle, divided by RING_STD, the theoretical per-coordinate std
# (the mixture is mean-zero by symmetry).
RING_MODES = 8
RING_SIGMA = 0.05
RING_STD = np.sqrt(0.5 + RING_SIGMA**2)


def ring_centers(mode: np.ndarray) -> np.ndarray:
    """Unit-circle centres of the modes numbered ``mode``, shape
    [len(mode), DIM], before standardization."""
    angles = 2.0 * np.pi * mode / RING_MODES
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def generate(size: int, seed: int) -> np.ndarray:
    """Ring-mixture samples, shape [size, DIM], float64: ``RING_MODES``
    Gaussians drawn with equal weight, standardized by ``RING_STD``."""
    if size < 1:
        raise ValueError(f"dataset size must be at least 1, got {size}")
    rng = make_rng(seed, 0)
    mode = rng.integers(0, RING_MODES, size=size)
    x = ring_centers(mode) + RING_SIGMA * rng.standard_normal((size, DIM))
    return x / RING_STD
