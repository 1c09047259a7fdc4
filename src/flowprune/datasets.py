"""The deterministic synthetic dataset, sized for desk-scale diffusion training.

The generator draws from ``seeding.make_rng(seed, 0)``, numpy's Philox bit
generator (counter-based, with a fixed, platform-independent algorithm), so
the same size and seed reproduce the same tensor bit-exactly everywhere.
"""

from __future__ import annotations

import numpy as np

from .seeding import make_rng

DIM = 2

# Theoretical per-coordinate std for standardization; the mixture is
# mean-zero by symmetry.
_RING_SIGMA = 0.05
_RING_STD = np.sqrt(0.5 + _RING_SIGMA**2)


def generate(size: int, seed: int) -> np.ndarray:
    """Ring-mixture samples, shape [size, DIM], float64: 8 isotropic
    Gaussians (sigma 0.05) centred on the unit circle, standardized with the
    closed-form per-coordinate std."""
    if size < 1:
        raise ValueError(f"dataset size must be at least 1, got {size}")
    rng = make_rng(seed, 0)
    mode = rng.integers(0, 8, size=size)
    angles = 2.0 * np.pi * mode / 8.0
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    x = centers + _RING_SIGMA * rng.standard_normal((size, DIM))
    return x / _RING_STD
