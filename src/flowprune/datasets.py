"""Deterministic synthetic datasets sized for desk-scale diffusion training.

All generators draw from numpy's Philox bit generator (a counter-based RNG
with a fixed, platform-independent algorithm), keyed by the dataset seed, so
the same spec reproduces the same tensor bit-exactly everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("ring-mixture", "checkerboard", "tiny-shapes")

# Theoretical per-coordinate std for standardization; both point datasets are
# mean-zero by symmetry.
_RING_SIGMA = 0.05
_RING_STD = np.sqrt(0.5 + _RING_SIGMA**2)
_CHECKER_STD = np.sqrt(4.0 / 3.0)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    size: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}, expected "
                             f"one of {', '.join(KINDS)}")
        if self.size < 1:
            raise ValueError(f"dataset size must be at least 1, got "
                             f"{self.size}")

    @property
    def dim(self) -> int:
        return 64 if self.kind == "tiny-shapes" else 2


def _rng(spec: DatasetSpec) -> np.random.Generator:
    key = np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(KINDS.index(spec.kind),)
    )
    return np.random.Generator(np.random.Philox(key))


def generate(spec: DatasetSpec) -> np.ndarray:
    """Samples for the spec, shape [size, dim], float64.

    ring-mixture: 8 isotropic Gaussians (sigma 0.05) centred on the unit
    circle, standardized with the closed-form per-coordinate std.
    checkerboard: uniform over the unit squares of [-2,2]^2 with even
    floor(x)+floor(y), standardized likewise.
    tiny-shapes: 8x8 binary images (flattened) of full-length bars or small
    axis-aligned rectangles, values in {0,1}, no standardization.
    """
    rng = _rng(spec)
    if spec.kind == "ring-mixture":
        mode = rng.integers(0, 8, size=spec.size)
        angles = 2.0 * np.pi * mode / 8.0
        centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        x = centers + _RING_SIGMA * rng.standard_normal((spec.size, 2))
        return x / _RING_STD
    if spec.kind == "checkerboard":
        # 8 of the 16 unit squares of [-2,2]^2 satisfy floor(x)+floor(y) even.
        corners = np.array(
            [
                (i, j)
                for i in range(-2, 2)
                for j in range(-2, 2)
                if (i + j) % 2 == 0
            ],
            dtype=np.float64,
        )
        pick = rng.integers(0, len(corners), size=spec.size)
        offs = rng.uniform(0.0, 1.0, size=(spec.size, 2))
        return (corners[pick] + offs) / _CHECKER_STD
    # tiny-shapes
    imgs = np.zeros((spec.size, 8, 8))
    shape_kind = rng.integers(0, 3, size=spec.size)  # 0 row bar, 1 col bar, 2 rect
    for i in range(spec.size):
        if shape_kind[i] == 0:
            imgs[i, rng.integers(0, 8), :] = 1.0
        elif shape_kind[i] == 1:
            imgs[i, :, rng.integers(0, 8)] = 1.0
        else:
            h = int(rng.integers(2, 5))
            w = int(rng.integers(2, 5))
            r = int(rng.integers(0, 8 - h + 1))
            c = int(rng.integers(0, 8 - w + 1))
            imgs[i, r : r + h, c : c + w] = 1.0
    return imgs.reshape(spec.size, 64)


def checkerboard_raw(samples: np.ndarray) -> np.ndarray:
    """Undo checkerboard standardization (for membership predicates)."""
    return samples * _CHECKER_STD
