"""Sample-quality, consistency and efficiency metrics at desk scale.

Quality is a Gaussian-moment Frechet distance on raw sample coordinates, not
on feature-network activations, so absolute values are only comparable within
this package. The ring mixture is standardized to mean 0 and covariance I, so
Frechet cannot tell it from a Gaussian; mode precision and modes captured
read the samples against the mixture's modes instead. Consistency is SSIM
between outputs of two models sampled from identical noise, each 2-D point
set first binned into a ``KDE_BINS`` x ``KDE_BINS`` histogram over
[-KDE_EXTENT, KDE_EXTENT]^2 and blurred into a kernel-density image by a
Gaussian of ``KDE_BLUR`` bins. Efficiency is parameter and MAC counting on
the compacted network, the one sampling runs.

SSIM's window mean and the rasters' Gaussian blur are numpy ports of
``scipy.ndimage.uniform_filter`` and ``gaussian_filter`` in their default
reflect mode, the blur truncated at 4 sigma. Each repeats scipy's C loop
operation for operation, so both are bit-identical to scipy's, and the
package runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import RING_MODES, RING_SIGMA, RING_STD, ring_centers
from .masking import MASK_ATOL

# Keeps covariance factors full-rank; applied to both inputs unconditionally
# so the distance stays symmetric.
_COV_EPS = 1e-6

SSIM_WINDOW = 7
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2

KDE_BINS = 32
KDE_EXTENT = 3.0
KDE_BLUR = 1.0
# scipy's _gaussian_kernel1d for sigma KDE_BLUR, truncated at 4 sigma
_BLUR_RADIUS = int(4.0 * KDE_BLUR + 0.5)
_BLUR_WEIGHTS = np.exp(-0.5 / (KDE_BLUR * KDE_BLUR)
                       * np.arange(-_BLUR_RADIUS, _BLUR_RADIUS + 1) ** 2)
_BLUR_WEIGHTS /= _BLUR_WEIGHTS.sum()


def _separable(x: np.ndarray, radius: int, filter_lines) -> np.ndarray:
    """``filter_lines`` run along axis -2 and then axis -1, the order in
    which scipy.ndimage filters an image's axes.

    ``filter_lines(padded, n)`` gets the lines with the filtered axis first,
    each padded at both ends by ``radius < n`` mirrored values, edge value
    included (scipy's "reflect" mode, numpy's "symmetric"), and returns the
    ``n`` filtered values of each line.
    """
    for axis in (-2, -1):
        y = np.moveaxis(x, axis, 0)
        padded = np.concatenate([y[radius - 1::-1], y, y[:-radius - 1:-1]])
        x = np.moveaxis(filter_lines(padded, len(y)), 0, axis)
    # C order, as scipy returns it: a sum over the result then adds in
    # scipy's order
    return np.ascontiguousarray(x)


def _window_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the ``SSIM_WINDOW``-square window of each pixel of the last
    two axes, as ``scipy.ndimage.uniform_filter`` gives it per image.

    Along each axis, as scipy's ``NI_UniformFilter1D``: the first window is
    summed in order from 0.0, each later one adds the entering value less
    the leaving one to the running sum (``np.cumsum`` adds in order too),
    and every output is that sum divided by the window size.
    """
    size = SSIM_WINDOW

    def filter_lines(padded, n):
        run = np.empty((n,) + padded.shape[1:])
        run[0] = 0.0
        for j in range(size):
            run[0] += padded[j]
        np.subtract(padded[size:], padded[:n - 1], out=run[1:])
        return np.cumsum(run, axis=0, out=run) / size

    return _separable(x, size // 2, filter_lines)


def _blur(x: np.ndarray) -> np.ndarray:
    """Gaussian blur of ``KDE_BLUR`` pixels over the last two axes, as
    ``scipy.ndimage.gaussian_filter`` gives it per image.

    Along each axis, as the symmetric branch of scipy's ``NI_Correlate1D``:
    the centre times its weight, then each mirrored pair's sum times the
    pair's weight is added, outermost pair first.
    """
    r, w = _BLUR_RADIUS, _BLUR_WEIGHTS

    def filter_lines(padded, n):
        out = padded[r:r + n] * w[r]
        for j in range(r, 0, -1):
            pair = padded[r - j:r - j + n] + padded[r + j:r + j + n]
            out += pair * w[r - j]
        return out

    return _separable(x, r, filter_lines)


@dataclass
class QualityReport:
    """``pipeline.evaluate_model``'s return value: one quality read's columns,
    the model's efficiency counts, its seeds and the samples read. It stays
    a class, not a dict, because the benchmark reads its attributes."""

    frechet: float
    ssim: float | None
    mode_precision: float
    modes: int
    nonzero_params: int
    dense_params: int
    macs_dense: int
    macs_sparse: int
    seeds: list[int] = field(default_factory=list)
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "samples"}


def frechet_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2})."""
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must be 2-D with a common feature dim")
    dim = a.shape[1]
    if a.shape[0] < dim + 1 or b.shape[0] < dim + 1:
        raise ValueError("need at least dim+1 samples per set")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False) + _COV_EPS * np.eye(dim)
    cov_b = np.cov(b, rowvar=False) + _COV_EPS * np.eye(dim)
    # Tr((S_a S_b)^{1/2}) = sum sqrt(eig(sqrt(S_a) S_b sqrt(S_a))); the
    # matrix is symmetric PSD, so eigvalsh applies and rounding below 0 clips.
    w, u = np.linalg.eigh(cov_a)
    sqrt_a = (u * np.sqrt(np.maximum(w, 0.0))) @ u.T
    lam = np.linalg.eigvalsh(sqrt_a @ cov_b @ sqrt_a)
    tr_root = float(np.sum(np.sqrt(np.maximum(lam, 0.0))))
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a + cov_b) - 2.0 * tr_root)


def mode_quality(samples: np.ndarray) -> tuple[float, int]:
    """(mode precision, modes) of standardized 2-D samples against the ring
    mixture of ``datasets.generate``.

    Mode precision is the share of samples within 3 sigma of their nearest
    mode centre, the "high-quality samples" of ring-mixture GAN benchmarks;
    a fresh data draw reads about 0.99. Modes counts the modes that hold at
    least n/32 of those samples, a quarter of a mode's share of n.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2 or len(x) == 0:
        raise ValueError(f"samples must have shape [n, 2] with n >= 1, got "
                         f"{list(x.shape)}")
    centers = ring_centers(np.arange(RING_MODES)) / RING_STD
    dist2 = ((x[:, None, :] - centers) ** 2).sum(axis=2)
    nearest = dist2.argmin(axis=1)
    radius = 3.0 * RING_SIGMA / RING_STD
    near = dist2[np.arange(len(x)), nearest] <= radius * radius
    held = np.bincount(nearest[near], minlength=RING_MODES)
    return float(near.mean()), int(np.count_nonzero(held >= len(x) / 32))


def ssim(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Standard SSIM with a 7x7 uniform window, dynamic range 1."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("images must share a 2-D shape")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels per side")

    mu_a, mu_b, mean_aa, mean_bb, mean_ab = _window_mean(
        np.stack([a, b, a * a, b * b, a * b]))
    var_a = mean_aa - mu_a * mu_a
    var_b = mean_bb - mu_b * mu_b
    cov = mean_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    smap = num / den
    half = SSIM_WINDOW // 2
    valid = smap[half : a.shape[0] - half, half : a.shape[1] - half]
    return float(valid.mean())


def _histogram(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    extent = [-KDE_EXTENT, KDE_EXTENT]
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=KDE_BINS,
                                range=[extent, extent])
    return hist


def consistency_ssim(samples_ref: np.ndarray, samples_cmp: np.ndarray) -> float:
    """SSIM between two 2-D point sets generated from identical noise,
    compared through their KDE rasters jointly scaled to [0, 1]."""
    for pts in (samples_ref, samples_cmp):
        shape = np.shape(pts)
        if len(shape) != 2 or shape[1] != 2:
            raise ValueError(f"point sets must have shape [n, 2], got "
                             f"{list(shape)}")
    ra, rb = _blur(np.stack([_histogram(samples_ref),
                             _histogram(samples_cmp)]))
    top = max(ra.max(), rb.max(), 1e-12)
    return ssim(ra / top, rb / top)


def count_macs(masks: dict[str, np.ndarray]) -> tuple[int, int]:
    """(dense, sparse) multiply-accumulates per forward sample over the
    weights a mask set covers.

    A weight matrix [out, in] costs out*in dense MACs; the sparse count is
    the number of nonzero mask entries. A row-group mask is uniform along
    each row, so that equals the kept rows times ``in``.
    """
    dense = sum(m.size for m in masks.values())
    sparse = sum(int(np.count_nonzero(np.abs(m) > MASK_ATOL))
                 for m in masks.values())
    return dense, sparse


def efficiency(model) -> dict[str, int]:
    """Parameter and MAC counts per forward sample of a noise predictor.

    The dense figures count the full network. The sparse figures count what
    ``model.compact()`` computes: ``macs_sparse`` is the size of its weight
    matrices, so layer k+1 reads only the units layer k keeps, and a layer-0
    unit kept by its ``temb.w`` row alone still costs its ``layer0.w`` row;
    ``nonzero_params`` is its nonzero weights plus its biases.
    """
    small = model.compact()
    macs_dense, _ = count_macs(model.masks)
    macs_sparse, nonzero = count_macs(small.masks)
    return {
        "nonzero_params": nonzero + small.bias_param_count(),
        "dense_params": macs_dense + model.bias_param_count(),
        "macs_dense": macs_dense,
        "macs_sparse": macs_sparse,
    }
