"""Sample-quality, consistency and efficiency metrics at desk scale.

Quality is a Gaussian-moment Frechet distance on raw sample coordinates (or
flattened pixels), not on feature-network activations, so absolute values are
only comparable within this package. Consistency is SSIM between outputs of
two models sampled from identical noise; 2-D point sets are rasterized to
32x32 binned kernel-density images first. Efficiency is parameter and MAC
counting on the compacted network, the one sampling runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.ndimage

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


@dataclass
class QualityReport:
    frechet: float
    ssim: float
    nonzero_params: int
    dense_params: int
    macs_dense: int
    macs_sparse: int
    seeds: tuple[int, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


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


def ssim(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Standard SSIM with a 7x7 uniform window, dynamic range 1."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("images must share a 2-D shape")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels per side")

    def win_mean(x):
        return scipy.ndimage.uniform_filter(x, size=SSIM_WINDOW)

    mu_a, mu_b = win_mean(a), win_mean(b)
    var_a = win_mean(a * a) - mu_a * mu_a
    var_b = win_mean(b * b) - mu_b * mu_b
    cov = win_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    smap = num / den
    half = SSIM_WINDOW // 2
    valid = smap[half : a.shape[0] - half, half : a.shape[1] - half]
    return float(valid.mean())


def batch_ssim(imgs_a: np.ndarray, imgs_b: np.ndarray) -> float:
    """Mean SSIM over paired image stacks [n, h, w]."""
    if imgs_a.shape != imgs_b.shape:
        raise ValueError("paired stacks must share shapes")
    return float(np.mean([ssim(x, y) for x, y in zip(imgs_a, imgs_b)]))


def kde_raster(points: np.ndarray) -> np.ndarray:
    """Binned kernel-density image of a 2-D point set (unnormalized):
    ``KDE_BINS`` bins a side over [-KDE_EXTENT, KDE_EXTENT]^2, blurred by a
    Gaussian of ``KDE_BLUR`` bins."""
    pts = np.asarray(points, dtype=np.float64)
    extent = [-KDE_EXTENT, KDE_EXTENT]
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=KDE_BINS,
                                range=[extent, extent])
    return scipy.ndimage.gaussian_filter(hist, sigma=KDE_BLUR)


def consistency_ssim(samples_ref: np.ndarray, samples_cmp: np.ndarray) -> float:
    """SSIM between two sample sets generated from identical noise.

    2-D point sets are compared through their KDE rasters (jointly scaled to
    [0, 1]); image-valued samples are compared pairwise after clipping.
    """
    if samples_ref.shape[1] == 2:
        ra = kde_raster(samples_ref)
        rb = kde_raster(samples_cmp)
        top = max(ra.max(), rb.max(), 1e-12)
        return ssim(ra / top, rb / top)
    side = int(round(np.sqrt(samples_ref.shape[1])))
    shape = (-1, side, side)
    return batch_ssim(
        np.clip(samples_ref, 0.0, 1.0).reshape(shape),
        np.clip(samples_cmp, 0.0, 1.0).reshape(shape),
    )


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
