import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

from flowprune import metrics
from flowprune.datasets import RING_MODES, RING_STD, generate, ring_centers
from flowprune.masking import apply_mask_update
from flowprune.metrics import (
    consistency_ssim,
    count_macs,
    frechet_distance,
    mode_quality,
    ssim,
)
from flowprune.seeding import make_rng


def eigen_frechet(a, b):
    """Independent oracle: trace of the sqrt via a symmetric similarity.

    Tr sqrt(Sa Sb) = Tr sqrt(Sa^{1/2} Sb Sa^{1/2}), and the inner matrix is
    symmetric PSD, so its root comes from an eigendecomposition.
    """
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    dim = a.shape[1]
    sa = np.cov(a, rowvar=False) + 1e-6 * np.eye(dim)
    sb = np.cov(b, rowvar=False) + 1e-6 * np.eye(dim)
    wa, va = np.linalg.eigh(sa)
    root_a = va @ np.diag(np.sqrt(np.maximum(wa, 0.0))) @ va.T
    inner = root_a @ sb @ root_a
    wi = np.linalg.eigvalsh(inner)
    tr_root = float(np.sum(np.sqrt(np.maximum(wi, 0.0))))
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(sa) + np.trace(sb) - 2.0 * tr_root)


class TestFrechet:
    def test_self_distance_zero(self):
        x = make_rng(0, "fd").normal(size=(500, 2))
        assert abs(frechet_distance(x, x)) < 1e-8

    def test_mean_shift_closed_form(self):
        rng = make_rng(1, "fd")
        a = rng.normal(size=(200_00, 1))
        b = a + 3.0
        # exact moments: unit variances cancel, distance is the squared shift
        assert frechet_distance(a, b) == pytest.approx(9.0, abs=1e-6)

    def test_matches_eigen_oracle(self):
        rng = make_rng(2, "fd")
        a = rng.normal(size=(400, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        b = rng.normal(size=(300, 2)) + np.array([0.5, -0.25])
        got = frechet_distance(a, b)
        want = eigen_frechet(a, b)
        assert abs(got - want) < 1e-9

    def test_symmetry(self):
        rng = make_rng(3, "fd")
        a = rng.normal(size=(300, 3))
        b = rng.normal(size=(280, 3)) * 1.4 + 0.2
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-9

    def test_noise_monotonicity(self):
        rng = make_rng(4, "fd")
        base = rng.normal(size=(2000, 2))
        ref = rng.normal(size=(2000, 2))
        dists = []
        for sigma in (0.5, 1.5, 3.0):
            noisy = base + sigma * make_rng(5, "n", int(sigma * 10)).normal(
                size=base.shape
            )
            dists.append(frechet_distance(noisy, ref))
        assert dists[0] < dists[1] < dists[2]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            frechet_distance(np.zeros((2, 2)), np.zeros((10, 2)))


class TestModeQuality:
    """Sample sets that Frechet scores alike against a ring draw (0.0019 for
    a second draw, 0.0023 for N(0, I), 0.0012 for 4 of the 8 modes)."""

    def test_fresh_draw_sits_on_all_modes(self):
        for seed in (0, 1, 1_000_003):
            precision, modes = mode_quality(generate(2000, seed))
            assert precision >= 0.98 and modes == RING_MODES

    def test_gaussian_and_half_the_modes_score_below_a_ring_draw(self):
        ring = mode_quality(generate(2000, 1))
        gauss = mode_quality(make_rng(0, "mq").standard_normal((2000, 2)))
        draw = generate(4000, 2)
        angle = np.arctan2(draw[:, 1], draw[:, 0])
        mode = np.round(angle / (2 * np.pi / RING_MODES)).astype(int)
        half = mode_quality(draw[mode % 2 == 0][:2000])
        assert gauss[0] < 0.2 < ring[0]
        assert gauss[1] == 0
        assert half[1] == RING_MODES // 2 < ring[1]
        # a set on half the modes is still made of good samples
        assert half[0] >= 0.98

    def test_a_mode_counts_from_a_quarter_of_its_share(self):
        # of 64 samples on mode centres, mode k holds j and mode 0 the rest;
        # mode k counts from j = 64/32
        for k in range(1, RING_MODES):
            for j, modes in ((1, 1), (2, 2)):
                x = np.repeat([mode_centre(0)], 64, axis=0)
                x[:j] = mode_centre(k)
                assert mode_quality(x) == (1.0, modes)

    def test_shape_checked(self):
        for bad in (np.zeros((0, 2)), np.zeros((5, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="shape"):
                mode_quality(bad)


def mode_centre(k: int) -> np.ndarray:
    """Mode ``k``'s centre in the standardized coordinates of the data."""
    return ring_centers(np.array([k]))[0] / RING_STD


class TestSSIM:
    def test_identical_is_exactly_one(self):
        img = make_rng(6, "ssim").uniform(size=(8, 8))
        assert ssim(img, img) == 1.0

    def test_constant_images_equal(self):
        a = np.full((8, 8), 0.42)
        assert ssim(a, a.copy()) == 1.0

    def test_negative_for_inverted_pattern(self):
        # checkerboard vs its negative: structure term flips sign
        idx = np.indices((8, 8)).sum(axis=0)
        a = (idx % 2).astype(np.float64)
        b = 1.0 - a
        value = ssim(a, b)
        assert value < 0.0

    def test_inverted_pattern_frozen_value(self):
        # independent oracle: loop over the four interior 7x7 windows and
        # evaluate the SSIM formula directly
        idx = np.indices((8, 8)).sum(axis=0)
        a = (idx % 2).astype(np.float64)
        b = 1.0 - a
        c1, c2 = 0.01**2, 0.03**2
        terms = []
        for r in range(2):
            for c in range(2):
                wa = a[r : r + 7, c : c + 7]
                wb = b[r : r + 7, c : c + 7]
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a, var_b = wa.var(), wb.var()
                cov = (wa * wb).mean() - mu_a * mu_b
                terms.append(
                    (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
        assert ssim(a, b) == pytest.approx(np.mean(terms), rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_range(self):
        rng = make_rng(8, "ssim")
        for _ in range(5):
            a = rng.uniform(size=(10, 10))
            b = rng.uniform(size=(10, 10))
            v = ssim(a, b)
            assert -1.0 <= v <= 1.0


class TestConsistency:
    def test_identical_point_sets(self):
        pts = make_rng(9, "cons").normal(size=(1000, 2))
        assert consistency_ssim(pts, pts.copy()) == 1.0

    def test_different_point_sets_lower(self):
        rng = make_rng(10, "cons")
        a = rng.normal(size=(1000, 2))
        b = rng.normal(size=(1000, 2)) * 0.2 + 1.5
        assert consistency_ssim(a, b) < consistency_ssim(a, a.copy())

    @pytest.mark.parametrize("shape", [(4, 64), (100, 3), (1000,)])
    def test_rejects_what_is_not_a_point_set(self, shape):
        # the raster reads two coordinates, so a third would drop silently
        pts = make_rng(11, "cons").normal(size=(1000, 2))
        other = make_rng(11, "cons", 1).normal(size=shape)
        with pytest.raises(ValueError, match=r"shape \[n, 2\]"):
            consistency_ssim(pts, other)
        with pytest.raises(ValueError, match=r"shape \[n, 2\]"):
            consistency_ssim(other, pts)


def scipy_ssim(a, b):
    """``ssim`` as written on scipy.ndimage's window mean."""
    def win_mean(x):
        return scipy.ndimage.uniform_filter(x, size=7)

    mu_a, mu_b = win_mean(a), win_mean(b)
    var_a = win_mean(a * a) - mu_a * mu_a
    var_b = win_mean(b * b) - mu_b * mu_b
    cov = win_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + 0.01**2) * (2.0 * cov + 0.03**2)
    den = (mu_a * mu_a + mu_b * mu_b + 0.01**2) * (var_a + var_b + 0.03**2)
    return float((num / den)[3:a.shape[0] - 3, 3:a.shape[1] - 3].mean())


def scipy_kde_raster(points):
    hist, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=32,
                                range=[[-3.0, 3.0], [-3.0, 3.0]])
    return scipy.ndimage.gaussian_filter(hist, sigma=1.0)


def scipy_consistency_ssim(ref, cmp):
    ra, rb = scipy_kde_raster(ref), scipy_kde_raster(cmp)
    top = max(ra.max(), rb.max(), 1e-12)
    return scipy_ssim(ra / top, rb / top)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def point_set(rng, n):
    """Points of a random spread and centre; the wider ones fall outside
    the raster's +-3 square too."""
    return rng.normal(size=(n, 2)) * rng.uniform(0.2, 4.0) + rng.uniform(-2, 2)


# consistency_ssim of test_frozen_consistency_value's point sets, as the
# scipy.ndimage 1.17.1 filters gave it before the numpy ports replaced them
FROZEN_CONSISTENCY = "0x1.cb02b0c707d1dp-1"


class TestScipyOracle:
    """The numpy filters give scipy.ndimage's bits, for the images SSIM and
    the rasters ever see and beyond."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("shape", [(7, 7), (7, 40), (32, 32), (50, 33)])
    def test_filters_match_per_image_and_stacked(self, shape, scale):
        rng = make_rng(20, "oracle", shape[0] * 100 + shape[1])
        images = rng.normal(size=(6, *shape)) * scale  # negative values too
        means = metrics._window_mean(images)
        blurred = metrics._blur(images)
        for i, img in enumerate(images):
            want_mean = scipy.ndimage.uniform_filter(img, size=7)
            want_blur = scipy.ndimage.gaussian_filter(img, sigma=1.0)
            assert same_bits(metrics._window_mean(img), want_mean)
            assert same_bits(means[i], want_mean)
            assert same_bits(metrics._blur(img), want_blur)
            assert same_bits(blurred[i], want_blur)

    @pytest.mark.parametrize("shape", [(7, 7), (7, 40), (32, 32), (50, 33)])
    def test_ssim_matches(self, shape):
        rng = make_rng(21, "oracle", shape[0] * 100 + shape[1])
        for scale in (1e-3, 1.0, 1e3):
            a = rng.normal(size=shape) * scale
            b = a + rng.normal(size=shape) * scale * 0.5
            assert ssim(a, b).hex() == scipy_ssim(a, b).hex()
            u, v = rng.uniform(size=shape), rng.uniform(size=shape)
            assert ssim(u, v).hex() == scipy_ssim(u, v).hex()

    def test_rasters_and_consistency_match(self):
        rng = make_rng(22, "oracle")
        for _ in range(40):
            ref = point_set(rng, int(rng.integers(3, 2000)))
            cmp = ref + rng.normal(size=ref.shape) * rng.uniform(0.01, 1.0)
            assert same_bits(metrics._blur(metrics._histogram(ref)),
                             scipy_kde_raster(ref))
            assert (consistency_ssim(ref, cmp).hex()
                    == scipy_consistency_ssim(ref, cmp).hex())

    def test_frozen_consistency_value(self):
        # the package's own number, so that no later scipy, whose filters
        # the oracle above follows, can move it unseen
        rng = make_rng(23, "oracle")
        ref = rng.normal(size=(1000, 2))
        cmp = ref * 0.9 + rng.normal(size=ref.shape) * 0.2
        assert consistency_ssim(ref, cmp).hex() == FROZEN_CONSISTENCY


def test_package_runs_without_scipy():
    """A fresh interpreter that imports the command line and computes an
    SSIM has loaded no scipy module."""
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import flowprune.cli\n"
        "from flowprune.metrics import consistency_ssim\n"
        "pts = np.random.default_rng(0).normal(size=(500, 2))\n"
        "consistency_ssim(pts, pts * 0.5)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    # conftest pins the BLAS threads in os.environ, so the child inherits it
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []


class TestMacs:
    def test_dense_single_layer(self):
        dense, sparse = count_macs({"w": np.ones((128, 128))})
        assert dense == 16384 and sparse == 16384

    def test_half_rows(self):
        masks = {"w": np.ones((128, 128))}
        rng = make_rng(14, "macs")
        apply_mask_update(masks, {"w": rng.normal(size=(128, 128))}, 0.5, 0.0,
                          granularity="row-group")
        dense, sparse = count_macs(masks)
        assert dense == 16384 and sparse == 8192

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_row_groups_any_s_p(self, s, p):
        # a nonzero count over row-group masks equals the per-row formula:
        # rows free of zeros times the input width
        masks = {"w": np.ones((128, 64))}
        rng = make_rng(16, "macs")
        apply_mask_update(masks, {"w": rng.normal(size=(128, 64))}, s, p,
                          granularity="row-group")
        dense, sparse = count_macs(masks)
        full_rows = int(np.count_nonzero((masks["w"] != 0.0).all(axis=1)))
        assert dense == 128 * 64 and sparse == full_rows * 64
        if p == 0.0:
            assert full_rows == 128 - int(np.floor(s * 128))

    def test_element_masking_counts_nonzeros(self):
        mask = np.zeros((4, 4))
        mask[0, :] = 1.0
        mask[1, 0] = 1.0
        dense, sparse = count_macs({"w": mask})
        assert dense == 16 and sparse == 5

    def test_model_wide_half_sparsity(self):
        masks = {"a": np.ones((16, 8)), "b": np.ones((8, 16))}
        rng = make_rng(15, "macs2")
        scores = {n: rng.normal(size=m.shape) for n, m in masks.items()}
        apply_mask_update(masks, scores, 0.5, 0.0)
        dense, sparse = count_macs(masks)
        # per-layer summation oracle
        want = sum(int(np.count_nonzero(m)) for m in masks.values())
        assert sparse == want
        assert dense == 2 * 16 * 8
        assert abs(sparse / dense - 0.5) < 0.01
