import numpy as np
import pytest

from flowprune.datasets import generate


def test_determinism():
    a = generate(500, 3)
    b = generate(500, 3)
    assert a.tobytes() == b.tobytes()


def test_ring_moments():
    x = generate(10_000, 0)
    assert np.all(np.abs(x.mean(axis=0)) < 0.05)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.1)


def test_size_below_one_rejected():
    with pytest.raises(ValueError, match="dataset size must be at least 1, "
                                         "got 0"):
        generate(0, seed=0)


def test_seeds_differ():
    a = generate(100, 0)
    b = generate(100, 1)
    assert not np.array_equal(a, b)
