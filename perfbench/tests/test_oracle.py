"""The dense oracle against a direct pairwise sum, and the band rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench.oracle import DenseKDE, label_ok


def test_dense_density_matches_pairwise_gaussian_sum():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(300, 3))
    queries = rng.normal(size=(257, 3)) * 2.0  # crosses a block boundary
    h = np.array([0.4, 0.7, 1.1])
    diffs = (queries[:, None, :] - points[None, :, :]) / h
    norm = (2.0 * math.pi) ** -1.5 / np.prod(h)
    expected = norm * np.exp(-0.5 * (diffs ** 2).sum(axis=2)).mean(axis=1)
    np.testing.assert_allclose(DenseKDE(points, h).density(queries), expected, rtol=1e-9)


def test_labels_inside_the_band_are_always_accepted():
    t, eps = 1.0, 0.01
    assert label_ok(0, 1.005, t, eps) and label_ok(1, 1.005, t, eps)
    assert label_ok(1, 0.995, t, eps) and label_ok(0, 0.995, t, eps)
    assert label_ok(1, 1.02, t, eps) and not label_ok(0, 1.02, t, eps)
    assert label_ok(0, 0.98, t, eps) and not label_ok(1, 0.98, t, eps)
    assert not label_ok(2, 0.5, t, eps)  # UNCERTAIN outside the band is wrong

