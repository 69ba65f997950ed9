"""Seeded inputs. The program under test receives only these arrays."""

from __future__ import annotations

import math

import numpy as np

#: Seed of the hep-like mixing matrices (not of the rows drawn from them).
HEP_STRUCTURE_SEED = 27


def two_cluster(rng: np.random.Generator, n: int, d: int = 2, sep: float = 2.5) -> np.ndarray:
    """Equal-weight unit Gaussians centred at ``-sep`` and ``+sep`` on every axis."""
    side = np.where(rng.random(n) < 0.5, -sep, sep)
    return rng.normal(size=(n, d)) + side[:, None]


class HepLike:
    """Two overlapping correlated populations with heavy-tailed features.

    A stand-in for the HEPMASS-style data the paper's ``hep`` set holds:
    a background and a signal population with different covariance, plus
    Student-t noise on a third of the coordinates. The mixing matrices
    come from a fixed seed, so every run samples the same distribution and
    the run's seed only picks the rows.
    """

    def __init__(self, d: int = 27) -> None:
        rng = np.random.default_rng(HEP_STRUCTURE_SEED)
        self.d = d
        self.directions = rng.normal(size=(d, d))
        self.signal_mean = rng.normal(scale=0.5, size=d)
        self.background_scale = rng.uniform(0.5, 1.5, size=d)
        self.signal_scale = rng.uniform(0.3, 1.0, size=d)
        self.heavy = rng.choice(d, size=d // 3, replace=False)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = self.d
        signal = rng.random(n) < 0.5
        out = np.empty((n, d))
        k = int(signal.sum())
        out[signal] = self.signal_mean + rng.normal(size=(k, d)) @ (
            self.directions * self.signal_scale) / math.sqrt(d)
        out[~signal] = rng.normal(size=(n - k, d)) @ (
            self.directions * self.background_scale) / math.sqrt(d)
        out[:, self.heavy] += 0.3 * rng.standard_t(2.5, size=(n, self.heavy.size))
        return out


def spread(rng: np.random.Generator, train: np.ndarray, n: int) -> np.ndarray:
    """Uniform points over the central 99% of the training data, widened by 10%.

    Mixed into query pools so that requests reach low-density regions
    and the threshold band, where the tolerance rule and exhaustive
    traversals fire, not only the dense core. Quantiles rather than the
    extremes keep the box from following a heavy tail's largest draw.
    """
    lo, hi = np.quantile(train, [0.005, 0.995], axis=0)
    pad = 0.1 * (hi - lo)
    return rng.uniform(lo - pad, hi + pad, size=(n, train.shape[1]))


def query_pool(rng: np.random.Generator, in_dist: np.ndarray, train: np.ndarray,
               n_spread: int) -> np.ndarray:
    """Shuffle held-out in-distribution rows with ``n_spread`` spread rows."""
    pool = np.concatenate([in_dist, spread(rng, train, n_spread)])
    return pool[rng.permutation(pool.shape[0])]
