"""Exact dense Gaussian KDE: the label oracle and the measured floor.

Densities are computed as blocked matrix products
``||q||^2 + ||x||^2 - 2 q.x`` in bandwidth-scaled coordinates, using the
bandwidth and threshold the fitted model reports but none of its code.
A label is wrong only when the exact density lies outside the
``+-eps * t`` band around the threshold ``t`` and the label disagrees
with ``density > t``.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 128
HIGH = 1


class DenseKDE:
    """Kernel sums of a fixed point set, evaluated in query blocks."""

    def __init__(self, points: np.ndarray, bandwidth: np.ndarray) -> None:
        self.bandwidth = np.asarray(bandwidth, dtype=np.float64)
        d = self.bandwidth.shape[0]
        self.norm = math.exp(
            -0.5 * d * math.log(2.0 * math.pi) - float(np.sum(np.log(self.bandwidth)))
        )
        self.scaled = np.asarray(points, dtype=np.float64) / self.bandwidth
        self.sq_norms = np.einsum("ij,ij->i", self.scaled, self.scaled)

    @property
    def n(self) -> int:
        return self.scaled.shape[0]

    def kernel_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Normalized kernel values, shape ``(len(queries), n)``."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64)) / self.bandwidth
        sq = np.einsum("ij,ij->i", q, q)[:, None] + self.sq_norms[None, :] - 2.0 * (q @ self.scaled.T)
        np.maximum(sq, 0.0, out=sq)
        return self.norm * np.exp(-0.5 * sq)

    def sums(self, queries: np.ndarray) -> np.ndarray:
        """Unaveraged kernel sums at each query."""
        queries = np.atleast_2d(queries)
        out = np.empty(queries.shape[0])
        for begin in range(0, queries.shape[0], BLOCK):
            block = queries[begin:begin + BLOCK]
            out[begin:begin + BLOCK] = self.kernel_matrix(block).sum(axis=1)
        return out

    def density(self, queries: np.ndarray) -> np.ndarray:
        return self.sums(queries) / self.n


def label_ok(label: int, density: float, threshold: float, epsilon: float) -> bool:
    """True when ``label`` is acceptable for an exact ``density``."""
    if abs(density - threshold) <= epsilon * threshold * (1.0 + 1e-9):
        return True
    return int(label) == (HIGH if density > threshold else 0)

