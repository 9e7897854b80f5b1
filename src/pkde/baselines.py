"""Reference detectors for the comparison harness: kNN-distance, LOF and a
global Mahalanobis model. kNN and LOF share one exact neighbor table, built
block-wise by brute force so that memory stays O(block * n).

detector.detect rescales the data by a power of two first; called directly,
these work at the scale given and can overflow or underflow near 1e±160.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDuplicatesError, InvalidInputError
from .linalg import as_matrix, row_blocks
from .pca import fit_pca, project

# Condition-number bound past which the Mahalanobis covariance is ridged.
_COND_MAX = 1e12
_RIDGE_EPS = 1e-8


@dataclass(frozen=True)
class NeighborTable:
    """k nearest neighbors per point, self excluded, distances ascending.
    Distance ties are broken by lower index."""

    k: int
    indices: np.ndarray  # (n, k) int
    distances: np.ndarray  # (n, k) float


def knn_table(X, k: int) -> NeighborTable:
    """Exact k-nearest-neighbor table, built one block of rows at a time in
    O(block * n) memory; no n x n matrix is formed.

    Blocks come from linalg.row_blocks, as in the kernel sum, and run on its
    worker threads. Each row keeps every column at or below its k-th
    distance, in index order, and a stable sort by distance then picks k of
    them, so ties at the boundary go to the lower index exactly as a full
    stable sort would. Every row is found alone, so the table does not
    depend on the block size.
    """
    A = as_matrix(X)
    n = A.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k={k} out of range [1, {n - 1}]")
    sq = np.sum(A * A, axis=1)

    def block(s, e, buf):
        dist = buf[: (e - s) * n].reshape(e - s, n)
        np.matmul(A[s:e], A.T, out=dist)
        dist *= -2.0
        dist += sq
        dist += sq[s:e, None]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[np.arange(e - s), np.arange(s, e)] = np.inf  # self never a neighbor
        indices = np.empty((e - s, k), dtype=np.intp)
        for i, row in enumerate(dist):
            cand = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1])
            indices[i] = cand[np.argsort(row[cand], kind="stable")[:k]]
        return indices, np.take_along_axis(dist, indices, axis=1)

    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for s, e, (idx, dist) in row_blocks(n, n, block):
        indices[s:e] = idx
        distances[s:e] = dist
    return NeighborTable(k=k, indices=indices, distances=distances)


def knn_dist_score(X, k: int) -> np.ndarray:
    """Outlier score of each point: distance to its k-th nearest neighbor."""
    return knn_table(X, k).distances[:, k - 1].copy()


def lof_score(X, k: int) -> np.ndarray:
    """Local outlier factor (reachability-density ratio) of each point.

    reach_k(p, o) = max(k-dist(o), d(p, o)); lrd(p) is the inverse mean
    reachability over p's neighbors; LOF(p) is the mean lrd(o)/lrd(p).
    Scores near 1 mean density comparable to the neighborhood.
    """
    A = as_matrix(X)
    n = A.shape[0]
    if not 2 <= k <= n - 1:
        raise InvalidInputError(f"k={k} out of range [2, {n - 1}]")
    table = knn_table(A, k)
    k_dist = table.distances[:, k - 1]
    reach = np.maximum(k_dist[table.indices], table.distances)
    mean_reach = reach.mean(axis=1)
    degenerate = np.nonzero(mean_reach == 0.0)[0]
    if degenerate.size > 0:
        raise DegenerateDuplicatesError(degenerate.tolist())
    lrd = 1.0 / mean_reach
    return lrd[table.indices].mean(axis=1) / lrd


def mahalanobis_score(X) -> np.ndarray:
    """Squared Mahalanobis distance of each point to the global mean, using
    the covariance of the full data (outliers included -- a global method).

    It is summed in the PCA eigenbasis, sum_j (z_j^2 / lambda_j), so the
    inverse covariance is never formed, and is scale-free as long as the
    covariance neither overflows nor underflows.
    Near-singular covariance is ridged by eps * trace/d on every eigenvalue
    so the score is always defined.
    """
    A = as_matrix(X)
    if A.shape[0] < 2:
        raise InvalidInputError("need at least 2 rows")
    model = fit_pca(A)
    d = A.shape[1]
    vals = model.eigenvalues
    lead = float(vals[0]) if vals[0] > 0.0 else 0.0
    tail = float(vals[-1])
    if lead == 0.0 or tail <= 0.0 or lead / tail > _COND_MAX:
        trace = model.total_variance
        # S + ridge*I has the same eigenvectors, with every eigenvalue shifted.
        vals = vals + _RIDGE_EPS * (trace / d if trace > 0.0 else 1.0)
    Z = project(model, A, d) / np.sqrt(vals)
    return np.sum(Z * Z, axis=1)
