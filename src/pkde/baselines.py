"""Reference detectors for the comparison harness: kNN-distance, LOF and a
global Mahalanobis model. All use exact brute-force neighbor search; the
target datasets are small enough that correctness beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDuplicatesError, InvalidInputError
from .linalg import as_matrix, center_columns, covariance, sym_eigen

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


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    # Expand ‖x‖² on X / c, c the power of two just above max |X|: the scaling
    # is exact, and the squares can neither overflow nor underflow.
    c = 2.0 ** np.frexp(np.max(np.abs(X)))[1]
    X = X / c
    sq = np.sum(X * X, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    dist = np.sqrt(d2)
    dist *= c
    return dist


def knn_table(X, k: int) -> NeighborTable:
    """Exact O(n^2) k-nearest-neighbor table."""
    A = as_matrix(X)
    n = A.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k={k} out of range [1, {n - 1}]")
    dist = _pairwise_distances(A)
    np.fill_diagonal(dist, np.inf)  # self never a neighbor
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return NeighborTable(
        k=k,
        indices=order,
        distances=np.take_along_axis(dist, order, axis=1),
    )


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

    Near-singular covariance is ridged by eps * trace/d on the diagonal so
    the score is always defined.
    """
    A = as_matrix(X)
    if A.shape[0] < 2:
        raise InvalidInputError("need at least 2 rows")
    centered, _ = center_columns(A)
    S = covariance(centered)
    d = S.shape[0]
    eig = sym_eigen(S)
    vals = eig.eigenvalues
    lead = float(vals[0]) if vals[0] > 0.0 else 0.0
    tail = float(vals[-1])
    if lead == 0.0 or tail <= 0.0 or lead / tail > _COND_MAX:
        trace = float(np.trace(S))
        # S + ridge*I has the same eigenvectors, with every eigenvalue shifted.
        vals = vals + _RIDGE_EPS * (trace / d if trace > 0.0 else 1.0)
    V = eig.eigenvectors
    S_inv = (V / vals) @ V.T
    quad = np.einsum("ij,jk,ik->i", centered, S_inv, centered)
    return np.maximum(quad, 0.0)
