"""Reference detectors for the comparison harness: kNN-distance, LOF and a
global Mahalanobis model. kNN and LOF share one exact neighbor table, built
block-wise by brute force so that memory stays O(block * n).

detector.detect rescales the data by a power of two first; called directly,
these work at the scale given and can overflow or underflow near 1e±160.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDuplicatesError, InvalidInputError
from .linalg import as_matrix, row_blocks
from .pca import fit_pca, project

# Condition-number bound past which the Mahalanobis covariance is ridged.
_COND_MAX = 1e12
_RIDGE_EPS = 1e-8

# knn_table's threshold is the k-th largest estimate among every this many
# columns of a row.
_SAMPLE_STRIDE = 8

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


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

    The table is that of a dense matrix of difference-form distances,
    sqrt(sum_l (a_il - a_jl)^2) summed over l in order, each row stably
    sorted so that ties go to the lower index; the difference form does not
    cancel far from the origin. Only about k columns per row get one.

    Blocks come from linalg.row_blocks, as in the kernel sum, and run on its
    worker threads. In each block one GEMM on the centred rows, lifted to
    [c, 1, -‖c‖²/2] and [c, -‖c‖²/2, 1], estimates -d²/2 for every pair, and
    M bounds its rounding error. A row keeps the columns whose estimate is
    within 2M of the k-th largest in a sample of its columns (every
    _SAMPLE_STRIDE-th when n is large enough, else all), then those within
    2M of its own k-th largest estimate; no column that can rank k or
    better is lost. The survivors are ranked by (exact distance, index).
    So the table depends neither on the block size nor on the worker count.
    """
    A = as_matrix(X)
    n, d = A.shape
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k={k} out of range [1, {n - 1}]")
    lifted = np.empty((n, d + 2))
    C = np.subtract(A, A.mean(axis=0), out=lifted[:, :d])
    sq = np.einsum("ij,ij->i", C, C)
    if not np.isfinite(4.0 * sq.max()):  # 4 max‖c‖² bounds every d² below
        raise DataError("squared distances overflow float64; rescale the data")
    lifted[:, d] = 1.0
    lifted[:, d + 1] = -0.5 * sq
    swap = np.r_[:d, d + 1, d]  # lifted[i, swap] @ lifted[j] = -d²/2
    # slack is 2M. M = 4(d + 2)uN bounds |estimate + D²/2|, D the exact
    # distance below, with u the unit roundoff and N = ‖c_i‖² + max_j ‖c_j‖²,
    # so that d²/2 <= N: the GEMM over d + 2 terms with the rounded lifted
    # norms errs by at most (1.5d + 2)uN; centring by 2uN, since the rounded
    # c_i - c_j moves d²/2 by at most u(‖c_i‖ + ‖c_j‖)²; the difference form
    # and its sqrt by (d + 4)uN. That is (2.5d + 8)uN; the rest covers terms
    # of order u² and the rounding of N and of each threshold, and (d + 2)
    # subnormal units per term cover underflow.
    slack = 8.0 * (d + 2) * (_UNIT_ROUNDOFF * (sq + sq.max()) + _SUBNORMAL)
    stride = _SAMPLE_STRIDE if n >= 2 * _SAMPLE_STRIDE * (k + 1) else 1

    def block(s, e, buf):
        r = e - s
        est = buf[: r * n].reshape(r, n)
        np.matmul(lifted[s:e][:, swap], lifted.T, out=est)
        est[np.arange(r), np.arange(s, e)] = -np.inf  # self never a neighbor
        # The sample holds at least k columns besides the row itself (2k + 1
        # when strided), so at least k columns have an estimate at or above
        # t, and so -D²/2 at or above t - M: a column that ranks k or better
        # has -D²/2 at or above t - M too, and so an estimate at or above
        # t - 2M.
        t = np.partition(est[:, ::stride], -k, axis=1)[:, -k]
        flat = np.flatnonzero(est >= (t - slack[s:e])[:, None])
        row = flat // n
        cand = est.ravel()[flat]
        # The same test against each row's own k-th estimate, found by
        # partitioning the candidates laid out one row per buffer row.
        counts = np.bincount(row, minlength=r)
        width = int(counts.max())
        pad = buf[: r * width].reshape(r, width)
        pad.fill(-np.inf)
        pad[row, np.arange(flat.size) - (np.cumsum(counts) - counts)[row]] = cand
        pad.partition(width - k, axis=1)
        keep = cand >= (pad[:, width - k] - slack[s:e])[row]
        row, flat = row[keep], flat[keep]
        col = flat - row * n
        d2 = np.zeros(row.size)
        for a in A.T:
            diff = a[row + s] - a[col]
            diff *= diff
            d2 += diff
        dist = np.sqrt(d2, out=d2)
        order = np.lexsort((col, dist, row))
        first = np.searchsorted(row, np.arange(r))
        pick = order[first[:, None] + np.arange(k)]
        return col[pick], dist[pick]

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
