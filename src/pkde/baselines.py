"""Reference detectors for the comparison harness: kNN-distance, LOF and a
global Mahalanobis model. kNN and LOF share one exact neighbor table, built
block-wise by brute force so that memory stays O(block * n).

Each works on its own copy, centred and rescaled by a power of two exactly
(linalg.pow2_centre), and maps its result back: no scale over- or underflows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDuplicatesError, InvalidInputError
from .linalg import as_matrix, budget_rows, check_int, lift, pow2_centre, pow2_scale, row_blocks
from .pca import _fit_centred

# The Mahalanobis ridge, relative to the mean eigenvalue.
_RIDGE_EPS = 1e-8

# knn_table's threshold is the k-th largest estimate among every this many
# columns of a row.
_SAMPLE_STRIDE = 8

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_UNIT_ROUNDOFF32 = float(np.finfo(np.float32).eps) / 2
_SUBNORMAL32 = float(np.finfo(np.float32).smallest_subnormal)


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
    worker threads, on the rows scaled by 2**-p (linalg.pow2_centre); the
    distances are multiplied back. In each block one GEMM on the centred
    rows, lifted to [c, 1, -‖c‖²/2] and [c, -‖c‖²/2, 1], estimates -d²/2
    for every pair, and M bounds its rounding error. A row keeps the columns
    whose estimate is within 2M of the k-th largest in a sample of its
    columns (every _SAMPLE_STRIDE-th when n is large enough, else all), then
    those within 2M of its own k-th largest estimate; no column that can
    rank k or better is lost. The survivors are ranked by (exact distance,
    index). So the table depends neither on the block size nor on the
    worker count.

    The GEMM runs in float32, into half the buffer a float64 block needs.
    Where its M is too coarse to screen a block (the first filter keeps
    more than twice the columns per row that a sharp one keeps, as in a
    tight cluster far from the centroid), that block and the rest are
    estimated in float64. Both give the same table.
    """
    A = as_matrix(X)
    n, d = A.shape
    check_int(k, "k", 1, n - 1)
    C, p = pow2_centre(A)
    lifted, swap = lift(C)  # lifted[i, swap] @ lifted[j] = -d²/2
    del C
    A = np.ldexp(A, -p) if p else A  # the rows C was centred from, for exact distances
    sq = -2.0 * lifted[:, d + 1]  # ‖c‖²
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

    def block(s, e, buf, lifted, slack, cap):
        r = e - s
        est = buf.view(lifted.dtype)[: r * n].reshape(r, n)
        np.matmul(lifted[s:e][:, swap], lifted.T, out=est)
        est[np.arange(r), np.arange(s, e)] = -np.inf  # self never a neighbor
        # The sample holds at least k columns besides the row itself (2k + 1
        # when strided), so at least k columns have an estimate at or above
        # t, and so -D²/2 at or above t - M: a column that ranks k or better
        # has -D²/2 at or above t - M too, and so an estimate at or above
        # t - 2M.
        t = np.partition(est[:, ::stride], -k, axis=1)[:, -k]
        flat = np.flatnonzero(est >= (t - slack[s:e])[:, None])
        if flat.size > cap * r:
            return None
        row = flat // n
        cand = est.ravel()[flat]
        # The same test against each row's own k-th estimate, found by
        # partitioning the candidates laid out one row per buffer row.
        counts = np.bincount(row, minlength=r)
        width = int(counts.max())
        pad = est.ravel()[: r * width].reshape(r, width)
        pad.fill(-np.inf)
        pad[row, np.arange(flat.size) - (np.cumsum(counts) - counts)[row]] = cand
        pad.partition(width - k, axis=1)
        keep = cand >= (pad[:, width - k] - slack[s:e])[row]
        row, flat = row[keep], flat[keep]
        col = flat - row * n
        diff = A[row + s]
        diff -= A[col]
        diff *= diff
        dist = np.sqrt(np.cumsum(diff, axis=1, out=diff)[:, -1])
        order = np.lexsort((col, dist, row))
        first = np.searchsorted(row, np.arange(r))
        pick = order[first[:, None] + np.arange(k)]
        return col[pick], dist[pick]

    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    rows = min(n, budget_rows(n))

    def fill(blocks, shift=0):
        """Copy the blocks into the table from row shift on; return the
        first row of the first block that returned None, or n."""
        for s, e, got in blocks:
            if got is None:
                blocks.close()
                return s + shift
            indices[s + shift : e + shift], distances[s + shift : e + shift] = got
        return n

    # The float32 screen. The lift, max |c| in [0.5, 1), is rounded to
    # float32 once without overflow or underflow, and N >= 1/4. With
    # u = 2^-24 and s float32's smallest subnormal, M' = 4(d + 2)(uN + s)
    # bounds |estimate + D²/2|. The rounding moves c_i.c_j by
    # (2u + u²)‖c_i‖‖c_j‖ <= 1.01uN and the two norms by uN/2; the float32
    # GEMM over d + 2 terms, whose absolute products sum to at most 1.01N,
    # errs by gamma_(d+2) 1.01N (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, §3.1); the float64 terms above add under 2^-29 of
    # that. With the rounding of N and of each float32 threshold that is
    # below (d + 5)uN. s covers float32's underflow and the float64 one of
    # the norms and the difference form, at most a float64 subnormal a term.
    small = lifted.astype(np.float32)
    sq32 = -2.0 * small[:, d + 1]  # ‖c‖² in float32
    margin = 8.0 * (d + 2) * (_UNIT_ROUNDOFF32 * (sq32 + sq32.max()) + _SUBNORMAL32)
    # A sharp screen keeps about stride * k columns per row; keeping more
    # than twice that, as in a tight cluster far from the centroid, says
    # that M' is too coarse for the block.
    work = functools.partial(block, lifted=small, slack=margin, cap=2 * stride * (k + 1))
    s = fill(row_blocks(n, rows, (rows * n + 1) // 2, work))  # half a float64 buffer
    del small, work  # not needed by the float64 finish
    if s < n:  # the rest in float64, with blocks of the same height

        def rest(a, b, buf):
            return block(a + s, b + s, buf, lifted, slack, n)

        fill(row_blocks(n - s, rows, rows * n, rest), s)
    return NeighborTable(k=k, indices=indices, distances=np.ldexp(distances, p, out=distances))


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
    check_int(k, "k", 2, A.shape[0] - 1)
    # pow2_scale's copy keeps 1/mean_reach in range; LOF's ratios are scale-free.
    table = knn_table(pow2_scale(A)[0], k)
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
    inverse covariance is never formed. It works on the one copy that
    linalg.pow2_centre makes, so the covariance neither overflows nor
    underflows at any scale of the data.
    When a direction is numerically null (PcaModel.rank < d), every
    eigenvalue is ridged by eps * trace/d so the score is always defined.
    The ridge also ranks the rows at n <= d, where the distance over the
    non-null components alone is (n - 1)^2 / n for every row.
    """
    A = as_matrix(X)
    if A.shape[0] < 2:
        raise InvalidInputError("need at least 2 rows")
    C = pow2_centre(A)[0]
    model = _fit_centred(C)
    d = C.shape[1]
    vals = model.eigenvalues
    if model.rank < d:
        trace = model.total_variance
        # S + ridge*I has the same eigenvectors, with every eigenvalue shifted.
        vals = vals + _RIDGE_EPS * (trace / d if trace > 0.0 else 1.0)
    Z = C @ model.components
    Z /= np.sqrt(vals)
    Z *= Z
    return np.sum(Z, axis=1)
