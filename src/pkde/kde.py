"""Multivariate Gaussian kernel density estimation with a Scott's-rule
bandwidth, evaluated by exact summation over the sample points.

The estimate at x is the average of Gaussian kernels centered at each sample:
f(x) = (1/n) * sum_i K_H(x - x_i), with K_H the multivariate normal density
with covariance H. All ranking paths work in log space. log_density_loo_top_k
finds the k lowest leave-one-out densities from local lower bounds, summing
exactly only the rows that can fall among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularBandwidthError
from .linalg import (
    _one_blas_thread, as_matrix, as_vector, check_int, lift, lowest_k, rank_of, row_blocks,
    sym_eigen,
)

_LOG_2PI = float(np.log(2.0 * np.pi))

# A kernel row sum below this may have lost terms to underflow. exp() loses
# precision below about 2.2e-308, and n such terms stay negligible against
# 1e-280 for any n a dense sum can reach.
_UNDERFLOW_SUM = 1e-280

# The rules scott_bandwidth takes.
BANDWIDTH_RULES = ("scott", "scott-squared")

# log_density_loo_top_k bounds each row by its kernel sum over leaves of at
# most this many rows: its own and the one on each side.
_LEAF_ROWS = 256

# _log_kernel_sum works in tiles of at most this many rows by this many
# columns, 1 MB of float64s per worker: each product is exponentiated and
# summed while it is still in cache, and the GEMM keeps its speed at any n.
_TILE_ROWS = 128
_TILE_COLS = 1024


@dataclass(frozen=True)
class Bandwidth:
    """Symmetric positive-definite bandwidth matrix with cached inverse,
    log-determinant and the sample-size scaling that produced it."""

    H: np.ndarray
    H_inv: np.ndarray
    log_det_H: float
    scott_factor: float


@dataclass(frozen=True)
class KdeModel:
    samples: np.ndarray
    bandwidth: Bandwidth
    n: int
    d: int


def scott_bandwidth(S, n: int, rule: str = "scott") -> Bandwidth:
    """Bandwidth H = n^(-1/(d+4)) * S from a covariance estimate S.

    rule "scott-squared" applies the square of the factor instead, the
    conventional covariance-form variant of the same rule. A numerically
    null direction of (S + Sᵀ)/2 (linalg.rank_of) raises SingularBandwidthError.
    H_inv and log det H come from the same eigendecomposition (linalg.sym_eigen).
    """
    A = as_matrix(S, "S")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"covariance must be square, got {A.shape}")
    check_int(n, "n", 2)
    if rule not in BANDWIDTH_RULES:
        raise InvalidInputError(f"unknown bandwidth rule {rule!r}")
    d = A.shape[0]
    scale = _scott_scale(n, d, rule)
    S_sym = 0.5 * (A + A.T)
    eig = sym_eigen(S_sym)
    if rank_of(eig.eigenvalues) != d:
        raise SingularBandwidthError(
            "bandwidth matrix is singular or near-singular; reduce the "
            "dimension to drop the degenerate direction"
        )
    h = scale * eig.eigenvalues  # the eigenvalues of H
    W = eig.eigenvectors / np.sqrt(h)  # W @ W.T is exactly symmetric
    return Bandwidth(scale * S_sym, W @ W.T, float(np.sum(np.log(h))), scale)


def _scott_scale(n: int, d: int, rule: str) -> float:
    """The Scott factor n^(-1/(d+4)), squared under rule "scott-squared"."""
    factor = float(n) ** (-1.0 / (d + 4))
    return factor * factor if rule == "scott-squared" else factor


def fit_kde(samples, bandwidth: Bandwidth) -> KdeModel:
    """Bundle reference samples with a bandwidth of matching dimension."""
    X = as_matrix(samples, "samples")
    n, d = X.shape
    if n < 2:
        raise InvalidInputError(f"KDE needs at least 2 samples, got {n}")
    if bandwidth.H.shape[0] != d:
        raise InvalidInputError(
            f"bandwidth is {bandwidth.H.shape[0]}-dimensional, samples are {d}"
        )
    return KdeModel(samples=X, bandwidth=bandwidth, n=n, d=d)


def gaussian_kernel(x, bw: Bandwidth) -> float:
    """Multivariate normal kernel K_H(x), computed through log space."""
    v = as_vector(x, "x")
    d = bw.H.shape[0]
    if v.shape[0] != d:
        raise InvalidInputError(f"x has length {v.shape[0]}, bandwidth is {d}-dim")
    z = v @ _whitener(bw)
    quad = float(z @ z)
    return float(np.exp(-0.5 * d * _LOG_2PI - 0.5 * bw.log_det_H - 0.5 * quad))


def density(model: KdeModel, query) -> float:
    """f(query) by exact summation over all samples (self included when the
    query is one of them), through the same kernel sum as log_density_all."""
    q = as_vector(query, "query")
    if q.shape[0] != model.d:
        raise InvalidInputError(
            f"query has length {q.shape[0]}, model is {model.d}-dimensional"
        )
    return float(np.exp(log_density_all(model, q[None, :])[0]))


class _Whitened:
    """Whitened KDE samples z, in which every kernel is isotropic, lifted to
    B = [z, 1, -‖z‖²/2] (linalg.lift): B[i, swap] @ B[j] = -‖z_i - z_j‖²/2.
    const is the log kernel constant, -(d log 2π + log det H)/2."""

    def __init__(self, Z: np.ndarray, log_det_H: float):
        self.n, self.d = Z.shape
        self.const = -0.5 * self.d * _LOG_2PI - 0.5 * log_det_H
        self.B, self.swap = lift(Z)


def _whitener(bw: Bandwidth) -> np.ndarray:
    """W = V diag(√g) Vᵀ, the symmetric root of H_inv = V diag(g) Vᵀ (sym_eigen): ‖Wᵀv‖²
    = vᵀ H_inv v whichever eigenvectors LAPACK picks for a tied g, and W = diag(√H_inv)
    bit for bit for a diagonal H_inv. Not positive definite: SingularBandwidthError."""
    eig = sym_eigen(bw.H_inv, "H_inv")
    if not eig.eigenvalues[-1] > 0.0:
        raise SingularBandwidthError("bandwidth matrix is not positive definite")
    return (eig.eigenvectors * np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.T


def _whiten(model: KdeModel, Q=None):
    """(the model's samples as a _Whitened, Q whitened alike or None), with
    z = Wᵀ(x - mean), W = _whitener(bandwidth)."""
    shift = model.samples.mean(axis=0)
    W = _whitener(model.bandwidth)
    wh = _Whitened((model.samples - shift) @ W, model.bandwidth.log_det_H)
    return wh, None if Q is None else (Q - shift) @ W


def _products(rows: np.ndarray, B: np.ndarray, out: np.ndarray) -> None:
    """out = rows @ B.T. numpy sends a one-row product to gemv, which rounds
    differently from gemm, so a lone row goes in twice. gemm itself still
    rounds rows at its tile edges differently, so an entry can move in the
    last bit with the number of rows in the product."""
    if rows.shape[0] == 1:
        out[:] = np.matmul(np.vstack([rows, rows]), B.T)[:1]
    else:
        np.matmul(rows, B.T, out=out)


def _kernels(L: np.ndarray, C: np.ndarray, buf: np.ndarray, own=None) -> np.ndarray:
    """exp(L @ C.T) in the front of buf: the kernel terms of the lifted rows
    L (in swap order) against the lifted samples C, with row i's self term,
    column own[i] of C, set to 0 where C has that column."""
    k = buf[: L.shape[0] * C.shape[0]].reshape(L.shape[0], C.shape[0])
    _products(L, C, k)
    np.exp(k, out=k)
    if own is not None:
        i = np.flatnonzero((own >= 0) & (own < C.shape[0]))
        k[i, own[i]] = 0.0
    return k


def _log_kernel_sum(wh: _Whitened, Q: np.ndarray | None, rows=None) -> np.ndarray:
    """log of the average kernel over the samples at each row of Q.

    Q=None scores sample rows instead, with the self term left out, so the
    average runs over the other n-1: all n samples in one symmetric pass, or
    with `rows` (sample indices) only those rows, each summed over all n
    samples like a query row.

    Q comes whitened like the samples (_whiten); centering first keeps
    the expansion below from cancelling badly far from the origin. The norms ride in the
    GEMM: samples are lifted to [z, 1, -‖z‖²/2] and query rows to
    [z, -‖z‖²/2, 1], so one product gives -‖z_q - z_i‖²/2.
    Rows go in linalg.row_blocks blocks of _TILE_ROWS, and each block walks
    its columns in tiles of _TILE_COLS, exponentiated in place in its
    worker's buffer and summed unshifted; a row's tile sums are added in
    column order. The symmetric pass pairs block [s, e) only with columns
    [s, n), with the self term masked where the diagonal crosses a tile:
    its row sums go to rows [s, e), and its column sums past the block go
    to rows [e, n), which covers each pair once. Those are added in block
    order, so a run repeats bit for bit whichever worker ran which block,
    at any worker count; the tile shape moves a sum only in the last bits
    (_products). A row sum below _UNDERFLOW_SUM (or NaN) may have lost
    terms to underflow; such rows are summed again exactly over all n
    samples, shifted by their largest term, in blocks of whole rows that
    hold no more than a tile.
    """
    B, swap, n = wh.B, wh.swap, wh.n
    idx = np.arange(n) if rows is None else rows  # with Q=None
    symmetric = Q is None and rows is None

    def lifted(i):
        if Q is not None:
            return lift(Q[i])[0][:, swap]
        return B[idx[i]][:, swap]

    def block_sums(s, e, buf):
        L, own = lifted(slice(s, e)), None if Q is not None else idx[s:e]
        row = np.zeros(e - s)
        col = np.empty(n - e) if symmetric else None
        for c in range(s if symmetric else 0, n, _TILE_COLS):
            d = min(c + _TILE_COLS, n)
            k = _kernels(L, B[c:d], buf, None if own is None else own - c)
            row += k.sum(axis=1)
            if symmetric and d > e:
                f = max(c, e)  # the first column past the block
                col[f - e : d - e] = k[:, f - c :].sum(axis=0)
        return row, col

    def shifted_sums(s, e, buf):
        i = redo[s:e]
        k = buf[: i.size * n].reshape(i.size, n)
        _products(lifted(i), B, k)
        np.minimum(k, 0.0, out=k)
        if Q is None:
            k[np.arange(i.size), idx[i]] = -np.inf
        peak = k.max(axis=1)
        k -= peak[:, None]
        np.exp(k, out=k)
        return peak + np.log(k.sum(axis=1))

    nq = idx.size if Q is None else Q.shape[0]
    sums = np.zeros(nq)
    tile = min(nq, _TILE_ROWS) * min(n, _TILE_COLS)
    for s, e, (row, col) in row_blocks(nq, _TILE_ROWS, tile, block_sums):
        sums[s:e] += row
        if col is not None:
            sums[e:] += col

    redo = np.flatnonzero(~(sums >= _UNDERFLOW_SUM))
    sums[redo] = 1.0
    out = np.log(sums, out=sums)
    whole = max(1, _TILE_ROWS * _TILE_COLS // n)
    for s, e, exact in row_blocks(redo.size, whole, min(whole, redo.size) * n, shifted_sums):
        out[redo[s:e]] = exact
    count = n - 1 if Q is None else n
    return out + (wh.const - np.log(count))


def log_density_all(model: KdeModel, queries) -> np.ndarray:
    """log f(q) for every query row, via a log-sum-exp reduction.

    Agrees with exp-of-density wherever density() does not underflow, but
    stays finite for far queries in high dimension.
    """
    Q = as_matrix(queries, "queries")
    if Q.shape[1] != model.d:
        raise InvalidInputError(
            f"queries have {Q.shape[1]} columns, model is {model.d}-dimensional"
        )
    return _log_kernel_sum(*_whiten(model, Q))


def log_density_loo(model: KdeModel) -> np.ndarray:
    """log of the leave-one-out density of every sample point: the average
    kernel over the other n-1 samples.

    Dropping the self term is a uniform shift of the estimate, so the
    ranking matches the self-inclusive density in exact arithmetic. In high
    dimension it is also the only ranking float64 can represent: the self
    kernel K_H(0) dwarfs every other term, and the self-inclusive sum
    rounds to the same value for every point.
    """
    return _log_kernel_sum(*_whiten(model))


def _leaf_order(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the rows of Z in leaf order, and where each leaf
    starts in it, with len(Z) last.

    Each segment of more than _LEAF_ROWS rows is split on its widest
    coordinate, at the boundary between two distinct values nearest its
    median, so equal values stay on one side and which rows share a leaf
    depends only on the values, not on the row order. A segment of identical
    rows is cut at its middle, since its rows are interchangeable.
    """
    n = Z.shape[0]
    # Its rows reduce much faster than Z's columns. Each split permutes its
    # segment in place, one coordinate row at a time, so it stays the only copy.
    ZT = np.ascontiguousarray(Z.T)
    order = np.arange(n)
    starts = []
    todo = [(0, n)]
    while todo:
        s, e = todo.pop()
        if e - s <= _LEAF_ROWS:
            starts.append(s)
            continue
        P = ZT[:, s:e]
        span = P.max(axis=1) - P.min(axis=1)
        c = int(np.argmax(span))
        h = (e - s) // 2
        if span[c] == 0.0:
            cut = h
        else:
            v = P[c]
            median = np.partition(v, h)[h]
            left = v < median
            lo = int(np.count_nonzero(left))
            hi = int(np.count_nonzero(v <= median))
            cut = lo
            if lo == 0 or (hi < e - s and hi - h < h - lo):
                left, cut = v <= median, hi
            perm = np.concatenate([np.flatnonzero(left), np.flatnonzero(~left)])
            order[s:e] = order[s:e][perm]
            for row in P:
                row[:] = row[perm]
        todo += [(s + cut, e), (s, s + cut)]  # the left half comes off first
    return order, np.array(starts + [n])


def _log_local_bounds(wh: _Whitened) -> np.ndarray | None:
    """A lower bound on log_density_loo at every sample, or None when it
    would cost as many kernel terms as the symmetric full sum.

    The bound of a row is its self-masked kernel sum over its own leaf and
    the neighbouring leaf on each side (_leaf_order, on the whitened rows):
    every kernel term is positive, so a partial sum is a lower bound. Leaf
    j's rows make one product with the rows of leaves j and j+1, gathered
    through the leaf order, in a buffer of 2 * (largest leaf)^2 floats,
    with the self terms on its diagonal. Its row sums go to leaf j's rows
    and its column sums over leaf j+1 to leaf j+1's rows, both as products
    with a ones vector. The leaves go in order on the calling thread, with
    OpenBLAS held to one thread. Each product depends only on its two
    leaves, and a row adds at most two of them, so a bound depends on
    neither the worker count nor the tile shape. A sum below _UNDERFLOW_SUM
    counts as 0. The fallback counts each row's window of three leaves
    against the n(n-1)/2 pairs of the full sum.
    """
    n, m = wh.n, wh.d
    order, starts = _leaf_order(wh.B[:, :m])
    leaves = np.arange(starts.size - 1)
    lo = starts[np.maximum(leaves - 1, 0)]
    hi = starts[np.minimum(leaves + 2, leaves.size)]
    sizes = np.diff(starts)
    if int(sizes @ (hi - lo)) >= n * (n - 1) // 2:
        return None

    sums = np.zeros(n)  # in leaf order
    buf = np.empty(2 * int(sizes.max()) ** 2)
    ones = np.ones(2 * int(sizes.max()))
    with _one_blas_thread():
        for j in leaves:
            a, b, c = starts[j], starts[j + 1], starts[min(j + 2, leaves.size)]
            rows = wh.B[order[a:c]]  # leaves j and j + 1
            k = _kernels(rows[: b - a][:, wh.swap], rows, buf)
            np.fill_diagonal(k, 0.0)  # the self terms
            sums[a:b] += k @ ones[: c - a]
            sums[b:c] += ones[: b - a] @ k[:, b - a :]
    sums[~(sums >= _UNDERFLOW_SUM)] = 0.0
    with np.errstate(divide="ignore"):
        np.log(sums, out=sums)
    out = np.empty(n)
    out[order] = sums
    return out + (wh.const - np.log(n - 1))


def log_density_loo_top_k(model: KdeModel, k: int, offset: float = 0.0):
    """(log density, exact): log_density_loo where exact is True, and a lower
    bound on it elsewhere, such that the k lowest exact values are the k
    lowest of the full sum and every bound lies above them.

    Rows whose bound (_log_local_bounds) may fall among the k lowest get
    exact sums, in two rounds through _log_kernel_sum. Round 1 sums the k
    rows with the lowest bounds; t is the highest of those k values. Round 2
    sums every other row with a bound at or below t plus a slack of
    1e-12 * max(1, |t|, |offset|). A row left out then has a bound, and so
    a density, above t, and t is at least the k-th lowest density, which
    proves the k lowest exact values are the k lowest of all. The slack
    covers the rounding between a partial sum and a full sum, and of
    offset - value, the scores the caller makes; so offset - bound is at
    least the row's exact score and strictly below the k-th highest score.
    Round 1 takes its rows in the order of a stable sort of the bounds,
    found by a partition (linalg.lowest_k).

    Everything is exact, and equal to log_density_loo, when k > n/4, when
    the bounds would cost as much as the full sum, or when round 2 would make
    more than n/4 rows exact; then the symmetric full sum is returned. Before
    round 1, its row with the highest bound is summed alone: the rows outside
    round 1 with bounds below that sum minus the slack are all in round 2, so
    when k plus their count exceeds n/4 the full sum comes without round 1.
    """
    return _loo_top_k(_whiten(model)[0], k, offset)


def _loo_top_k(wh: _Whitened, k: int, offset: float):
    """log_density_loo_top_k from the lifted samples alone."""
    n = wh.n
    check_int(k, "k", 1, n)
    out = None if 4 * k > n else _log_local_bounds(wh)  # replaced where summed
    if out is not None:
        exact = np.zeros(n, dtype=bool)
        first = lowest_k(out, k)
        exact[first] = True

        def slack(t):
            return 1e-12 * max(1.0, abs(t), abs(offset))

        # t is at least the exact sum of round 1's row with the highest bound,
        # so the rows outside round 1 with bounds below that sum go to round 2.
        low = float(_log_kernel_sum(wh, None, rows=first[-1:])[0])
        if 4 * (k + np.count_nonzero(out[~exact] < low - slack(low))) <= n:
            out[first] = _log_kernel_sum(wh, None, rows=first)
            t = float(out[first].max())
            second = np.flatnonzero((out <= t + slack(t)) & ~exact)
            if 4 * (k + second.size) <= n:
                out[second] = _log_kernel_sum(wh, None, rows=second)
                exact[second] = True
                return out, exact
    return _log_kernel_sum(wh, None), np.ones(n, dtype=bool)
