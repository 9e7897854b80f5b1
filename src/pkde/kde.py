"""Multivariate Gaussian kernel density estimation with a Scott's-rule
bandwidth, evaluated by exact summation over the sample points.

The estimate at x is the average of Gaussian kernels centered at each sample:
f(x) = (1/n) * sum_i K_H(x - x_i), with K_H the multivariate normal density
with covariance H. All ranking paths work in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularBandwidthError
from .linalg import as_matrix, as_vector

# Below this Cholesky pivot, relative to trace(H), the bandwidth is singular.
_SINGULAR_REL = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))

# A kernel row sum below this may have lost terms to underflow. exp() loses
# precision below about 2.2e-308, and n such terms stay negligible against
# 1e-280 for any n a dense sum can reach.
_UNDERFLOW_SUM = 1e-280


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


def _spd_inverse_logdet(H: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of H from one Cholesky factor H = L Lᵀ.

    A pivot L_ii² at or below _SINGULAR_REL * trace(H) is a (near-)zero
    direction; the test is relative, so it does not depend on data scale.
    """
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        L = None
    if L is None or not np.all(np.diag(L) ** 2 > _SINGULAR_REL * float(np.trace(H))):
        raise SingularBandwidthError(
            "bandwidth matrix is singular or near-singular; reduce the "
            "dimension to drop the degenerate direction"
        )
    L_inv = np.linalg.inv(L)
    return L_inv.T @ L_inv, float(2.0 * np.sum(np.log(np.diag(L))))


def scott_bandwidth(S, n: int, rule: str = "scott") -> Bandwidth:
    """Bandwidth H = n^(-1/(d+4)) * S from a covariance estimate S.

    rule "scott-squared" applies the square of the factor instead, the
    conventional covariance-form variant of the same rule.
    """
    A = as_matrix(S, "S")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"covariance must be square, got {A.shape}")
    if n < 2:
        raise InvalidInputError(f"bandwidth needs n >= 2 samples, got {n}")
    if rule not in ("scott", "scott-squared"):
        raise InvalidInputError(f"unknown bandwidth rule {rule!r}")
    d = A.shape[0]
    factor = float(n) ** (-1.0 / (d + 4))
    scale = factor * factor if rule == "scott-squared" else factor
    H = 0.5 * scale * (A + A.T)
    H_inv, log_det = _spd_inverse_logdet(H)
    return Bandwidth(H=H, H_inv=H_inv, log_det_H=log_det, scott_factor=scale)


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


def _log_kernel_const(bw: Bandwidth, d: int) -> float:
    return -0.5 * d * _LOG_2PI - 0.5 * bw.log_det_H


def gaussian_kernel(x, bw: Bandwidth) -> float:
    """Multivariate normal kernel K_H(x), computed through log space."""
    v = as_vector(x, "x")
    d = bw.H.shape[0]
    if v.shape[0] != d:
        raise InvalidInputError(f"x has length {v.shape[0]}, bandwidth is {d}-dim")
    quad = max(float(v @ bw.H_inv @ v), 0.0)
    return float(np.exp(_log_kernel_const(bw, d) - 0.5 * quad))


def density(model: KdeModel, query) -> float:
    """f(query) by exact summation over all samples (self included when the
    query is one of them), through the same kernel sum as log_density_all."""
    q = as_vector(query, "query")
    if q.shape[0] != model.d:
        raise InvalidInputError(
            f"query has length {q.shape[0]}, model is {model.d}-dimensional"
        )
    return float(np.exp(_log_kernel_sum(model, q[None, :])[0]))


def _log_kernel_sum(model: KdeModel, Q: np.ndarray | None) -> np.ndarray:
    """log of the average kernel over the samples at each row of Q.

    Q=None scores the samples themselves with the self term left out, so the
    average runs over the other n-1. Points are whitened, z = Wᵀ(x - mean)
    with W Wᵀ = H_inv, which makes every kernel isotropic; centering first
    keeps the expansion below from cancelling badly far from the origin.

    The norms ride in the GEMM: samples are lifted to [z, 1, -‖z‖²/2] and
    query rows to [z, -‖z‖²/2, 1], so one product gives -‖z_q - z_i‖²/2.
    Rows go in blocks of 4_000_000 // n through one buffer, exponentiated in
    place and summed unshifted. With Q=None the matrix is symmetric, so block
    [s, e) meets only columns [s, n): its row sums go to rows [s, e), and its
    column sums past the block go to rows [e, n), which covers each pair once.
    A row sum below _UNDERFLOW_SUM (or NaN) may have lost terms to underflow;
    such rows are summed again exactly, shifted by their largest term.
    """
    n, m = model.n, model.d
    W = np.linalg.cholesky(model.bandwidth.H_inv)
    shift = model.samples.mean(axis=0)

    def lift(X, h):
        """Whitened rows with -‖z‖²/2 in column h and 1 in the other extra one."""
        out = np.empty((X.shape[0], m + 2))
        np.matmul(X - shift, W, out=out[:, :m])
        out[:, m:] = 1.0
        out[:, h] = -0.5 * np.einsum("ij,ij->i", out[:, :m], out[:, :m])
        return out

    B = lift(model.samples, m + 1)
    swap = np.r_[:m, m + 1, m]

    def rows(idx):
        return B[idx][:, swap] if Q is None else lift(Q[idx], m)

    nq = n if Q is None else Q.shape[0]
    chunk = max(1, int(4_000_000 // n))
    buf = np.empty(min(chunk, nq) * n)
    sums = np.zeros(nq)
    for s in range(0, nq, chunk):
        e = min(s + chunk, nq)
        c = s if Q is None else 0
        k = buf[: (e - s) * (n - c)].reshape(e - s, n - c)
        np.matmul(rows(slice(s, e)), B[c:].T, out=k)
        np.exp(k, out=k)
        if Q is None:
            np.fill_diagonal(k, 0.0)
            sums[e:] += k[:, e - s :].sum(axis=0)
        sums[s:e] += k.sum(axis=1)

    redo = np.flatnonzero(~(sums >= _UNDERFLOW_SUM))
    sums[redo] = 1.0
    out = np.log(sums, out=sums)
    for s in range(0, redo.size, chunk):
        idx = redo[s : s + chunk]
        k = buf[: idx.size * n].reshape(idx.size, n)
        np.matmul(rows(idx), B.T, out=k)
        np.minimum(k, 0.0, out=k)
        if Q is None:
            k[np.arange(idx.size), idx] = -np.inf
        peak = k.max(axis=1)
        k -= peak[:, None]
        np.exp(k, out=k)
        out[idx] = peak + np.log(k.sum(axis=1))
    count = n - 1 if Q is None else n
    return out + (_log_kernel_const(model.bandwidth, m) - np.log(count))


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
    return _log_kernel_sum(model, Q)


def log_density_loo(model: KdeModel) -> np.ndarray:
    """log of the leave-one-out density of every sample point: the average
    kernel over the other n-1 samples.

    Dropping the self term is a uniform shift of the estimate, so the
    ranking matches the self-inclusive density in exact arithmetic. In high
    dimension it is also the only ranking float64 can represent: the self
    kernel K_H(0) dwarfs every other term, and the self-inclusive sum
    rounds to the same value for every point.
    """
    return _log_kernel_sum(model, None)
