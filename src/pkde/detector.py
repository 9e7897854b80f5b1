"""The PCA + KDE detection pipeline and the shared detector dispatch.

Pipeline: fit PCA on the data, keep enough components to cover the variance
threshold (or a fixed count), fit a Scott-bandwidth KDE on the projected
data, score every point by negative log density and label the K points with
the lowest density, K = ceil(contamination * n). A score is exact where it
decides the labels and a certified bound elsewhere (DetectionResult.exact).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .errors import DegenerateDataError, InvalidInputError, NumericalError
from .kde import BANDWIDTH_RULES, _loo_top_k, _scott_scale, _Whitened
from .linalg import (
    _as_float64, _one_blas_thread, as_matrix, check_int, check_real, lowest_k, pow2_scale,
)
from .pca import choose_dim, fit_pca


@dataclass(frozen=True)
class DetectorConfig:
    contamination: float
    variance_threshold: float = 0.90
    fixed_dim: int | None = None
    bandwidth_rule: str = "scott"
    neighbors: int = 10  # k for the kNN-distance and LOF baselines

    def __post_init__(self):
        check_real(self.contamination, "contamination", 0.5)
        check_real(self.variance_threshold, "variance_threshold", 1.0)
        if self.fixed_dim is not None:
            check_int(self.fixed_dim, "fixed_dim", 1)
        if self.bandwidth_rule not in BANDWIDTH_RULES:
            raise InvalidInputError(
                f"bandwidth_rule must be {' or '.join(map(repr, BANDWIDTH_RULES))}, "
                f"got {self.bandwidth_rule!r}"
            )
        check_int(self.neighbors, "neighbors", 1)


@dataclass(frozen=True)
class DetectionResult:
    scores: np.ndarray  # higher = more anomalous (negative log density)
    labels: np.ndarray  # 1 = outlier, exactly k_used ones
    k_used: int
    reduced_dim: int
    # False where a PKDE score is a certified bound rather than exact: at
    # least the exact score, and below the k_used-th largest score.
    exact: np.ndarray
    # fit_time covers the whole scorer; score_time only the top-K cut.
    fit_time: float = 0.0
    score_time: float = 0.0


def top_k_select(scores, k: int) -> np.ndarray:
    """Binary labels marking the k largest scores, as the first k of
    np.argsort(-scores, kind="stable") would: boundary ties go to the lower
    index and NaN scores come last."""
    s = _as_float64(scores, "scores")
    if s.ndim != 1:
        raise InvalidInputError("scores must be a 1-D vector")
    check_int(k, "k", 1, s.shape[0])
    labels = np.zeros(s.shape[0], dtype=np.int64)
    labels[lowest_k(-s, k)] = 1
    return labels


def k_from_contamination(contamination: float, n: int) -> int:
    # ceil(contamination * n) on the decimal value, in integers: in floats
    # 0.07 * 100 is 7.000000000000001, and fractions takes 3 ms to import.
    digits, _, exp = repr(float(contamination)).partition("e")
    whole, _, frac = digits.partition(".")
    return -(-int(whole + frac) * n // 10 ** (len(frac) - int(exp or 0)))


def _pkde_samples(X, config: DetectorConfig):
    """(whitened samples, m, p): PKDE's KDE samples, the PCA projection of
    X * 2**-p onto m components, whitened and lifted (kde._Whitened).

    H = diag(h), the projection's covariance diag(eigenvalues[:m]) times the
    Scott factor, so whitening divides each centred column by sqrt(h).
    Only this frame holds the scaled copy and the projection, freed on return.
    """
    A, p = pow2_scale(X)
    model = fit_pca(A)
    if model.rank == 0:
        raise DegenerateDataError("all columns are constant; nothing to score")
    wanted = config.fixed_dim or choose_dim(model, config.variance_threshold)
    m = min(wanted, model.rank)  # numerically null directions always go
    reduced = np.subtract(A, model.mean, out=A) @ model.components[:, :m]
    del A
    h = _scott_scale(reduced.shape[0], m, config.bandwidth_rule) * model.eigenvalues[:m]
    reduced -= reduced.mean(axis=0)
    reduced /= np.sqrt(h)
    return _Whitened(reduced, float(np.sum(np.log(h)))), m, p


def _pkde_scores(X, config: DetectorConfig):
    """Negative log KDE density of every row in the reduced space, exact
    where it decides the top K and a certified bound elsewhere.

    Returns (scores, reduced dimension used, exact mask).
    """
    wh, m, p = _pkde_samples(X, config)
    # Rank by the leave-one-out density: same label set as the self-inclusive
    # estimate (the self kernel is the same constant for every point) but it
    # stays resolvable in float64 when the self term dominates in high d.
    # An m-dimensional density at scale 2**p is the density of X over 2**(p*m).
    offset = m * p * math.log(2.0)
    k = k_from_contamination(config.contamination, wh.n)
    log_density, exact = _loo_top_k(wh, k, offset)
    return offset - log_density, m, exact


def pkde_fit_score(X, config: DetectorConfig) -> DetectionResult:
    """Run the full pipeline and label the top-K lowest-density points."""
    return detect("pkde", X, config)


def _knn_scores(X, config: DetectorConfig):
    A, p = pow2_scale(X)
    k = min(config.neighbors, A.shape[0] - 1)
    return np.ldexp(baselines.knn_dist_score(A, k), p), A.shape[1], None


def _lof_scores(X, config: DetectorConfig):
    k = min(max(config.neighbors, 2), X.shape[0] - 1)
    return baselines.lof_score(pow2_scale(X)[0], k), X.shape[1], None


def _mahalanobis_scores(X, config: DetectorConfig):
    return baselines.mahalanobis_score(pow2_scale(X)[0]), X.shape[1], None


# detector id -> (fewest rows, scorer(X, config)). A scorer scores X, the
# matrix detect() has checked, through its own copy A = X * 2**-p
# (linalg.pow2_scale: max |A| in [0.5, 1)), made in the scorer so that it
# can be freed before the scorer returns; detect's frame would hold it to
# the end. It returns (scores, effective dimension, exact mask or None if
# all are exact). LOF and Mahalanobis scores do not depend on the scale.
_SCORERS = {
    "pkde": (3, _pkde_scores),
    "mahalanobis": (2, _mahalanobis_scores),
    "knn-dist": (2, _knn_scores),
    "lof": (3, _lof_scores),
}

DETECTOR_IDS = tuple(_SCORERS)


def detect(name: str, X, config: DetectorConfig) -> DetectionResult:
    """Run the named detector, its BLAS on one OpenBLAS thread, and threshold
    its scores at the configured contamination."""
    try:
        fewest, scorer = _SCORERS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown detector {name!r}; known: {', '.join(DETECTOR_IDS)}"
        ) from None
    A = as_matrix(X)
    if A.shape[0] < fewest:
        raise InvalidInputError(f"need at least {fewest} rows, got {A.shape[0]}")
    t0 = time.perf_counter()
    with _one_blas_thread():
        scores, dim, exact = scorer(A, config)
    t1 = time.perf_counter()
    bad = int(np.sum(~np.isfinite(scores)))
    if bad:
        raise NumericalError(
            f"{name} produced {bad} non-finite scores of {scores.shape[0]}"
        )
    k = k_from_contamination(config.contamination, A.shape[0])
    labels = top_k_select(scores, k)
    t2 = time.perf_counter()
    return DetectionResult(
        scores=scores,
        labels=labels,
        k_used=k,
        reduced_dim=dim,
        exact=np.ones(scores.shape[0], dtype=bool) if exact is None else exact,
        fit_time=t1 - t0,
        score_time=t2 - t1,
    )
