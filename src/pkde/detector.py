"""The PCA + KDE detection pipeline and the shared detector dispatch.

Pipeline: fit PCA on the data, keep enough components to cover the variance
threshold (or a fixed count), fit a Scott-bandwidth KDE on the projected
data, score every point by negative log density and label the K points with
the lowest density, K = ceil(contamination * n).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .errors import DegenerateDataError, InvalidInputError, NumericalError
from .kde import fit_kde, log_density_loo, scott_bandwidth
from .linalg import as_matrix, covariance
from .pca import choose_dim, fit_pca, project

# Components with eigenvalue below this fraction of the leading one are
# numerically rank-deficient and always dropped before KDE.
_RANK_REL = 1e-12


@dataclass(frozen=True)
class DetectorConfig:
    contamination: float
    variance_threshold: float = 0.90
    fixed_dim: int | None = None
    bandwidth_rule: str = "scott"
    neighbors: int = 10  # k for the kNN-distance and LOF baselines

    def __post_init__(self):
        if not 0.0 < self.contamination <= 0.5:
            raise InvalidInputError(
                f"contamination must be in (0, 0.5], got {self.contamination}"
            )
        if not 0.0 < self.variance_threshold <= 1.0:
            raise InvalidInputError(
                f"variance_threshold must be in (0, 1], got {self.variance_threshold}"
            )
        if self.fixed_dim is not None and self.fixed_dim < 1:
            raise InvalidInputError(f"fixed_dim must be >= 1, got {self.fixed_dim}")
        if self.bandwidth_rule not in ("scott", "scott-squared"):
            raise InvalidInputError(
                f"bandwidth_rule must be 'scott' or 'scott-squared', "
                f"got {self.bandwidth_rule!r}"
            )
        if self.neighbors < 1:
            raise InvalidInputError(f"neighbors must be >= 1, got {self.neighbors}")


@dataclass(frozen=True)
class DetectionResult:
    scores: np.ndarray  # higher = more anomalous (negative log density)
    labels: np.ndarray  # 1 = outlier, exactly k_used ones
    k_used: int
    reduced_dim: int
    # fit_time covers the whole scorer; score_time only the top-K cut.
    fit_time: float = 0.0
    score_time: float = 0.0


def top_k_select(scores, k: int) -> np.ndarray:
    """Binary labels marking the k largest scores; boundary ties go to the
    lower index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise InvalidInputError("scores must be a 1-D vector")
    if not 1 <= k <= s.shape[0]:
        raise InvalidInputError(f"k={k} out of range [1, {s.shape[0]}]")
    order = np.argsort(-s, kind="stable")
    labels = np.zeros(s.shape[0], dtype=np.int64)
    labels[order[:k]] = 1
    return labels


def k_from_contamination(contamination: float, n: int) -> int:
    return math.ceil(contamination * n)


def _pkde_scores(A, config: DetectorConfig) -> tuple[np.ndarray, int]:
    """Negative log KDE density of every row in the reduced space.

    Returns (scores, reduced dimension used).
    """
    if A.shape[0] < 3:
        raise InvalidInputError(f"need at least 3 rows, got {A.shape[0]}")
    model = fit_pca(A)
    if model.total_variance <= 0.0:
        raise DegenerateDataError("all columns are constant; nothing to score")
    if config.fixed_dim is not None:
        m = min(config.fixed_dim, model.components.shape[1])
    else:
        m = choose_dim(model, config.variance_threshold)
    # Drop numerically rank-deficient directions regardless of the threshold.
    rank = int(np.sum(model.eigenvalues >= _RANK_REL * model.eigenvalues[0]))
    m = min(m, max(rank, 1))
    reduced = project(model, A, m)
    S_red = covariance(reduced)
    bw = scott_bandwidth(S_red, A.shape[0], rule=config.bandwidth_rule)
    kde = fit_kde(reduced, bw)
    # Rank by the leave-one-out density: same label set as the self-inclusive
    # estimate (the self kernel is the same constant for every point) but it
    # stays resolvable in float64 when the self term dominates in high d.
    return -log_density_loo(kde), m


def pkde_fit_score(X, config: DetectorConfig) -> DetectionResult:
    """Run the full pipeline and label the top-K lowest-density points."""
    return detect("pkde", X, config)


def _knn_scores(A, config: DetectorConfig) -> tuple[np.ndarray, int]:
    k = min(config.neighbors, A.shape[0] - 1)
    return baselines.knn_dist_score(A, k), A.shape[1]


def _lof_scores(A, config: DetectorConfig) -> tuple[np.ndarray, int]:
    k = min(max(config.neighbors, 2), A.shape[0] - 1)
    return baselines.lof_score(A, k), A.shape[1]


def _mahalanobis_scores(A, config: DetectorConfig) -> tuple[np.ndarray, int]:
    return baselines.mahalanobis_score(A), A.shape[1]


# detector id -> callable(A, config) -> (scores, effective dimension), where
# A is the matrix detect() has already checked.
_SCORERS = {
    "pkde": _pkde_scores,
    "mahalanobis": _mahalanobis_scores,
    "knn-dist": _knn_scores,
    "lof": _lof_scores,
}

DETECTOR_IDS = tuple(_SCORERS)


def detect(name: str, X, config: DetectorConfig) -> DetectionResult:
    """Run the named detector and threshold its scores at the configured
    contamination."""
    try:
        scorer = _SCORERS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown detector {name!r}; known: {', '.join(DETECTOR_IDS)}"
        ) from None
    A = as_matrix(X)
    t0 = time.perf_counter()
    scores, dim = scorer(A, config)
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
        fit_time=t1 - t0,
        score_time=t2 - t1,
    )
