"""Principal component analysis: fit, explained-variance bookkeeping and
projection onto the leading components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, check_int, check_real, covariance, rank_of, sym_eigen


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA model. components[:, i] is the i-th principal direction
    (unit norm), eigenvalues descending; explained_ratio[i] is the fraction
    of total variance carried by component i; rank (linalg.rank_of) counts
    the components that are not numerically null."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    explained_ratio: np.ndarray
    total_variance: float

    @property
    def rank(self) -> int:
        return rank_of(self.eigenvalues)


def fit_pca(X) -> PcaModel:
    """Fit PCA on the sample covariance of X, retaining all d components."""
    A = as_matrix(X)
    if A.shape[0] < 2:
        raise InvalidInputError("PCA needs at least 2 rows")
    mean = A.mean(axis=0)
    return _fit_centred(A - mean, mean)


def _fit_centred(C: np.ndarray, mean=None) -> PcaModel:
    """fit_pca of the matrix A that its caller centred into C = A - mean
    (mean zero when None), C a checked float64 matrix of at least 2 rows:
    C @ components[:, :m] is then project(model, A, m) bit for bit."""
    eig = sym_eigen(covariance(C))
    total = float(np.sum(eig.eigenvalues))
    if total > 0.0:
        ratio = eig.eigenvalues / total
    else:
        ratio = np.zeros_like(eig.eigenvalues)
    return PcaModel(
        mean=np.zeros(C.shape[1]) if mean is None else mean,
        components=eig.eigenvectors,
        eigenvalues=eig.eigenvalues,
        explained_ratio=ratio,
        total_variance=total,
    )


def choose_dim(model: PcaModel, variance_threshold: float) -> int:
    """Smallest m whose leading components explain at least the threshold
    fraction of total variance. Constant data (zero variance) yields 1."""
    check_real(variance_threshold, "variance_threshold", 1.0)
    if model.total_variance == 0.0:
        return 1
    cumulative = np.cumsum(model.explained_ratio)
    # Slack for threshold 1.0, where the cumsum may land at 1 - epsilon.
    hits = np.nonzero(cumulative >= variance_threshold - 1e-12)[0]
    if hits.size == 0:
        return int(model.explained_ratio.shape[0])
    return int(hits[0]) + 1


def project(model: PcaModel, X, m: int) -> np.ndarray:
    """Project X onto the m leading principal directions: (X - mean) @ W_m."""
    A = as_matrix(X)
    d = model.mean.shape[0]
    if A.shape[1] != d:
        raise InvalidInputError(
            f"data has {A.shape[1]} columns but the model was fit on {d}"
        )
    check_int(m, "m", 1, model.components.shape[1])
    return (A - model.mean) @ model.components[:, :m]
