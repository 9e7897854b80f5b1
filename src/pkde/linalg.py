"""Dense linear algebra for the detector: centering, covariance and a LAPACK
eigensolver for symmetric matrices.

Matrices are plain float64 numpy arrays in row-major order; the validators
below reject anything non-rectangular or non-finite. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError, NumericalError

# Relative magnitude below which negative eigenvalues are treated as roundoff.
_EIG_CLAMP_REL = 1e-10

_SYMMETRY_TOL = 1e-10


def as_matrix(X, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise InvalidInputError(f"{name} is empty (shape {A.shape})")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return A


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return v


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted descending; eigenvectors[:, i] is the unit-norm
    eigenvector paired with eigenvalues[i], sign-canonicalized so the
    largest-magnitude component is positive (lowest index on ties).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def center_columns(X) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each column's mean; returns (centered matrix, mean vector)."""
    A = as_matrix(X)
    mean = A.mean(axis=0)
    return A - mean, mean


def covariance(X_centered) -> np.ndarray:
    """Sample covariance X'X / (n-1) of an already-centered matrix.

    Symmetrized explicitly so downstream symmetry checks hold exactly. Data
    too large in magnitude for its second moments to fit in float64 raises
    DataError.
    """
    A = as_matrix(X_centered)
    n = A.shape[0]
    if n < 2:
        raise InvalidInputError("covariance needs at least 2 rows")
    with np.errstate(over="ignore"):
        S = (A.T @ A) / (n - 1)
    if not np.all(np.isfinite(S)):
        raise DataError("covariance overflows float64; rescale the data")
    return 0.5 * (S + S.T)


def sym_eigen(S) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix by LAPACK (``eigh``).

    Deterministic: identical input yields bit-identical output. Negative
    eigenvalues within roundoff of zero (relative to the trace) are clamped
    to 0 so PSD inputs stay PSD. A LAPACK failure raises NumericalError.
    """
    A = as_matrix(S, "S")
    n, m = A.shape
    if n != m:
        raise InvalidInputError(f"eigensolver needs a square matrix, got {A.shape}")
    asym = float(np.max(np.abs(A - A.T)))
    if asym > _SYMMETRY_TOL:
        raise InvalidInputError(f"matrix is not symmetric (max asymmetry {asym:.3e})")

    trace = float(np.trace(A))
    try:
        vals, V = np.linalg.eigh(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc

    clamp = _EIG_CLAMP_REL * abs(trace)
    vals[(vals < 0.0) & (np.abs(vals) < clamp)] = 0.0

    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    V = V[:, order]

    for j in range(n):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0.0:
            V[:, j] = -V[:, j]

    return SymEigen(eigenvalues=vals, eigenvectors=V)
