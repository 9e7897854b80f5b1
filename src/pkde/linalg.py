"""Dense linear algebra for the detector: covariance, a LAPACK eigensolver
for symmetric matrices, every scorer's exact power-of-two rescale after
centring, the row lift and row-block scheduler of the kernel sum and
neighbour table, and the stable selection of the k lowest values.

Matrices are plain float64 numpy arrays in row-major order; the validators
below reject anything non-rectangular or non-finite. All functions are pure.
detector.detect holds OpenBLAS to one thread (_one_blas_thread) around its
scorer; called directly, the functions here run at whatever thread count the
caller set, except row_blocks, which pins too and runs its blocks side by
side on _worker_count() threads.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError, NumericalError

# Relative magnitude below which negative eigenvalues are treated as roundoff.
_EIG_CLAMP_REL = 1e-10

# An eigenvalue at or below this fraction of the largest one is numerically
# null. rank_of is pkde's one test of it: PCA rank, bandwidth, Mahalanobis.
_NULL_REL = 1e-12

# sym_eigen rejects a matrix whose largest asymmetry exceeds this fraction
# of its largest entry: a relative test, so a scaled matrix passes or fails
# with the original.
_SYMMETRY_TOL = 1e-10

# Guards every read and read-set-restore of the process-wide BLAS thread count.
_PIN_LOCK = threading.RLock()

# The buffers of one loop of budget_rows blocks hold at most this many
# float64s (8 MB) between them.
_BLOCK_FLOATS = 1_000_000


@functools.cache
def _blas_thread_calls():
    """(get, set, count) for the thread count of numpy's bundled OpenBLAS, or
    None when this numpy build bundles none. Looked up on first use, not at
    import; count is read here, under the lock every pin holds, so no pin
    has set it to 1."""
    pattern = os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so",
    )
    try:
        lib = ctypes.CDLL(sorted(glob.glob(pattern))[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    with _PIN_LOCK:
        return get, set_, get()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread inside the block.

    Threaded OpenBLAS stalls calls while its threads wake, and once woken
    they spin on the cores for a while (the README has the measurements).
    The old count comes back even when the block raises. Without the
    bundled OpenBLAS this does nothing.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_, _ = calls
    with _PIN_LOCK:
        old = get()
        set_(1)
        try:
            yield
        finally:
            set_(old)


def _worker_count() -> int:
    """Threads for a row_blocks loop: OpenBLAS's thread count when pkde first
    looked it up (OPENBLAS_NUM_THREADS, else the core count), the same inside
    a pin as outside, or 1 without the bundled OpenBLAS."""
    calls = _blas_thread_calls()
    return 1 if calls is None else max(1, calls[2])


def budget_rows(row_floats: int) -> int:
    """Rows of row_floats float64s per block such that the buffers of all
    _worker_count() workers together stay within _BLOCK_FLOATS (at least
    one row). Rows of as many float32s fit the same height in half that."""
    return max(1, _BLOCK_FLOATS // (_worker_count() * row_floats))


def row_blocks(n_rows: int, rows: int, buf_floats: int, work):
    """Yield (s, e, work(s, e, buf)) for the blocks [s, e) of `rows` rows of
    range(n_rows) (the last one may be shorter), in block order.

    The caller sets the block height and the size of buf, the buffer of
    buf_floats float64s that each worker owns; work may view it as another
    dtype, as the neighbour table's float32 blocks do. The workers are
    _worker_count() threads, and OpenBLAS is held to one thread for the
    whole loop, so the threads run whole blocks side by side instead of
    splitting each BLAS call. buf is the block's own until work returns,
    and the result must not refer to it. Each block runs in a copy of the
    caller's contextvars context, which carries np.errstate. At most
    `workers` blocks run ahead of the consumer. A lone block or a lone
    worker runs inline on the calling thread. Once the consumer sees a
    failed block, no new block starts, and the first failed block's error
    propagates from here after the running blocks end.
    """
    workers = _worker_count()
    with _one_blas_thread():
        blocks = [(s, min(s + rows, n_rows)) for s in range(0, n_rows, rows)]
        workers = min(workers, len(blocks))
        bufs = [np.empty(buf_floats) for _ in range(workers)]
        if workers <= 1:
            for s, e in blocks:
                yield s, e, work(s, e, bufs[0])
            return

        # Imported here: with the logging it pulls in, it would add about
        # 6 ms to every `import pkde`, and only a pooled loop needs it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            ahead = collections.deque()
            for i, (s, e) in enumerate(blocks):
                if any(f.done() and f.exception() is not None for _, _, f in ahead):
                    break
                # Block i - workers, the last one to use this buffer, was
                # taken before block i was submitted.
                ctx = contextvars.copy_context()
                ahead.append((s, e, pool.submit(ctx.run, work, s, e, bufs[i % workers])))
                if len(ahead) == workers:
                    s, e, f = ahead.popleft()
                    yield s, e, f.result()
            for s, e, f in ahead:
                yield s, e, f.result()


def lift(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, swap): the rows of C lifted to [c, 1, -‖c‖²/2], and the column
    order that turns them into [c, -‖c‖²/2, 1], so that
    L[i, swap] @ L[j] = -‖c_i - c_j‖²/2 and one GEMM gives every pair."""
    n, d = C.shape
    L = np.empty((n, d + 2))
    L[:, :d] = C
    L[:, d] = 1.0
    L[:, d + 1] = -0.5 * np.einsum("ij,ij->i", L[:, :d], L[:, :d])
    return L, np.r_[:d, d + 1, d]


def lowest_k(x: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(x, kind="stable")[:k] for 1 <= k <= len(x): the indices
    of the k lowest values, ties in index order and NaN last. A partition
    finds the k-th lowest value, and only the values at or below it are
    sorted; with fewer than k values not NaN, that value is NaN and all of
    x is sorted."""
    cut = np.partition(x, k - 1)[k - 1]
    cand = np.flatnonzero(x <= cut)
    if cand.size < k:
        return np.argsort(x, kind="stable")[:k]
    return cand[np.argsort(x[cand], kind="stable")[:k]]


def pow2_scale(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(A * 2**-p, p) with 2**p the power of two just above max |A|.

    The scaling is exact and puts max |A| in [0.5, 1): whatever the scale of
    A, products of its entries can no longer overflow, and the largest ones
    no longer underflow. An all-zero A comes back unchanged, with p = 0.
    """
    p = int(np.frexp(np.max(np.abs(A)))[1])
    return np.ldexp(A, -p), p


def pow2_centre(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(C, p): (A - mean) * 2**-p, max |C| in [0.5, 1) or C = 0: pow2_scale's
    copy, so no mean overflows, centred, constant columns set to 0, and
    scaled in place, exactly. The exponent follows the spread of the data,
    not its offset, so a large constant column cannot underflow the rest."""
    C, p = pow2_scale(A)
    C -= C.mean(axis=0)
    for j in np.flatnonzero(C[0] == C[-1]):  # a constant column keeps its mean's rounding
        if C[:, j].min() == C[:, j].max():
            C[:, j] = 0.0
    r = int(np.frexp(max(C.max(), -C.min()))[1])
    np.ldexp(C, -r, out=C)
    return C, p + r


def _as_float64(x, name: str) -> np.ndarray:
    """x as a float64 array. Complex input, whose imaginary part a cast
    would drop, None entries, which it would turn into NaN, and non-numeric
    or ragged input raise InvalidInputError."""
    try:
        a = np.asarray(x)
        has_none = a.dtype == object and any(v is None for v in a.flat)
        if a.dtype.kind != "c" and not has_none:
            return a.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must hold real numbers")


def as_matrix(X, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array."""
    A = _as_float64(X, name)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise InvalidInputError(f"{name} is empty (shape {A.shape})")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return A


def check_int(value, name: str, lo=None, hi=None) -> None:
    """Reject a value that is not an integer (numpy integers pass, bools do
    not), or that lies below lo or, when hi is given too, outside [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise InvalidInputError(f"{name}={value} out of range [{lo}, {hi}]")
    if lo is not None and value < lo:
        raise InvalidInputError(f"{name} must be >= {lo}, got {value}")


def check_real(value, name: str, hi=None) -> None:
    """Reject a value that is not a real number (numpy floats and integers
    pass, bools do not), or, when hi is given, that lies outside (0, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    if hi is not None and not 0.0 < value <= hi:
        raise InvalidInputError(f"{name} must be in (0, {hi:g}], got {value}")


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = _as_float64(x, name)
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


def rank_of(eigenvalues) -> int:
    """Number of eigenvalues above _NULL_REL times the largest, that is of
    directions that are not numerically null; 0 when the largest is <= 0."""
    vals = np.asarray(eigenvalues)
    return int(np.count_nonzero(vals > _NULL_REL * vals.max()))


def sym_eigen(S, name: str = "S") -> SymEigen:
    """Full eigendecomposition of a symmetric matrix by LAPACK (``eigh``).

    Deterministic: identical input yields bit-identical output. Negative
    eigenvalues within roundoff of zero (relative to the trace) are clamped
    to 0 so PSD inputs stay PSD. A LAPACK failure raises NumericalError.
    """
    A = as_matrix(S, name)
    n, m = A.shape
    if n != m:
        raise InvalidInputError(f"eigensolver needs a square matrix, got {A.shape}")
    asym = float(np.max(np.abs(A - A.T)))
    if asym > _SYMMETRY_TOL * float(np.max(np.abs(A))):
        raise InvalidInputError(f"{name} is not symmetric (max asymmetry {asym:.3e})")

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

    peak = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V *= np.where(peak < 0.0, -1.0, 1.0)

    return SymEigen(eigenvalues=vals, eigenvectors=V)
