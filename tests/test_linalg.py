import ast
import ctypes
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal

import numpy as np
import pytest

from pkde import kde, linalg, pca
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.detector import DetectorConfig, detect
from pkde.errors import DataError, InvalidInputError, NumericalError
from pkde.linalg import covariance, sym_eigen


class TestAsMatrix:
    @pytest.mark.parametrize(
        "convert, value, message",
        [
            (linalg.as_matrix, [1.0, 2.0], "X must be 2-dimensional, got ndim=1"),
            (linalg.as_matrix, np.empty((3, 0)), r"X is empty \(shape \(3, 0\)\)"),
            (linalg.as_matrix, [[1.0, np.nan]], "X contains NaN or Inf entries"),
            (linalg.as_vector, [[1.0]], "X must be a non-empty 1-D vector"),
            (linalg.as_vector, [], "X must be a non-empty 1-D vector"),
            (linalg.as_vector, [np.inf], "X contains NaN or Inf entries"),
            (linalg.as_matrix, np.eye(2) + 1j, "X must hold real numbers"),
            (linalg.as_matrix, [[1.0, 2j]], "X must hold real numbers"),
            (linalg.as_matrix, [["1", "a"]], "X must hold real numbers"),
            (linalg.as_matrix, [[1, 2], [3]], "X must hold real numbers"),
            (linalg.as_vector, np.ones(2, dtype=complex), "X must hold real numbers"),
            (linalg.as_matrix, [[1.0, None]], "X must hold real numbers"),
            (linalg.as_vector, [1.0, None], "X must hold real numbers"),
            (linalg.as_vector, [None, 1.0, 2.0], "X must hold real numbers"),
        ],
    )
    def test_bad_input_rejected(self, convert, value, message):
        with pytest.raises(InvalidInputError, match=message):
            convert(value, "X")

    def test_object_array_of_reals_converts(self):
        value = np.array([Decimal("1.5"), 2, 3.0], dtype=object)
        assert linalg.as_vector(value).tolist() == [1.5, 2.0, 3.0]


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "check, value, bounds, message",
        [
            (linalg.check_int, 2.0, (), "x must be an integer, got 2.0"),
            (linalg.check_int, True, (0, 5), "x must be an integer, got True"),
            (linalg.check_int, "3", (0,), "x must be an integer, got '3'"),
            (linalg.check_int, 6, (1, 5), "x=6 out of range [1, 5]"),
            (linalg.check_int, np.int64(0), (1, 5), "x=0 out of range [1, 5]"),
            (linalg.check_int, -1, (0,), "x must be >= 0, got -1"),
            (linalg.check_real, True, (), "x must be a real number, got True"),
            (linalg.check_real, "3", (0.5,), "x must be a real number, got '3'"),
            (linalg.check_real, 2.0, (0.5,), "x must be in (0, 0.5], got 2.0"),
            (linalg.check_real, 0.0, (1.0,), "x must be in (0, 1], got 0.0"),
            (linalg.check_real, np.nan, (1.0,), "x must be in (0, 1], got nan"),
        ],
    )
    def test_rejected(self, check, value, bounds, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            check(value, "x", *bounds)

    @pytest.mark.parametrize(
        "check, value, bounds",
        [
            (linalg.check_int, -7, ()),
            (linalg.check_int, 2, (2,)),
            (linalg.check_int, np.int32(5), (1, 5)),
            (linalg.check_real, -3, ()),
            (linalg.check_real, 0.5, (0.5,)),
            (linalg.check_real, np.float32(1e-30), (1.0,)),
        ],
    )
    def test_accepted(self, check, value, bounds):
        check(value, "x", *bounds)


class TestCovariance:
    def test_hand_2x2(self):
        S = covariance([[-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(S, [[2.0, 0.0], [0.0, 0.0]])

    def test_one_column(self):
        S = covariance([[-1.0], [0.0], [1.0]])
        assert np.array_equal(S, [[1.0]])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 4))
        X = X - X.mean(axis=0)
        # independent accumulation: sum of outer products over rows
        n, d = X.shape
        expected = np.zeros((d, d))
        for i in range(n):
            for a in range(d):
                for b in range(d):
                    expected[a, b] += X[i, a] * X[i, b]
        expected /= n - 1
        assert np.abs(covariance(X) - expected).max() < 1e-12

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(4)
        S = covariance(rng.standard_normal((10, 5)))
        assert np.array_equal(S, S.T)

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            covariance([[1.0, 2.0]])

    def test_overflow_is_data_error(self):
        ds = gen_synthetic(
            SynthSpec("gaussian-planted", n_normal=95, n_outlier=5, dim=2, seed=7)
        )
        X = ds.X * 1e160
        with pytest.raises(DataError):
            covariance(X - X.mean(axis=0))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 4))
        perm = rng.permutation(12)
        S1 = covariance(X - X.mean(axis=0))
        S2 = covariance(X[perm] - X[perm].mean(axis=0))
        assert np.abs(S1 - S2).max() <= 1e-12


class TestPow2Centre:
    def test_scale_set_by_centred_spread(self):
        # Constant columns of 0.1 and 1e6 beside one at 1e-200 x (3 + noise):
        # the exponent is that of the centred small column, the constant
        # columns are exactly 0, and the small column is the pow2_scale
        # copy's, centred, times a power of two.
        x = np.random.default_rng(6).standard_normal(50)
        A = np.c_[np.full(50, 0.1), 1e-200 * (3.0 + x), np.full(50, 1e6)]
        C, p = linalg.pow2_centre(A)
        assert 0.5 <= np.abs(C).max() < 1.0
        assert not C[:, [0, 2]].any()
        B, q = linalg.pow2_scale(A)
        centred = B[:, 1] - B[:, 1].mean()
        assert np.array_equal(C[:, 1], np.ldexp(centred, q - p))
        assert p == np.frexp(np.abs(centred).max())[1] + q

    def test_constant_data_is_zero(self):
        # The rounded mean of 50 rows of 0.1 leaves a residue to be zeroed.
        A = np.full((50, 3), 0.1)
        C, p = linalg.pow2_centre(A)
        assert not C.any() and p == linalg.pow2_scale(A)[1]


class TestSymEigen:
    def test_diagonal(self):
        eig = sym_eigen(np.diag([3.0, 1.0]))
        assert np.array_equal(eig.eigenvalues, [3.0, 1.0])
        assert np.array_equal(eig.eigenvectors, np.eye(2))

    def test_hand_2x2(self):
        eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        # canonical signs: largest-magnitude entry (tie -> lowest index) positive
        assert np.allclose(eig.eigenvectors[:, 0], [r, r], atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 1], [r, -r], atol=1e-12)

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 5))
        S = A.T @ A
        eig = sym_eigen(S)
        R = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(R - S).max() <= 1e-8 * max(1.0, np.abs(S).max())
        G = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(G - np.eye(5)).max() <= 1e-10

    def test_psd_clamping_and_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = rng.standard_normal((6, 4))
            S = A.T @ A
            eig = sym_eigen(S)
            assert np.all(eig.eigenvalues >= 0.0)
            assert abs(eig.eigenvalues.sum() - np.trace(S)) <= 1e-8 * abs(
                np.trace(S)
            )

    @pytest.mark.parametrize("d", [2, 36, 103])
    def test_signs_match_per_column_reference(self, monkeypatch, d):
        # The per-column sign loop, applied to the same eigh output, gives
        # the same bits, signs of zeros included.
        if d == 2:
            S = np.array([[2.0, 1.0], [1.0, 2.0]])  # entries tie in magnitude
        else:
            A = np.random.default_rng(d).standard_normal((d + 50, d))
            S = A.T @ A
        raw = []
        eigh = np.linalg.eigh

        def spy(M):
            raw.append(eigh(M))
            return raw[0]

        monkeypatch.setattr(np.linalg, "eigh", spy)
        eig = sym_eigen(S)
        vals, V = raw[0]
        V = V[:, np.argsort(-vals, kind="stable")]
        for j in range(d):
            i = int(np.argmax(np.abs(V[:, j])))
            if V[i, j] < 0.0:
                V[:, j] = -V[:, j]
        assert np.array_equal(eig.eigenvectors.view(np.int64), V.view(np.int64))

    def test_descending_order(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((10, 7))
        eig = sym_eigen(A.T @ A)
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)

    def test_repeat_bit_identical(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((9, 6))
        S = A.T @ A
        e1 = sym_eigen(S)
        e2 = sym_eigen(S)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigen(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
    def test_symmetry_judged_relative_to_scale(self, scale):
        # Q diag(5..1) Q^T is symmetric up to rounding at any scale, and a
        # scaled copy has the scaled eigenvalues.
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))[0]
        S = (Q * [5.0, 4.0, 3.0, 2.0, 1.0]) @ Q.T
        vals = sym_eigen(S * scale).eigenvalues
        np.testing.assert_allclose(vals, scale * np.array([5.0, 4.0, 3.0, 2.0, 1.0]), rtol=1e-12)

    def test_tiny_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigen([[1e-12, 5e-11], [0.0, 1e-12]])

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eigen(np.eye(3))

    def test_only_factorization_in_pkde(self):
        # Every matrix factorization in pkde is sym_eigen's eigh: no other
        # numpy.linalg name appears in src/pkde but LinAlgError, which
        # sym_eigen catches, and the datasets' norm. A bare np.linalg or an
        # import from numpy.linalg could hide a call, so it counts as "?".
        uses = set()
        for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                where, nodes = getattr(top, "name", None), list(ast.walk(top))
                bare = sum(map(is_np_linalg, nodes))
                for node in nodes:
                    if isinstance(node, ast.Attribute) and is_np_linalg(node.value):
                        uses.add((path.name, where, node.attr))
                        bare -= 1
                    elif isinstance(node, ast.Import):
                        bare += any(a.name.startswith("numpy.linalg") for a in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        bare += any(f"{node.module}.{a.name}".startswith("numpy.linalg")
                                    for a in node.names)
                if bare:
                    uses.add((path.name, where, "?"))
        allowed = {("linalg.py", "eigh"), ("linalg.py", "LinAlgError"), ("datasets.py", "norm")}
        assert {(file, name) for file, _, name in uses} <= allowed, uses
        assert {where for _, where, name in uses if name == "eigh"} == {"sym_eigen"}


def is_np_linalg(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


@pytest.fixture
def fresh_blas_lookup():
    linalg._blas_thread_calls.cache_clear()
    yield
    linalg._blas_thread_calls.cache_clear()


def blas_threads():
    calls = linalg._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not bundle scipy-openblas")
    return calls[0]


def spy_counts(monkeypatch, module, name, get):
    """Replace module.name with a spy that records the BLAS thread count at
    each call; returns the list of counts."""
    inside = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        inside.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return inside


@pytest.fixture(scope="module")
def planted_36():
    return gen_synthetic(
        SynthSpec("gaussian-planted", n_normal=285, n_outlier=15, dim=36, seed=12)
    ).X


CONFIG = DetectorConfig(contamination=0.05)


class TestBlasThreadPin:
    def test_one_thread_inside_count_restored_after(self, monkeypatch, planted_36):
        get = blas_threads()
        before = get()
        eigh = spy_counts(monkeypatch, np.linalg, "eigh", get)
        others = [spy_counts(monkeypatch, np.linalg, name, get)
                  for name in ("cholesky", "inv", "eigvalsh")]
        detect("pkde", planted_36, CONFIG)
        assert (eigh, others) == ([1], [[], [], []])
        assert get() == before
        detect("mahalanobis", planted_36, CONFIG)
        assert (eigh, others) == ([1, 1], [[], [], []])
        assert get() == before

    def test_count_restored_when_eigh_raises(self, monkeypatch, planted_36):
        get = blas_threads()
        before = get()
        inside = []

        def fail(_):
            inside.append(get())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        for name in ("pkde", "mahalanobis"):
            with pytest.raises(NumericalError, match="did not converge"):
                detect(name, planted_36, CONFIG)
            assert get() == before
        assert inside == [1, 1]

    def test_covariance_count_restored(self, monkeypatch, planted_36):
        get = blas_threads()
        before = get()
        inside = spy_counts(monkeypatch, pca, "covariance", get)
        for name in ("pkde", "mahalanobis"):
            detect(name, planted_36, CONFIG)
            assert get() == before
        assert inside == [1, 1]

    def test_pkde_factorizations_on_one_thread(self, monkeypatch):
        # PKDE's one factorization is the covariance's eigh, on one thread: a
        # threaded call would wake OpenBLAS threads that then spin on the
        # cores the kernel-sum workers need. Its bandwidth is diagonal, so
        # nothing factors H and no KdeModel or Bandwidth is built; the dense
        # route afterwards builds one of each and factors S by eigh alone.
        get = blas_threads()
        names = ("eigh", "cholesky", "inv", "eigvalsh")
        calls = {name: spy_counts(monkeypatch, np.linalg, name, get) for name in names}
        for cls in (kde.KdeModel, kde.Bandwidth):
            calls[cls.__name__] = spy_counts(monkeypatch, cls, "__init__", get)
        X = np.random.default_rng(14).standard_normal((200, 4))
        detect("pkde", X, DetectorConfig(contamination=0.05))
        assert calls == {"eigh": [1], "cholesky": [], "inv": [], "eigvalsh": [],
                         "KdeModel": [], "Bandwidth": []}
        kde.fit_kde(X, kde.scott_bandwidth(np.eye(4), 200))
        assert {name: len(seen) for name, seen in calls.items()} == {
            "eigh": 2, "cholesky": 0, "inv": 0, "eigvalsh": 0, "KdeModel": 1, "Bandwidth": 1}

    def test_bound_pass_pins_itself(self, monkeypatch):
        # Called directly, outside detect's pin, the certified top-K's bound
        # pass runs its leaf-pair products on the calling thread with
        # OpenBLAS held to one thread; the old count comes back after.
        # Two threads outside, so that a missing pin shows on one core too.
        get = blas_threads()
        _, set_, _ = linalg._blas_thread_calls()
        X = gen_synthetic(SynthSpec("gaussian-planted", n_normal=1900, n_outlier=100,
                                    dim=3, seed=12)).X
        model = kde.fit_kde(X, kde.scott_bandwidth(np.cov(X.T), X.shape[0]))
        bounds = spy_counts(monkeypatch, kde, "_log_local_bounds", get)
        inside = spy_counts(monkeypatch, kde, "_kernels", get)
        before = get()
        set_(2)
        try:
            _, exact = kde.log_density_loo_top_k(model, 100)
            after = get()
        finally:
            set_(before)
        assert not exact.all()
        assert (bounds, after) == ([2], 2)
        assert inside and set(inside) == {1}

    def test_worker_count_same_inside_pin(self):
        # detect holds the pin around the scorer; the block loops inside it
        # must still get every worker, not the pinned count of 1.
        get = blas_threads()
        outside = linalg._worker_count()
        with linalg._one_blas_thread():
            assert get() == 1
            assert linalg._worker_count() == outside
        assert outside == max(1, get())

    def test_missing_symbol_same_detections(self, monkeypatch, fresh_blas_lookup):
        # Without the symbol nothing is pinned and there is one block worker.
        # The covariance product then runs on however many threads OpenBLAS
        # has, and the kernel sum in taller blocks, so both may round
        # differently; the labels may not change.
        rng = np.random.default_rng(12)
        A = rng.standard_normal((300, 103))
        names = ("pkde", "mahalanobis")
        pinned = [detect(name, A, CONFIG) for name in names]
        linalg._blas_thread_calls.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        unpinned = [detect(name, A, CONFIG) for name in names]
        assert linalg._blas_thread_calls() is None
        for one, other in zip(pinned, unpinned):
            assert np.array_equal(one.labels, other.labels)
            np.testing.assert_allclose(other.scores, one.scores, rtol=1e-13, atol=0.0)


@pytest.fixture
def two_workers(monkeypatch):
    """Two workers: row_blocks(n, 2, 4, work) runs blocks of 2 rows, each
    with a buffer of 4 floats, on a pool of two threads."""
    monkeypatch.setattr(linalg, "_worker_count", lambda: 2)


class TestRowBlocks:
    def test_import_leaves_thread_pool_unloaded(self):
        # The pool is imported on the first pooled loop; at module level it
        # and the logging it pulls in would add about 6 ms to every import.
        # A fresh process, since this one has loaded both already.
        code = ("import pkde, pkde.cli, sys; "
                "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_blocks_in_order_with_own_buffers(self, two_workers):
        caller = threading.get_ident()
        threads = set()

        def work(s, e, buf):
            threads.add(threading.get_ident())
            buf[:] = s
            time.sleep(0.01)
            assert np.all(buf == s)  # no other block wrote to this buffer
            time.sleep(0.02 if s % 4 == 0 else 0.0)  # even blocks finish last
            return list(range(s, e))

        out = list(linalg.row_blocks(9, 2, 4, work))
        assert [(s, e) for s, e, _ in out] == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
        assert [r for _, _, rows in out for r in rows] == list(range(9))
        assert caller not in threads

    def test_lone_block_runs_inline(self, two_workers):
        out = list(linalg.row_blocks(2, 2, 4, lambda *_: threading.get_ident()))
        assert out == [(0, 2, threading.get_ident())]

    def test_caller_errstate_reaches_workers(self, two_workers):
        def work(s, e, buf):
            return np.subtract(np.full(1, np.inf), np.inf)[0]

        with np.errstate(invalid="ignore"):
            values = [v for _, _, v in linalg.row_blocks(6, 2, 4, work)]
        assert len(values) == 3 and np.all(np.isnan(values))
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            list(linalg.row_blocks(6, 2, 4, work))

    def test_one_blas_thread_inside_restored_after(self, two_workers):
        get = blas_threads()
        before = get()
        inside = [count for _, _, count in linalg.row_blocks(6, 2, 4, lambda *_: get())]
        assert inside == [1, 1, 1]
        assert get() == before

        def fail(s, e, buf):
            raise MemoryError("Unable to allocate")

        with pytest.raises(MemoryError):
            list(linalg.row_blocks(6, 2, 4, fail))
        assert get() == before

    def test_no_block_starts_after_one_raised(self, two_workers):
        started, done = [], []
        raised = threading.Event()

        def work(s, e, buf):
            started.append(s)
            if s == 2:
                raised.set()
                raise ValueError("block 2")
            if s == 0:
                assert raised.wait(5.0)
                time.sleep(0.1)  # block 2's error is recorded by now
            return s

        with pytest.raises(ValueError, match="block 2"):
            for _, _, s in linalg.row_blocks(20, 2, 4, work):
                done.append(s)
        assert done == [0]
        assert sorted(started) == [0, 2]

    def test_closed_early_starts_no_more_blocks(self, two_workers):
        get = blas_threads()
        before, threads = get(), threading.active_count()
        started = []

        def work(s, e, buf):
            started.append(s)
            time.sleep(0.01)
            return s

        blocks = linalg.row_blocks(20, 2, 4, work)
        assert next(blocks) == (0, 2, 0)
        blocks.close()
        assert sorted(started) == [0, 2]  # the two in flight at the first yield
        assert get() == before
        assert threading.active_count() == threads

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # Eight workers on 400 one-row blocks with a short switch interval:
        # a buffer shared by two running blocks, or a block out of order,
        # would show.
        monkeypatch.setattr(linalg, "_worker_count", lambda: 8)

        def work(s, e, buf):
            buf[:] = s
            time.sleep(0)
            return bool(np.all(buf == s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = list(linalg.row_blocks(400, 1, 64, work))
        finally:
            sys.setswitchinterval(interval)
        assert [(s, e) for s, e, _ in out] == [(s, s + 1) for s in range(400)]
        assert all(own for _, _, own in out)

    def test_stress_one_block_fails(self, monkeypatch):
        # As above, with block 200 raising: its error comes out, and no block
        # more than `workers` past it starts.
        monkeypatch.setattr(linalg, "_worker_count", lambda: 8)
        started = []

        def work(s, e, buf):
            started.append(s)
            buf[:] = s
            time.sleep(0)
            if s == 200:
                raise ValueError("block 200")
            return bool(np.all(buf == s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(ValueError, match="block 200"):
                for _, _, own in linalg.row_blocks(400, 1, 64, work):
                    assert own
        finally:
            sys.setswitchinterval(interval)
        assert 200 in started and max(started) <= 200 + 8
