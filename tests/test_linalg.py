import ctypes

import numpy as np
import pytest

from pkde import linalg
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.errors import DataError, InvalidInputError, NumericalError
from pkde.linalg import (
    center_columns,
    covariance,
    sym_eigen,
)


class TestCenterColumns:
    def test_symmetric_1d(self):
        centered, mean = center_columns([[1.0], [3.0]])
        assert np.array_equal(centered, [[-1.0], [1.0]])
        assert np.array_equal(mean, [2.0])

    def test_zero_mean_unchanged(self):
        X = np.array([[1.0, -2.0], [-1.0, 2.0]])
        centered, mean = center_columns(X)
        assert np.array_equal(centered, X)
        assert np.array_equal(mean, [0.0, 0.0])

    def test_random_columns_centered(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 3)) * 10
        centered, mean = center_columns(X)
        assert mean.shape == (3,)
        assert np.all(np.abs(centered.mean(axis=0)) < 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            center_columns(np.empty((0, 3)))


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
        centered, _ = center_columns(ds.X * 1e160)
        with pytest.raises(DataError):
            covariance(centered)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 4))
        perm = rng.permutation(12)
        S1 = covariance(center_columns(X)[0])
        S2 = covariance(center_columns(X[perm])[0])
        assert np.abs(S1 - S2).max() <= 1e-12


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

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eigen(np.eye(3))


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


class TestBlasThreadPin:
    def test_one_thread_inside_count_restored_after(self, monkeypatch):
        get = blas_threads()
        before = get()
        inside = []
        eigh = np.linalg.eigh

        def spy(A):
            inside.append(get())
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        sym_eigen(np.diag([3.0, 2.0, 1.0]))
        assert inside == [1]
        assert get() == before

    def test_count_restored_when_eigh_raises(self, monkeypatch):
        get = blas_threads()
        before = get()

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eigen(np.eye(3))
        assert get() == before

    def test_covariance_count_restored(self):
        get = blas_threads()
        before = get()
        rng = np.random.default_rng(13)
        covariance(center_columns(rng.standard_normal((300, 40)))[0])
        assert get() == before

    def test_missing_symbol_same_eigenpairs(self, monkeypatch, fresh_blas_lookup):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((300, 103))
        S = covariance(center_columns(A)[0])
        pinned = sym_eigen(S)
        linalg._blas_thread_calls.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        unpinned = sym_eigen(S)
        assert linalg._blas_thread_calls() is None
        assert np.array_equal(pinned.eigenvalues, unpinned.eigenvalues)
        assert np.array_equal(pinned.eigenvectors, unpinned.eigenvectors)
