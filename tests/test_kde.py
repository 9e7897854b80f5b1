import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkde import kde, linalg
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.detector import k_from_contamination, top_k_select
from pkde.errors import InvalidInputError, SingularBandwidthError
from pkde.kde import (
    Bandwidth,
    density,
    fit_kde,
    gaussian_kernel,
    log_density_all,
    log_density_loo,
    log_density_loo_top_k,
    scott_bandwidth,
)
from pkde.pca import PcaModel


def brute_force_density(samples, H, query):
    """Independent reference: explicit per-sample quadratic form, summed in
    linear space."""
    samples = np.asarray(samples, dtype=float)
    H = np.asarray(H, dtype=float)
    n, d = samples.shape
    H_inv = np.linalg.inv(H)
    det = np.linalg.det(H)
    norm = 1.0 / math.sqrt((2.0 * math.pi) ** d * det)
    total = 0.0
    for i in range(n):
        diff = np.asarray(query, dtype=float) - samples[i]
        quad = 0.0
        for a in range(d):
            for b in range(d):
                quad += diff[a] * H_inv[a, b] * diff[b]
        total += norm * math.exp(-0.5 * quad)
    return total / n


def shifted_log_density(samples, bw, queries, skip_self=False):
    """Independent reference for the log paths: per-query quadratic forms
    from explicit differences, summed as a log-sum-exp shifted by the row's
    largest term. skip_self drops sample i from query i (leave-one-out)."""
    samples = np.asarray(samples, dtype=float)
    n, d = samples.shape
    count = n - 1 if skip_self else n
    const = -0.5 * d * math.log(2.0 * math.pi) - 0.5 * bw.log_det_H - math.log(count)
    out = np.empty(len(queries))
    for i, q in enumerate(np.asarray(queries, dtype=float)):
        diffs = samples - q
        logk = -0.5 * np.einsum("ij,jk,ik->i", diffs, bw.H_inv, diffs)
        if skip_self:
            logk[i] = -np.inf
        peak = logk.max()
        out[i] = peak + math.log(np.exp(logk - peak).sum()) + const
    return out


def make_bandwidth(H):
    H = np.asarray(H, dtype=float)
    return Bandwidth(
        H=H,
        H_inv=np.linalg.inv(H),
        log_det_H=float(np.log(np.linalg.det(H))),
        scott_factor=1.0,
    )


class TestScottBandwidth:
    def test_identity_n100(self):
        bw = scott_bandwidth(np.eye(2), 100)
        factor = 100.0 ** (-1.0 / 6.0)
        assert abs(bw.scott_factor - factor) < 1e-15
        assert abs(bw.scott_factor - 0.46416) < 1e-5
        assert np.allclose(bw.H, factor * np.eye(2))

    def test_n1_rejected(self):
        with pytest.raises(InvalidInputError, match="n must be >= 2, got 1"):
            scott_bandwidth(np.eye(3), 1)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3"])
    def test_n_not_an_integer(self, n):
        with pytest.raises(InvalidInputError, match=re.escape(f"n must be an integer, got {n!r}")):
            scott_bandwidth(np.eye(3), n)

    @pytest.mark.parametrize(
        "S, rule, message",
        [
            (np.ones((2, 3)), "scott", r"covariance must be square, got \(2, 3\)"),
            (np.eye(2), "silverman", "unknown bandwidth rule 'silverman'"),
        ],
    )
    def test_bad_input_rejected(self, S, rule, message):
        with pytest.raises(InvalidInputError, match=message):
            scott_bandwidth(S, 10, rule=rule)

    def test_diag_4_1_n32(self):
        bw = scott_bandwidth(np.diag([4.0, 1.0]), 32)
        factor = 32.0 ** (-1.0 / 6.0)
        assert abs(factor - 0.56123) < 1e-5
        assert np.allclose(np.diag(bw.H), [4.0 * factor, factor])
        assert abs(bw.H[0, 0] - 2.2449) < 1e-4

    def test_scott_squared_rule(self):
        bw = scott_bandwidth(np.eye(2), 100, rule="scott-squared")
        assert abs(bw.scott_factor - 100.0 ** (-2.0 / 6.0)) < 1e-15

    def test_singular_rejected(self):
        rot = np.array([[math.sqrt(3.0) / 2.0, -0.5], [0.5, math.sqrt(3.0) / 2.0]])
        for S in (
            np.diag([1.0, 0.0]),
            np.diag([1.0, 1e-14]),
            # diag([1, 1e-14]) rotated by 30 degrees: no zero on the diagonal
            rot @ np.diag([1.0, 1e-14]) @ rot.T,
        ):
            with pytest.raises(SingularBandwidthError):
                scott_bandwidth(S, 50)

    @pytest.mark.parametrize("lead", [1.0, 0.7, 3.0e5, 1.3 * 2.0**-40])
    def test_singular_exactly_when_pca_rank_drops(self, lead):
        # scott_bandwidth's singular test and PcaModel.rank are both
        # linalg.rank_of, so on diag(eigenvalues) they must agree to the last
        # bit at the threshold. (PKDE's detect keeps m <= rank and builds its
        # diagonal bandwidth without scott_bandwidth.)
        lam = 1e-12 * lead
        for _ in range(8):
            lam = np.nextafter(lam, 0.0)
        seen = set()
        for _ in range(17):
            vals = np.array([lead, lam])
            model = PcaModel(
                mean=np.zeros(2), components=np.eye(2), eigenvalues=vals,
                explained_ratio=vals / vals.sum(), total_variance=float(vals.sum()),
            )
            for n, rule in ((50, "scott"), (1000, "scott-squared")):
                try:
                    scott_bandwidth(np.diag(vals), n, rule=rule)
                    accepted = True
                except SingularBandwidthError:
                    accepted = False
                assert accepted == (model.rank == 2), (lead, lam, n)
                seen.add(accepted)
            lam = np.nextafter(lam, np.inf)
        assert seen == {True, False}

    def test_inverse_cached(self):
        # The inverse and log-det must not depend on the scale of S.
        rng = np.random.default_rng(30)
        A = rng.standard_normal((10, 3))
        S = A.T @ A / 9
        base = scott_bandwidth(S, 10).log_det_H
        for c in (1e-30, 1.0, 1e30):
            bw = scott_bandwidth(c * S, 10)
            assert np.abs(bw.H @ bw.H_inv - np.eye(3)).max() <= 1e-8, c
            assert math.isfinite(bw.log_det_H)
            assert bw.log_det_H == pytest.approx(base + 3 * math.log(c), abs=1e-9)


class TestGaussianKernel:
    def test_standard_normal_mode(self):
        bw = make_bandwidth([[1.0]])
        assert abs(gaussian_kernel([0.0], bw) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_mode_value_general(self):
        H = np.diag([2.0, 0.5])
        bw = make_bandwidth(H)
        expected = (2 * math.pi) ** -1 * np.linalg.det(H) ** -0.5
        assert abs(gaussian_kernel([0.0, 0.0], bw) - expected) < 1e-12

    def test_hand_value_identity(self):
        bw = make_bandwidth(np.eye(2))
        expected = math.exp(-1.0) / (2 * math.pi)
        assert abs(expected - 0.058550) < 5e-6
        assert abs(gaussian_kernel([1.0, 1.0], bw) - expected) < 1e-12

    def test_correlated_bandwidth(self):
        # A full H: the whitener's eigenvectors are no permutation of the axes.
        rng = np.random.default_rng(33)
        A = rng.standard_normal((6, 3))
        H = A.T @ A / 5 + 0.5 * np.eye(3)
        norm = math.sqrt((2 * math.pi) ** 3 * np.linalg.det(H))
        for x in rng.standard_normal((3, 3)):
            expected = math.exp(-0.5 * x @ np.linalg.solve(H, x)) / norm
            assert gaussian_kernel(x, make_bandwidth(H)) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            gaussian_kernel([1.0, 2.0], make_bandwidth([[1.0]]))


class TestDensity:
    def test_all_kernels_at_mode(self):
        model = fit_kde([[0.0], [0.0]], make_bandwidth([[1.0]]))
        assert abs(density(model, [0.0]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_symmetric_pair(self):
        model = fit_kde([[-1.0], [1.0]], make_bandwidth([[1.0]]))
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert abs(expected - 0.24197) < 5e-6
        assert abs(density(model, [0.0]) - expected) < 1e-12

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((20, 3))
        A = rng.standard_normal((6, 3))
        H = A.T @ A / 5 + 0.5 * np.eye(3)
        model = fit_kde(X, make_bandwidth(H))
        q = rng.standard_normal(3)
        expected = brute_force_density(X, H, q)
        assert abs(density(model, q) - expected) <= 1e-10 * expected

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((15, 2))
        bw = make_bandwidth(np.eye(2))
        q = rng.standard_normal(2)
        f1 = density(fit_kde(X, bw), q)
        f2 = density(fit_kde(X[rng.permutation(15)], bw), q)
        assert abs(f1 - f2) <= 1e-12 * f1

    def test_bandwidth_scaling_decreases_mode(self):
        X = [[0.0], [0.0]]
        values = [
            density(fit_kde(X, make_bandwidth([[c]])), [0.0])
            for c in (1.0, 2.0, 5.0)
        ]
        assert values[0] > values[1] > values[2]

    def test_dimension_mismatch(self):
        model = fit_kde([[0.0], [1.0]], make_bandwidth([[1.0]]))
        with pytest.raises(InvalidInputError):
            density(model, [0.0, 1.0])


# Every route that whitens by the bandwidth, on a 2-dimensional model.
bandwidth_calls = pytest.mark.parametrize(
    "call",
    [
        log_density_loo,
        lambda model: log_density_all(model, np.ones((1, 2))),
        lambda model: density(model, np.ones(2)),
        lambda model: log_density_loo_top_k(model, 1),
        lambda model: gaussian_kernel(np.ones(2), model.bandwidth),
    ],
    ids=["loo", "all", "density", "top_k", "kernel"],
)


class TestFitKde:
    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[0.0, 1.0]], "KDE needs at least 2 samples, got 1"),
            ([[0.0], [1.0]], "bandwidth is 2-dimensional, samples are 1"),
        ],
    )
    def test_bad_samples_rejected(self, samples, message):
        with pytest.raises(InvalidInputError, match=message):
            fit_kde(samples, make_bandwidth(np.eye(2)))

    @pytest.mark.parametrize("H", [-np.eye(2), np.diag([1.0, -1.0])], ids=["-I", "diag(1,-1)"])
    @bandwidth_calls
    def test_indefinite_bandwidth_rejected(self, H, call):
        # H is its own inverse; the dense route whitens by the symmetric
        # square root of H_inv, which an indefinite H does not have.
        bw = Bandwidth(H=H, H_inv=H, log_det_H=0.0, scott_factor=1.0)
        model = fit_kde(np.random.default_rng(30).standard_normal((5, 2)), bw)
        with pytest.raises(SingularBandwidthError, match="not positive definite"):
            call(model)

    @pytest.mark.parametrize(
        "entry, value, message",
        [((0, 1), 0.501, "H_inv is not symmetric"), ((1, 1), np.nan, "H_inv contains NaN")],
        ids=["asymmetric", "nan"],
    )
    @bandwidth_calls
    def test_bad_inverse_rejected(self, entry, value, message, call):
        # A hand-built H_inv goes through sym_eigen's input checks: one
        # off-diagonal entry moved by 1e-3, or a NaN, is rejected.
        H_inv = np.array([[2.0, 0.5], [0.5, 1.0]])
        H_inv[entry] = value
        bw = Bandwidth(H=np.eye(2), H_inv=H_inv, log_det_H=0.0, scott_factor=1.0)
        model = fit_kde(np.random.default_rng(30).standard_normal((5, 2)), bw)
        with pytest.raises(InvalidInputError, match=message):
            call(model)


class TestLogDensityAll:
    def test_query_width_must_match(self):
        model = fit_kde([[0.0, 0.0], [1.0, 1.0]], make_bandwidth(np.eye(2)))
        with pytest.raises(InvalidInputError, match="queries have 3 columns"):
            log_density_all(model, [[0.0, 0.0, 0.0]])

    def test_agrees_with_density(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((12, 2))
        bw = make_bandwidth(np.eye(2) * 0.7)
        model = fit_kde(X, bw)
        Q = rng.standard_normal((8, 2))
        logs = log_density_all(model, Q)
        for i in range(8):
            f = density(model, Q[i])
            assert abs(math.exp(logs[i]) - f) <= 1e-12 * f

    def test_self_queries_finite(self):
        rng = np.random.default_rng(34)
        X = rng.standard_normal((10, 4))
        S = np.cov(X.T)
        model = fit_kde(X, scott_bandwidth(S, 10))
        logs = log_density_all(model, X)
        assert np.all(np.isfinite(logs))

    def test_far_query_high_dim_no_underflow(self):
        rng = np.random.default_rng(35)
        d = 50
        X = rng.standard_normal((20, d))
        model = fit_kde(X, make_bandwidth(np.eye(d)))
        q = np.full(d, 100.0)
        (val,) = log_density_all(model, [q])
        assert math.isfinite(val)
        assert val < -1000.0
        # dominant term: nearest sample under the kernel metric
        quads = np.sum((X - q) ** 2, axis=1)
        dominant = -0.5 * d * math.log(2 * math.pi) - 0.5 * quads.min() - math.log(20)
        assert val == pytest.approx(dominant, abs=1.0)

    def test_far_queries_match_shifted_reference(self):
        # Queries 50 units out: every kernel term underflows unless shifted.
        rng = np.random.default_rng(42)
        X = rng.standard_normal((300, 3))
        bw = make_bandwidth([[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]])
        model = fit_kde(X, bw)
        dirs = rng.standard_normal((4, 3))
        far = 50.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        Q = np.vstack([far, X[:3] + 0.1])
        assert np.linalg.norm(X[:, None] - far, axis=2).min() > 40.0
        logs = log_density_all(model, Q)
        assert np.allclose(logs, shifted_log_density(X, bw, Q), rtol=1e-12, atol=0.0)
        assert logs[:4].max() < -1000.0

    def test_normalizes_to_one_1d(self):
        rng = np.random.default_rng(36)
        X = rng.standard_normal((6, 1))
        model = fit_kde(X, make_bandwidth([[0.8]]))
        grid = np.linspace(X.min() - 10.0, X.max() + 10.0, 20001)
        vals = np.exp(log_density_all(model, grid[:, None]))
        integral = np.trapezoid(vals, grid)
        assert abs(integral - 1.0) <= 1e-3

    def test_normalizes_to_one_2d(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((4, 2)) * 0.5
        model = fit_kde(X, make_bandwidth(np.eye(2) * 0.6))
        g = np.linspace(-10.0, 10.0, 401)
        xx, yy = np.meshgrid(g, g)
        Q = np.column_stack([xx.ravel(), yy.ravel()])
        vals = np.exp(log_density_all(model, Q)).reshape(xx.shape)
        integral = np.trapezoid(np.trapezoid(vals, g, axis=1), g)
        assert abs(integral - 1.0) <= 1e-3


class TestLogDensityLoo:
    def test_matches_manual_exclusion(self):
        rng = np.random.default_rng(38)
        X = rng.standard_normal((9, 2))
        bw = make_bandwidth(np.eye(2) * 0.5)
        model = fit_kde(X, bw)
        loo = log_density_loo(model)
        for i in range(9):
            others = np.delete(X, i, axis=0)
            expected = brute_force_density(others, bw.H, X[i])
            assert math.exp(loo[i]) == pytest.approx(expected, rel=1e-10)

    def test_uniform_shift_identity(self):
        # n*f = (n-1)*f_loo + K_H(0): the self term is the same constant
        rng = np.random.default_rng(39)
        X = rng.standard_normal((7, 2))
        bw = make_bandwidth(np.eye(2))
        model = fit_kde(X, bw)
        k0 = gaussian_kernel([0.0, 0.0], bw)
        loo = np.exp(log_density_loo(model))
        full = np.array([density(model, X[i]) for i in range(7)])
        assert np.allclose(7 * full, 6 * loo + k0, rtol=1e-10)

    def test_uniform_shift_identity_across_chunks(self):
        # n > 2000 splits the n x n kernel sum into more than one chunk, so
        # the self term must be dropped at the right offset in every chunk.
        rng = np.random.default_rng(40)
        n = 2100
        X = rng.standard_normal((n, 2))
        bw = make_bandwidth(np.eye(2) * 0.3)
        model = fit_kde(X, bw)
        k0 = gaussian_kernel([0.0, 0.0], bw)
        loo = np.exp(log_density_loo(model))
        full = np.exp(log_density_all(model, X))
        assert np.allclose(n * full, (n - 1) * loo + k0, rtol=1e-10, atol=0.0)

    def test_underflowing_rows_match_shifted_reference(self):
        # The rows at 1e2, 1e3 and 1e4 are so far from all others that each
        # of their unshifted kernel terms underflows to 0.
        rng = np.random.default_rng(41)
        far = [[1e2, 0.0], [0.0, 1e3], [1e4, 1e4]]
        X = np.vstack([rng.standard_normal((2000, 2)), far])
        bw = make_bandwidth(np.eye(2) * 0.3)
        loo = log_density_loo(fit_kde(X, bw))
        expected = shifted_log_density(X, bw, X, skip_self=True)
        assert np.allclose(loo, expected, rtol=1e-12, atol=0.0)
        assert loo[-3:].max() < -1e4

    def test_many_blocks_match_row_by_row(self, monkeypatch):
        # Tiles of 37 x 201 split n = 3500 into 95 row blocks of up to 18
        # column tiles: column sums carry across 94 block edges. One worker
        # or two give the same bits.
        monkeypatch.setattr(kde, "_TILE_ROWS", 37)
        monkeypatch.setattr(kde, "_TILE_COLS", 201)
        rng = np.random.default_rng(43)
        n = 3500
        X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 3))
        model = fit_kde(X, scott_bandwidth(np.cov(X.T), n))
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_worker_count", lambda w=workers: w)
            runs.append(log_density_loo(model))
        expected = shifted_log_density(X, model.bandwidth, X, skip_self=True)
        assert np.allclose(runs[0], expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_within_block_budget(self, monkeypatch, traced_peak, workers):
        # The 6000 x 6000 kernel matrix would take 288 MB; each worker's
        # tile holds _TILE_ROWS x _TILE_COLS floats (1 MB), and
        # ROW_FLOATS a row cover the lifted samples, their whitening
        # temporaries, the row sums and the column sums of the blocks in
        # flight.
        monkeypatch.setattr(linalg, "_worker_count", lambda: workers)
        rng = np.random.default_rng(45)
        model = fit_kde(rng.standard_normal((6000, 3)), make_bandwidth(np.eye(3) * 0.3))
        _, peak = traced_peak(log_density_loo, model)
        assert peak < 8 * (workers * TILE_FLOATS + ROW_FLOATS * 6000)

    def test_peak_memory_flat_in_n(self, traced_peak):
        # Beyond the O(n) vectors, the traced peak does not grow with n: a
        # buffer that grew with the row length would add 8 * _TILE_ROWS
        # bytes a row.
        rng = np.random.default_rng(46)
        peaks = [traced_peak(log_density_loo, fit_kde(rng.standard_normal((n, 3)),
                                                      make_bandwidth(np.eye(3) * 0.3)))[1]
                 for n in (6000, 24_000)]
        assert peaks[1] - peaks[0] < 8 * ROW_FLOATS * (24_000 - 6000)


# Bytes of the traced peak of log_density_loo: each worker's tile, and at
# most ROW_FLOATS float64s a row of O(n) vectors.
TILE_FLOATS = kde._TILE_ROWS * kde._TILE_COLS
ROW_FLOATS = 20


class TestKernelSumTiles:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=45),
        st.sampled_from(["symmetric", "rows", "Q"]),
        st.one_of(
            st.sampled_from([(1, 1), (3, 5), (7, 13), (5, 3), (13, 7)]),
            st.tuples(st.integers(1, 50), st.integers(1, 50)),
        ),
        st.booleans(),
        st.data(),
    )
    def test_matches_dense_oracle(self, n, mode, tile, far, data):
        # Tiles of any shape, 1 x 1 among them, dividing n or not, and
        # taller than wide, so that a block's diagonal crosses column tile
        # corners: every mode gives the dense self-masked sum, and one
        # worker or two give the same bits. A far row underflows every
        # kernel term of its own and sends it to the shifted redo.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((n, 3))
        if far:
            X[rng.integers(n)] = [40.0, 0.0, 0.0]
        bw = make_bandwidth(np.eye(3) * 0.3)
        model = fit_kde(X, bw)
        Q = rows = None
        if mode == "Q":
            Q = 2.0 * rng.standard_normal((data.draw(st.integers(1, 30), label="queries"), 3))
            expected = shifted_log_density(X, bw, Q)
        else:
            expected = shifted_log_density(X, bw, X, skip_self=True)
        if mode == "rows":
            rows = rng.permutation(n)[: data.draw(st.integers(1, n), label="rows")]
            expected = expected[rows]
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_TILE_ROWS", tile[0])
            mp.setattr(kde, "_TILE_COLS", tile[1])
            for workers in (1, 2):
                mp.setattr(linalg, "_worker_count", lambda w=workers: w)
                runs.append(kde._log_kernel_sum(*kde._whiten(model, Q), rows))
        np.testing.assert_allclose(runs[0], expected, rtol=1e-13, atol=0.0)
        assert np.array_equal(runs[0], runs[1])


def scott_model(X):
    X = np.asarray(X, dtype=float)
    return fit_kde(X, scott_bandwidth(np.atleast_2d(np.cov(X.T)), X.shape[0]))


def planted_model(n_normal, n_outlier, dim, seed=0):
    spec = SynthSpec("gaussian-planted", n_normal=n_normal, n_outlier=n_outlier,
                     dim=dim, seed=seed)
    return scott_model(gen_synthetic(spec).X)


def assert_certified(out, exact, oracle, k):
    """The score contract of log_density_loo_top_k against the full sum:
    exact values match it, bounds lie at or below it and above the k-th
    lowest value, and the k lowest are the full sum's k lowest."""
    tol = 1e-12 * np.maximum(np.abs(oracle), 1.0)
    assert np.all(np.abs(out[exact] - oracle[exact]) <= tol[exact])
    assert np.all(out[~exact] <= oracle[~exact] + tol[~exact])
    kth = np.sort(out)[k - 1]
    assert np.all(out[~exact] > kth)
    ranked = np.sort(oracle)
    # Rows the full sum ties within rounding at the k-th value may swap.
    if k == oracle.size or ranked[k] - ranked[k - 1] > 4 * tol.max():
        assert np.array_equal(top_k_select(-out, k), top_k_select(-oracle, k))


def window_bounds(wh, order, starts):
    """Independent reference for _log_local_bounds: each row's self-masked
    kernel sum over its own leaf and the leaf on each side, from explicit
    differences of the whitened rows, summed densely; or None where those
    windows hold as many terms as the n(n-1)/2 pairs of the full sum."""
    n, m = wh.n, wh.d
    Z = wh.B[:, :m]
    last = starts.size - 1
    windows = [order[starts[max(j - 1, 0)] : starts[min(j + 2, last)]] for j in range(last)]
    if sum((b - a) * w.size for a, b, w in zip(starts, starts[1:], windows)) >= n * (n - 1) // 2:
        return None
    sums = np.empty(n)
    for a, b, window in zip(starts, starts[1:], windows):
        rows = order[a:b]
        k = np.exp(-0.5 * ((Z[rows, None, :] - Z[None, window, :]) ** 2).sum(axis=2))
        k[rows[:, None] == window[None, :]] = 0.0
        sums[rows] = k.sum(axis=1)
    sums[~(sums >= kde._UNDERFLOW_SUM)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(sums)
    return out + (wh.const - math.log(n - 1))


def gathered_leaf_order(Z):
    """Reference for kde._leaf_order: the same splits, each of which gathers
    every coordinate of its segment from one transposed copy of Z that
    stays in row order."""
    n = Z.shape[0]
    ZT = np.ascontiguousarray(Z.T)
    order = np.arange(n)
    starts = []
    todo = [(0, n)]
    while todo:
        s, e = todo.pop()
        if e - s <= kde._LEAF_ROWS:
            starts.append(s)
            continue
        idx = order[s:e]
        P = np.take(ZT, idx, axis=1)
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
            order[s:e] = np.concatenate([idx[left], idx[~left]])
        todo += [(s + cut, e), (s, s + cut)]
    return order, np.array(starts + [n])


def spy_row_counts(monkeypatch):
    """The rows of each _log_kernel_sum call, None for the full sum."""
    calls = []
    real = kde._log_kernel_sum

    def spy(wh, Q, rows=None):
        calls.append(None if rows is None else len(rows))
        return real(wh, Q, rows=rows)

    monkeypatch.setattr(kde, "_log_kernel_sum", spy)
    return calls


class TestLogDensityLooTopK:
    @given(
        st.integers(min_value=1, max_value=1500),
        st.integers(min_value=1, max_value=4),
        st.one_of(st.integers(min_value=1, max_value=64), st.just(256)),
        st.sampled_from(["ties", "duplicates", "constant"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_leaf_order_matches_gather_reference(self, n, m, leaf_rows, kind, data):
        # Ties on the widest coordinate, duplicated rows, or a block of
        # identical rows and a constant coordinate, whose segments are cut
        # at their middle. Z is a column slice, as the lifted rows' are.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        Z = rng.standard_normal((n, m + 2))[:, :m]
        if kind == "ties":
            Z[:, 0] = np.round(Z[:, 0] * 2.0)
        elif kind == "duplicates":
            dups = rng.integers(n, size=data.draw(st.integers(0, n), label="dups"))
            Z[dups] = Z[rng.integers(n, size=dups.size)]
        else:
            Z[: data.draw(st.integers(0, n), label="same")] = Z[0]
            Z[:, -1] = 0.5
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_LEAF_ROWS", leaf_rows)
            order, starts = kde._leaf_order(Z)
            expected = gathered_leaf_order(Z)
        assert np.array_equal(order, expected[0])
        assert np.array_equal(starts, expected[1])

    @given(
        st.integers(min_value=2, max_value=3000),
        st.one_of(st.integers(min_value=1, max_value=64), st.just(256)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_match_window_oracle(self, n, leaf_rows, data):
        # Leaves of 1 to 64 rows, or the default 256, so that small inputs
        # have many leaves, lone-row leaves among them. Duplicated rows and a
        # coordinate on a coarse grid put equal values on both sides of a
        # split. Every worker count gives the same bits.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((n, 3))
        X[:, 0] = np.round(X[:, 0] * 2.0) / 2.0
        dups = rng.integers(n, size=data.draw(st.integers(0, n // 2), label="dups"))
        X[dups] = X[rng.integers(n, size=dups.size)]
        model = fit_kde(X, make_bandwidth(np.eye(3) * 0.3))
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_LEAF_ROWS", leaf_rows)
            wh = kde._whiten(model)[0]
            expected = window_bounds(wh, *kde._leaf_order(wh.B[:, :3]))
            for workers in (1, 2):
                mp.setattr(linalg, "_worker_count", lambda w=workers: w)
                runs.append(kde._log_local_bounds(wh))
        if expected is None:
            assert all(run is None for run in runs)
            return
        np.testing.assert_allclose(runs[0], expected, rtol=1e-14, atol=0.0)
        assert all(np.array_equal(run, runs[0]) for run in runs)

    def test_bound_pass_sums_each_leaf_pair_once(self, monkeypatch):
        # Leaf j's rows meet leaves j and j + 1 in one product, whose first
        # block masks their self terms: sum_j s_j * (s_j + s_(j+1)) terms,
        # against sum_j s_j * (s_(j-1) + s_j + s_(j+1)) with a window per row.
        model = planted_model(3800, 200, 8)
        wh = kde._whiten(model)[0]
        sizes = np.diff(kde._leaf_order(wh.B[:, :8])[1])
        calls = []
        real = kde._kernels

        def spy(L, C, buf, own=None):
            calls.append((L.shape[0], C.shape[0], own))
            return real(L, C, buf, own)

        monkeypatch.setattr(kde, "_kernels", spy)
        assert kde._log_local_bounds(wh) is not None
        assert sum(r * c for r, c, _ in calls) == int(sizes @ (sizes + np.r_[sizes[1:], 0]))
        assert sorted(r for r, _, _ in calls) == sorted(sizes.tolist())
        assert all(own is None for _, _, own in calls)

    @given(
        st.one_of(st.none(), st.floats(min_value=0.02, max_value=0.1)),
        st.integers(min_value=300, max_value=3000),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0).map(lambda u: 0.01 * 30.0**u),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sum_oracle(self, planted, n, m, contamination, seed):
        # Unplanted inputs, or a planted share of outliers; contamination
        # from 0.01 to 0.3, log-uniform, so that about half the draws take
        # the top-K path and the rest one of its fallbacks: k > n/4, bounds
        # as dear as the full sum, or more than n/4 candidates.
        if planted is None:
            model = scott_model(gen_synthetic(SynthSpec("gaussian", n, 0, m, seed)).X)
        else:
            outliers = int(planted * n)
            model = planted_model(n - outliers, outliers, m, seed)
        k = k_from_contamination(contamination, n)
        out, exact = log_density_loo_top_k(model, k)
        assert_certified(out, exact, log_density_loo(model), k)

    def test_engages_on_planted_data(self):
        # A path that always fell back would pass every other test here.
        model = planted_model(3800, 200, 8)
        out, exact = log_density_loo_top_k(model, 200)
        assert exact.sum() < 4000 / 4
        assert_certified(out, exact, log_density_loo(model), 200)

    def test_boundary_ties_follow_whole_row_sums(self):
        # Far apart clusters of 3 to 8 points, each point three times: every
        # row's window holds every non-zero term of its sum, so its bound
        # equals its exact density up to rounding, and the copies of a point
        # tie. A bound may round above the value it bounds; the slack keeps
        # such a row in the candidates when the cut falls inside its ties.
        # Exact sums must not depend on which rows are summed with them.
        rng = np.random.default_rng(1)
        clusters = [[40.0 * j, 0.0] + 0.3 * rng.standard_normal((size, 2))
                    for j, size in enumerate(rng.integers(3, 9, 80))]
        X = np.vstack(clusters * 3)
        n = X.shape[0]
        model = fit_kde(X, make_bandwidth(np.eye(2) * 0.3))
        every = kde._log_kernel_sum(kde._whiten(model)[0], None, rows=np.arange(n))
        for k in range(1, n // 4):
            out, exact = log_density_loo_top_k(model, k)
            assert not exact.all()
            assert np.array_equal(top_k_select(-out, k), top_k_select(-every, k)), k
            assert np.array_equal(out[exact], every[exact])

    def test_round_two_overflow_is_full_sum(self, monkeypatch):
        # Unplanted data: the lone row summed first does not rule round 1
        # out, but after round 1 more than n/4 rows fail their bound, and the
        # symmetric full sum replaces every score.
        calls = spy_row_counts(monkeypatch)
        model = scott_model(gen_synthetic(SynthSpec("gaussian", 2400, 0, 4, seed=3)).X)
        out, exact = log_density_loo_top_k(model, 120)
        assert calls == [1, 120, None]
        assert exact.all()
        assert np.array_equal(out, log_density_loo(model))

    def test_overflow_seen_before_round_one(self, monkeypatch):
        # The tall-8 benchmark shape at contamination 0.2: the bounds of more
        # than n/4 - k rows lie below the exact sum of the highest-bound row
        # of round 1, so round 2 would overflow, and the full sum comes
        # without round 1's k rows.
        calls = spy_row_counts(monkeypatch)
        model = planted_model(19000, 1000, 8)
        out, exact = log_density_loo_top_k(model, 4000)
        assert calls == [1, None]
        assert exact.all()
        assert np.array_equal(out, log_density_loo(model))

    @pytest.mark.parametrize("n, k", [(100, 30), (600, 30)])
    def test_full_sum_without_bounds(self, n, k):
        # k > n/4, or leaves so few that the bounds cost a full sum.
        model = scott_model(np.random.default_rng(61).standard_normal((n, 2)))
        out, exact = log_density_loo_top_k(model, k)
        assert exact.all()
        assert np.array_equal(out, log_density_loo(model))

    def test_k_out_of_range(self):
        model = scott_model(np.random.default_rng(62).standard_normal((10, 2)))
        for k in (0, 11, 2.0, True, "3"):
            form = (f"k={k} out of range [1, 10]" if type(k) is int
                    else f"k must be an integer, got {k!r}")
            with pytest.raises(InvalidInputError, match=re.escape(form)):
                log_density_loo_top_k(model, k)

    def test_leaves_depend_only_on_values(self):
        rng = np.random.default_rng(63)
        Z = np.vstack([rng.standard_normal((1500, 3)), np.ones((600, 3))])
        Z[:300, 0] = 0.25  # ties in a coordinate that is split on
        perm = rng.permutation(Z.shape[0])
        leaves = []
        for X in (Z, Z[perm]):
            order, starts = kde._leaf_order(X)
            assert np.diff(starts).max() <= kde._LEAF_ROWS
            leaves.append(sorted(
                tuple(sorted(map(tuple, X[order[a:b]]))) for a, b in zip(starts, starts[1:])
            ))
        assert leaves[0] == leaves[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_within_block_budget(self, monkeypatch, traced_peak, workers):
        # The bound pass holds one pair of leaves on the calling thread, at
        # most 2 * _LEAF_ROWS^2 floats (1 MB); both rounds hold one tile per
        # worker. The three never overlap, and the lifted samples, the leaf
        # order and the sums stay within ROW_FLOATS a row.
        monkeypatch.setattr(linalg, "_worker_count", lambda: workers)
        model = planted_model(5700, 300, 3)
        (_, exact), peak = traced_peak(log_density_loo_top_k, model, 300)
        assert not exact.all()
        per_worker = max(2 * kde._LEAF_ROWS**2, TILE_FLOATS)
        assert peak < 8 * (workers * per_worker + ROW_FLOATS * 6000)
