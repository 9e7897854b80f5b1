import math
import tracemalloc

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
        with pytest.raises(InvalidInputError):
            scott_bandwidth(np.eye(3), 1)

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


class TestLogDensityAll:
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

    def test_many_blocks_match_row_by_row(self):
        # Blocks of 1_000_000 // 3500 = 285 rows (142 with two workers):
        # column sums carry across a dozen or more block boundaries.
        rng = np.random.default_rng(43)
        n = 3500
        X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 3))
        bw = scott_bandwidth(np.cov(X.T), n)
        loo = log_density_loo(fit_kde(X, bw))
        expected = shifted_log_density(X, bw, X, skip_self=True)
        assert np.allclose(loo, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_within_block_budget(self, monkeypatch, workers):
        # The 6000 x 6000 kernel matrix would take 288 MB; the block buffers
        # of all workers together hold at most 1_000_000 floats (8 MB), and
        # the lifted samples and row sums add about 0.5 MB.
        monkeypatch.setattr(linalg, "_worker_count", lambda: workers)
        rng = np.random.default_rng(45)
        model = fit_kde(rng.standard_normal((6000, 3)), make_bandwidth(np.eye(3) * 0.3))
        tracemalloc.start()
        try:
            log_density_loo(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * 1_000_000


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


class TestLogDensityLooTopK:
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
        every = kde._log_kernel_sum(kde._Whitened(model), None, rows=np.arange(n))
        for k in range(1, n // 4):
            out, exact = log_density_loo_top_k(model, k)
            assert not exact.all()
            assert np.array_equal(top_k_select(-out, k), top_k_select(-every, k)), k
            assert np.array_equal(out[exact], every[exact])

    def test_fallback_reuses_round_one(self, monkeypatch):
        # Unplanted data: more than n/4 rows fail their bound, and the
        # symmetric pass runs only among the rows round 1 left.
        calls = []
        real = kde._log_kernel_sum

        def spy(wh, Q, rows=None, base=None, cols=None):
            calls.append((None if rows is None else len(rows), base is not None))
            return real(wh, Q, rows=rows, base=base, cols=cols)

        monkeypatch.setattr(kde, "_log_kernel_sum", spy)
        model = scott_model(gen_synthetic(SynthSpec("gaussian", 2400, 0, 4, seed=3)).X)
        out, exact = log_density_loo_top_k(model, 120)
        assert calls == [(120, False), (2280, True)]
        assert exact.all()
        oracle = real(kde._Whitened(model), None)
        np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, k", [(100, 30), (600, 30)])
    def test_full_sum_without_bounds(self, n, k):
        # k > n/4, or leaves so few that the bounds cost a full sum.
        model = scott_model(np.random.default_rng(61).standard_normal((n, 2)))
        out, exact = log_density_loo_top_k(model, k)
        assert exact.all()
        assert np.array_equal(out, log_density_loo(model))

    def test_k_out_of_range(self):
        model = scott_model(np.random.default_rng(62).standard_normal((10, 2)))
        for k in (0, 11):
            with pytest.raises(InvalidInputError):
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
    def test_peak_memory_within_block_budget(self, monkeypatch, workers):
        # The bound pass and both rounds each stay within the 1_000_000
        # floats (8 MB) of their block buffers, and never overlap; the
        # lifted samples and the leaf order add about 0.5 MB.
        monkeypatch.setattr(linalg, "_worker_count", lambda: workers)
        model = planted_model(5700, 300, 3)
        tracemalloc.start()
        try:
            _, exact = log_density_loo_top_k(model, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not exact.all()
        assert peak < 1.1 * 8 * 1_000_000
