import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pkde import detector, kde, linalg, pca
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.detector import (
    DETECTOR_IDS,
    DetectorConfig,
    detect,
    k_from_contamination,
    pkde_fit_score,
    top_k_select,
)
from pkde.errors import DegenerateDataError, InvalidInputError, NumericalError
from pkde.kde import fit_kde, log_density_all, scott_bandwidth
from pkde.linalg import covariance
from pkde.metrics import default_grid
from pkde.pca import choose_dim, fit_pca, project


def planted(seed=7, n_normal=95, n_outlier=5, dim=2, distance=10.0):
    return gen_synthetic(
        SynthSpec(
            "gaussian-planted",
            n_normal=n_normal,
            n_outlier=n_outlier,
            dim=dim,
            seed=seed,
            distance=distance,
        )
    )


class TestTopKSelect:
    def test_inspection(self):
        assert top_k_select([5.0, 1.0, 4.0, 2.0], 2).tolist() == [1, 0, 1, 0]

    def test_tie_lowest_index(self):
        assert top_k_select([3.0, 3.0, 3.0], 1).tolist() == [1, 0, 0]

    def test_sort_oracle(self):
        rng = np.random.default_rng(50)
        scores = rng.standard_normal(100)
        labels = top_k_select(scores, 10)
        order = sorted(range(100), key=lambda i: (-scores[i], i))
        expected = np.zeros(100, dtype=int)
        expected[order[:10]] = 1
        assert np.array_equal(labels, expected)

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_sort_oracle_property(self, values, data):
        scores = np.array(values, dtype=float)
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        labels = top_k_select(scores, k)
        order = sorted(range(len(values)), key=lambda i: (-scores[i], i))
        expected = np.zeros(len(values), dtype=int)
        expected[order[:k]] = 1
        assert np.array_equal(labels, expected)

    @pytest.mark.parametrize("k", [0, 5, 2.0, True, "3"])
    def test_k_out_of_range(self, k):
        form = (f"k={k} out of range [1, 3]" if type(k) is int
                else f"k must be an integer, got {k!r}")
        with pytest.raises(InvalidInputError, match=re.escape(form)):
            top_k_select([1.0, 2.0, 3.0], k)

    def test_scores_must_be_1d(self):
        with pytest.raises(InvalidInputError, match="scores must be a 1-D vector"):
            top_k_select([[1.0, 2.0], [3.0, 4.0]], 1)

    @pytest.mark.parametrize("scores", [[1j, 2.0, 3.0], ["a", 2.0], [None, 1.0, 2.0]])
    def test_scores_must_be_real(self, scores):
        with pytest.raises(InvalidInputError, match="scores must hold real numbers"):
            top_k_select(scores, 1)

    @given(
        st.lists(
            st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_matches_stable_argsort(self, values):
        # Ties, -0.0 against 0.0, infinities and NaN, at every k: the
        # partition-based selection gives the indices and order of the
        # stable argsort, and the labels of its first k on the negation.
        x = np.array(values)
        up, down = np.argsort(x, kind="stable"), np.argsort(-x, kind="stable")
        for k in range(1, x.size + 1):
            assert np.array_equal(linalg.lowest_k(x, k), up[:k])
            expected = np.zeros(x.size, dtype=np.int64)
            expected[down[:k]] = 1
            assert np.array_equal(top_k_select(x, k), expected)


class TestPkdeFitScore:
    def test_planted_outliers_found_exactly(self):
        ds = planted()
        result = pkde_fit_score(ds.X, DetectorConfig(contamination=0.05))
        assert np.array_equal(result.labels, ds.labels)
        assert result.k_used == 5

    def test_k_ceil(self):
        ds = planted(n_normal=18, n_outlier=2)
        result = pkde_fit_score(ds.X, DetectorConfig(contamination=0.1))
        assert result.k_used == 2
        assert k_from_contamination(0.1, 20) == 2
        assert k_from_contamination(0.101, 20) == 3

    def test_duplicated_rows_equal_scores(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((15, 3))
        doubled = np.vstack([X, X])
        result = pkde_fit_score(doubled, DetectorConfig(contamination=0.1))
        spread = np.abs(result.scores[:15] - result.scores[15:])
        scale = np.abs(result.scores).max()
        assert spread.max() <= 1e-12 * max(scale, 1.0)

    def test_label_count_matches_k(self):
        ds = planted(seed=3)
        for c, k in {0.01: 1, 0.07: 7, 0.25: 25, 0.5: 50}.items():
            result = pkde_fit_score(ds.X, DetectorConfig(contamination=c))
            assert int(result.labels.sum()) == result.k_used == k

    def test_k_exact_on_default_grid(self):
        # In floats 0.07 * 100 is 7.000000000000001; K must still be 7.
        for c in default_grid():
            percent = round(c * 100)
            for n in range(1, 2001):
                assert k_from_contamination(c, n) == -(-percent * n // 100), (c, n)

    def test_monotone_k_nesting(self):
        ds = planted(seed=9)
        prev = None
        for c in (0.02, 0.05, 0.10, 0.20):
            labels = pkde_fit_score(ds.X, DetectorConfig(contamination=c)).labels
            if prev is not None:
                assert np.all(labels[prev == 1] == 1)
            prev = labels

    def test_rotation_invariant_labels(self):
        rng = np.random.default_rng(52)
        ds = planted(seed=13, dim=4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cfg = DetectorConfig(contamination=0.05)
        l1 = pkde_fit_score(ds.X, cfg).labels
        l2 = pkde_fit_score(ds.X @ Q, cfg).labels
        assert np.array_equal(l1, l2)

    def test_leave_one_out_equals_self_inclusive_labels(self):
        rng = np.random.default_rng(53)
        for _ in range(3):
            X = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))
            cfg = DetectorConfig(contamination=0.1)
            result = pkde_fit_score(X, cfg)
            # self-inclusive scoring, built from the same pipeline pieces
            model = fit_pca(X)
            m = choose_dim(model, cfg.variance_threshold)
            reduced = project(model, X, m)
            bw = scott_bandwidth(covariance(reduced), X.shape[0])
            kde = fit_kde(reduced, bw)
            self_scores = -log_density_all(kde, reduced)
            self_labels = top_k_select(self_scores, result.k_used)
            assert np.array_equal(result.labels, self_labels)

    @given(
        st.integers(min_value=10, max_value=2600),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=2600, d=3, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_equivariant(self, n, d, seed):
        # Kernel sums accumulate in an order set by row position (past 2000
        # rows, also by the block a row falls in); only rounding may move.
        rng = np.random.default_rng(seed)
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d) @ rot
        perm = rng.permutation(n)
        cfg = DetectorConfig(contamination=0.05)
        base = pkde_fit_score(X, cfg)
        moved = pkde_fit_score(X[perm], cfg)
        scale = max(np.abs(base.scores).max(), 1.0)
        assert np.abs(moved.scores - base.scores[perm]).max() <= 1e-12 * scale
        ranked = np.sort(base.scores)[::-1]
        if ranked[base.k_used - 1] - ranked[base.k_used] > 1e-9 * scale:
            assert np.array_equal(moved.labels, base.labels[perm])

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            pkde_fit_score(np.ones((10, 3)), DetectorConfig(contamination=0.1))

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            pkde_fit_score(np.eye(2), DetectorConfig(contamination=0.1))

    def test_fixed_dim_override(self):
        ds = planted(seed=21, dim=5)
        result = pkde_fit_score(
            ds.X, DetectorConfig(contamination=0.05, fixed_dim=2)
        )
        assert result.reduced_dim == 2

    def test_tiny_but_real_direction_kept(self):
        # Variance 2.25e-12 of the leading one: above the null threshold, so
        # PKDE keeps the column and the bandwidth on it must be accepted.
        X = np.random.default_rng(0).standard_normal((400, 5))
        X[:, 4] *= 1.5e-6
        result = detect("pkde", X, DetectorConfig(0.05, fixed_dim=5))
        assert result.reduced_dim == 5
        assert np.all(np.isfinite(result.scores))

    @given(
        n=st.integers(min_value=3, max_value=12),
        d=st.integers(min_value=2, max_value=8),
        exponents=st.lists(
            st.floats(min_value=0.0, max_value=9.0), min_size=8, max_size=8
        ),
        duplicate=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=400, d=5, exponents=[0.0] * 4 + [5.82] * 4, duplicate=False, seed=0)
    @example(n=40, d=4, exponents=[0.0] * 3 + [6.0] * 5, duplicate=True, seed=1)
    @settings(max_examples=25, deadline=None)
    def test_every_fixed_dim_capped_at_rank(self, n, d, exponents, duplicate, seed):
        # Column scales 10^-u, a duplicated column, n <= d: PKDE drops
        # exactly the numerically null directions and never meets a singular
        # bandwidth, whatever fixed_dim asks for.
        X = np.random.default_rng(seed).standard_normal((n, d))
        X *= 10.0 ** -np.asarray(exponents[:d])
        if duplicate:
            X[:, -1] = X[:, 0]
        rank = fit_pca(linalg.pow2_scale(X)[0]).rank
        for fixed_dim in range(1, d + 1):
            result = detect("pkde", X, DetectorConfig(0.1, fixed_dim=fixed_dim))
            assert result.reduced_dim == min(fixed_dim, rank)

    @given(
        n=st.integers(min_value=3, max_value=400),
        d=st.integers(min_value=1, max_value=6),
        tiny=st.one_of(st.none(), st.floats(1.2e-12, 1e-11), st.floats(1e-14, 8e-13)),
        rule=st.sampled_from(kde.BANDWIDTH_RULES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_scale_matches_dense_whitening(self, n, d, tiny, rule, seed):
        # Reference: the public dense route on the same projection, which
        # factors H by sym_eigen and whitens by the square root of H⁻¹. With
        # tiny, the last direction's variance is that fraction of the others':
        # just above linalg.rank_of's 1e-12, so kept, or below it, so dropped.
        rng = np.random.default_rng(seed)
        X, kept = rng.standard_normal((n, d)), d
        if tiny is not None and 1 < d < n:
            X = np.linalg.qr(X - X.mean(axis=0))[0] * np.sqrt(np.r_[np.ones(d - 1), tiny])
            kept = d if tiny > 1e-12 else d - 1
        wh, m, p = detector._pkde_samples(X, DetectorConfig(0.1, fixed_dim=d, bandwidth_rule=rule))
        assert m == min(kept, n - 1)
        A = np.ldexp(X, -p)  # the scale of PKDE's centred copy
        model = fit_pca(A)
        bw = scott_bandwidth(np.diag(model.eigenvalues[:m]), n, rule)
        ref = kde._whiten(fit_kde(project(model, A, m), bw))[0]
        assert wh.const == pytest.approx(ref.const, rel=1e-13)
        assert np.all(np.abs(wh.B - ref.B) <= 1e-13 * np.abs(ref.B).max(axis=0))
        got, want = kde._log_kernel_sum(wh, None), kde._log_kernel_sum(ref, None)
        tol = 1e-13 * np.maximum(np.abs(want), 1.0)
        assert np.all(np.abs(got - want) <= tol)
        k = k_from_contamination(0.1, n)
        ranked = np.sort(want)
        if k == n or ranked[k] - ranked[k - 1] > 4 * tol.max():  # no near-tie at the cut
            assert np.array_equal(top_k_select(-got, k), top_k_select(-want, k))

    @pytest.mark.parametrize("rule", kde.BANDWIDTH_RULES)
    @pytest.mark.parametrize(
        "n_normal, n_outlier, dim, distance",
        [(19000, 1000, 8, 10.0), (6113, 322, 36, 10.0), (2296, 121, 103, 20.0)],
        ids=["19000-1000-8", "6113-322-36", "2296-121-103"],
    )
    def test_samples_match_project_route(self, n_normal, n_outlier, dim, distance, rule):
        # The tall-8 and cli-sat benchmark shapes, and the yeast_ml8 shape,
        # where PKDE keeps m < d components. Centring the scaled copy in place
        # and multiplying by the kept components is pca.project's product, so
        # the lifted samples are the same bit for bit.
        X = planted(seed=0, n_normal=n_normal, n_outlier=n_outlier, dim=dim,
                    distance=distance).X
        config = DetectorConfig(contamination=0.05, bandwidth_rule=rule)
        wh, m, p = detector._pkde_samples(X, config)
        A, q = linalg.pow2_scale(X)
        model = fit_pca(A)
        assert (m, p) == (min(choose_dim(model, 0.90), model.rank), q)
        reduced = project(model, A, m)
        h = kde._scott_scale(reduced.shape[0], m, rule) * model.eigenvalues[:m]
        reduced -= reduced.mean(axis=0)
        reduced /= np.sqrt(h)
        ref = kde._Whitened(reduced, float(np.sum(np.log(h))))
        assert np.array_equal(wh.B, ref.B)
        assert wh.const == ref.const

    @pytest.mark.parametrize(
        "n_normal, n_outlier, dim, bound", [(19000, 1000, 8, 3.2), (6113, 322, 36, 2.4)]
    )
    def test_peak_memory_frees_each_stage(
        self, monkeypatch, traced_peak, n_normal, n_outlier, dim, bound
    ):
        # The tall-8 and cli-sat benchmark shapes. Each n-row copy dies with
        # its stage: the scaled copy, centred in place, before the whitening,
        # the projection before the kernel sums, and the leaf order permutes
        # its one transposed copy in place; the bound pass gathers each pair
        # of leaves through the order instead of copying the lifted samples.
        # On tall-8 the peak is round 1 of the exact sums: the lifted samples
        # (1.25x), two workers' 1 MB tiles (1.64x) and the bounds (0.125x).
        monkeypatch.setattr(linalg, "_worker_count", lambda: 2)
        X = planted(seed=0, n_normal=n_normal, n_outlier=n_outlier, dim=dim).X
        result, peak = traced_peak(detect, "pkde", X, DetectorConfig(contamination=0.05))
        assert not result.exact.all()  # the certified top-K, not the full sum
        assert peak < bound * X.nbytes


class TestDetect:
    @pytest.mark.parametrize("name", ["pkde", "mahalanobis"])
    def test_pca_front_end_skips_public_pca(self, monkeypatch, name):
        # PKDE and Mahalanobis centre their own copy once (linalg.pow2_centre)
        # and project it themselves: neither pays fit_pca's copy or
        # project's centred one. Every pkde module's reference is replaced.
        calls = []
        for func in (pca.fit_pca, pca.project):
            def spy(*args, _func=func, **kwargs):
                calls.append(_func.__name__)
                return _func(*args, **kwargs)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("pkde"):
                    for attr, value in list(vars(mod).items()):
                        if value is func:
                            monkeypatch.setattr(mod, attr, spy)
        X = planted(seed=2).X
        detect(name, X, DetectorConfig(contamination=0.05))
        assert calls == []
        pca.project(pca.fit_pca(X), X, 1)
        assert calls == ["fit_pca", "project"]  # the spies are in place

    def test_dispatch_identity(self):
        ds = planted(seed=1)
        cfg = DetectorConfig(contamination=0.05)
        via_detect = detect("pkde", ds.X, cfg)
        direct = pkde_fit_score(ds.X, cfg)
        assert np.array_equal(via_detect.scores, direct.scores)
        assert np.array_equal(via_detect.labels, direct.labels)

    def test_unknown_detector(self):
        with pytest.raises(InvalidInputError):
            detect("bogus", np.eye(3), DetectorConfig(contamination=0.1))

    def test_complex_input_rejected(self):
        with pytest.raises(InvalidInputError, match="matrix must hold real numbers"):
            detect("pkde", np.eye(5) + 1j, DetectorConfig(contamination=0.1))

    @pytest.mark.parametrize("name", DETECTOR_IDS)
    def test_too_few_rows_message(self, name):
        fewest = {"pkde": 3, "lof": 3, "knn-dist": 2, "mahalanobis": 2}[name]
        X = np.arange(2.0 * (fewest - 1)).reshape(fewest - 1, 2)
        with pytest.raises(InvalidInputError,
                           match=f"^need at least {fewest} rows, got {fewest - 1}$"):
            detect(name, X, DetectorConfig(contamination=0.5))

    def test_non_finite_scores_raise(self, monkeypatch):
        nan_scorer = lambda A, config: (np.full(A.shape[0], np.nan), 1, None)
        monkeypatch.setitem(detector._SCORERS, "pkde", (3, nan_scorer))
        ds = planted()
        with pytest.raises(NumericalError, match="100 non-finite scores of 100"):
            detect("pkde", ds.X, DetectorConfig(contamination=0.05))

    def test_neighbor_baselines_scale_free(self):
        # The squared-norm expansion would overflow at 1e160 and underflow
        # at 1e-160 without the neighbour table's power-of-two rescale.
        ds = planted()
        cfg = DetectorConfig(contamination=0.05)
        unit = detect("knn-dist", ds.X, cfg).scores
        for scale in (1e160, 1e-160):
            for name in ("knn-dist", "lof"):
                result = detect(name, ds.X * scale, cfg)
                assert np.array_equal(result.labels, ds.labels)
            scores = detect("knn-dist", ds.X * scale, cfg).scores
            np.testing.assert_allclose(scores, unit * scale, rtol=1e-12, atol=0)

    def test_mahalanobis_scale_free(self):
        # The data is rescaled by a power of two first, so the covariance
        # neither overflows (1e200) nor underflows to subnormals (1e-165) or
        # to exactly 0 (1e-170 and below).
        ds = planted()
        cfg = DetectorConfig(contamination=0.05)
        unit = detect("mahalanobis", ds.X, cfg).scores
        for scale in (1e150, 1e-150, 1e-155, 1e-160, 1e-165, 1e-170, 1e-200, 1e200):
            result = detect("mahalanobis", ds.X * scale, cfg)
            np.testing.assert_allclose(result.scores, unit, rtol=1e-12, atol=0)
            assert np.array_equal(result.labels, ds.labels)

    def test_every_detector_scale_free(self):
        # Each scorer divides its centred copy by a power of two, so no
        # detector overflows or underflows, and each maps its scores back.
        ds = planted()
        cfg = DetectorConfig(contamination=0.05)
        for name in DETECTOR_IDS:
            unit = detect(name, ds.X, cfg)
            assert np.array_equal(unit.labels, ds.labels), name
            for c in (1e-300, 1e-200, 1e-160, 2.0**-520, 3.7, 1e160, 1e300):
                result = detect(name, ds.X * c, cfg)
                assert np.all(np.isfinite(result.scores)), (name, c)
                assert np.array_equal(result.labels, unit.labels), (name, c)
                if name == "knn-dist":
                    expected = unit.scores * c
                elif name == "pkde":
                    expected = unit.scores + unit.reduced_dim * np.log(c)
                else:
                    expected = unit.scores
                np.testing.assert_allclose(result.scores, expected, rtol=1e-12, atol=0)

    def test_constant_column_beside_tiny_data(self):
        # A constant column beside data at 1e-100 to 1e-200: each scorer
        # takes its exponent after centring, so the constant column, centred
        # to 0, cannot set it and push the other columns into underflow. The
        # mean of a column of 0.1 is rounded, and what its centring leaves is
        # zeroed too.
        ds = planted(n_normal=190, n_outlier=10, dim=5)
        cfg = DetectorConfig(contamination=0.05)
        for value in (1.0, 0.1):
            for scale in (1e-100, 1e-160, 1e-200):
                X = np.c_[np.full(ds.n, value), ds.X * scale]
                for name in DETECTOR_IDS:
                    result = detect(name, X, cfg)
                    assert np.array_equal(result.labels, ds.labels), (name, value, scale)

    def test_mahalanobis_peak_memory(self, traced_peak):
        # The cli-sat benchmark shape. The score holds two n x d arrays: the
        # centred copy and its projection, squared in place.
        X = planted(seed=0, n_normal=6113, n_outlier=322, dim=36).X
        _, peak = traced_peak(detect, "mahalanobis", X, DetectorConfig(contamination=0.05))
        assert peak < 2.2 * X.nbytes

    @given(
        st.sampled_from([7, 11]),
        st.floats(min_value=-300.0, max_value=300.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_labels_invariant_under_similarity_and_permutation(
        self, seed, log10_scale, draw_seed
    ):
        # Scale, translation, rotation and row order leave every detector's
        # label set unchanged in exact arithmetic; the planted outliers sit
        # far enough out that rounding cannot move them either.
        ds = planted(seed=seed, dim=3)
        rng = np.random.default_rng(draw_seed)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.uniform(-100.0, 100.0, 3)
        perm = rng.permutation(ds.n)
        X = (ds.X[perm] @ rot + shift) * 10.0**log10_scale
        cfg = DetectorConfig(contamination=0.05)
        for name in DETECTOR_IDS:
            result = detect(name, X, cfg)
            assert np.array_equal(result.labels, ds.labels[perm]), name

    def test_pkde_one_and_two_workers_agree(self, monkeypatch):
        # n = 3500 splits each kernel sum into 28 row blocks of 4 column
        # tiles at the default tile shape, and 250 blocks of 37 tiles at
        # 14 x 97. The worker count moves no bit. GEMM rounds rows at its
        # tile edges differently, so the tile shape moves the last bits of
        # a score, but not the labels.
        ds = planted(n_normal=3325, n_outlier=175, dim=3)
        cfg = DetectorConfig(contamination=0.05)
        runs = []
        for tile in ((kde._TILE_ROWS, kde._TILE_COLS), (14, 97)):
            monkeypatch.setattr(kde, "_TILE_ROWS", tile[0])
            monkeypatch.setattr(kde, "_TILE_COLS", tile[1])
            for workers in (1, 2):
                monkeypatch.setattr(linalg, "_worker_count", lambda w=workers: w)
                first, second = detect("pkde", ds.X, cfg), detect("pkde", ds.X, cfg)
                assert np.array_equal(first.scores, second.scores)
                runs.append(first)
        for one, two in (runs[:2], runs[2:]):
            assert np.array_equal(one.scores, two.scores)
            assert np.array_equal(one.exact, two.exact)
        assert np.array_equal(runs[2].labels, runs[0].labels)
        np.testing.assert_allclose(runs[2].scores, runs[0].scores, rtol=1e-13, atol=0)

    def test_all_detectors_label_k_points(self):
        ds = planted(seed=2)
        cfg = DetectorConfig(contamination=0.05)
        for name in DETECTOR_IDS:
            result = detect(name, ds.X, cfg)
            assert int(result.labels.sum()) == result.k_used == 5
            assert result.fit_time >= 0.0
            assert result.score_time >= 0.0

    def test_exact_mask(self):
        # Only PKDE's top-K path leaves rows inexact, and only outside the
        # labelled ones.
        ds = planted(n_normal=3800, n_outlier=200, dim=8, seed=5)
        cfg = DetectorConfig(contamination=0.05)
        results = {name: detect(name, ds.X, cfg) for name in DETECTOR_IDS}
        for name, result in results.items():
            assert result.exact.shape == (ds.n,) and result.exact.dtype == bool
            assert result.exact.all() or name == "pkde", name
        pkde = results["pkde"]
        assert pkde.exact[pkde.labels == 1].all()
        assert pkde.exact.sum() < ds.n / 4

    def test_baselines_find_planted_outliers(self):
        ds = planted(seed=4)
        cfg = DetectorConfig(contamination=0.05)
        for name in ("mahalanobis", "knn-dist", "lof"):
            result = detect(name, ds.X, cfg)
            assert np.array_equal(result.labels, ds.labels), name


class TestDetectorConfig:
    @pytest.mark.parametrize("c", [0.0, -0.1, 0.6, 2.0])
    def test_bad_contamination(self, c):
        form = f"contamination must be in (0, 0.5], got {c}"
        with pytest.raises(InvalidInputError, match=re.escape(form)):
            DetectorConfig(contamination=c)

    def test_bad_threshold(self):
        for t in (1.2, 2.0, 0.0):
            form = f"variance_threshold must be in (0, 1], got {t}"
            with pytest.raises(InvalidInputError, match=re.escape(form)):
                DetectorConfig(contamination=0.1, variance_threshold=t)

    def test_bad_rule(self):
        with pytest.raises(InvalidInputError):
            DetectorConfig(contamination=0.1, bandwidth_rule="silverman")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("contamination", "0.1"),
            ("contamination", True),
            ("variance_threshold", True),
            ("variance_threshold", None),
            ("contamination", "3"),
            ("variance_threshold", "3"),
        ],
    )
    def test_fraction_not_a_real_number(self, field, value):
        message = re.escape(f"{field} must be a real number, got {value!r}")
        with pytest.raises(InvalidInputError, match=message):
            DetectorConfig(**{"contamination": 0.1, field: value})

    @pytest.mark.parametrize("field", ["fixed_dim", "neighbors"])
    def test_count_below_one(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be >= 1, got 0"):
            DetectorConfig(contamination=0.1, **{field: 0})

    @pytest.mark.parametrize("field", ["fixed_dim", "neighbors"])
    @pytest.mark.parametrize("value", [1.5, True, 2.0, "3"])
    def test_count_not_an_integer(self, field, value):
        form = f"{field} must be an integer, got {value!r}"
        with pytest.raises(InvalidInputError, match=re.escape(form)):
            DetectorConfig(contamination=0.1, **{field: value})
