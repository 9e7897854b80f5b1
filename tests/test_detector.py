import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(InvalidInputError):
            top_k_select([1.0, 2.0, 3.0], k)


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
        for c in (0.01, 0.07, 0.25, 0.5):
            result = pkde_fit_score(ds.X, DetectorConfig(contamination=c))
            assert int(result.labels.sum()) == result.k_used == int(np.ceil(c * ds.n))

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


class TestDetect:
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

    def test_non_finite_scores_raise(self):
        # At 1e-160 the bandwidth inverse overflows and every score is NaN.
        ds = planted()
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            detect("pkde", ds.X * 1e-160, DetectorConfig(contamination=0.05))

    def test_neighbor_baselines_scale_free(self):
        # The squared-norm expansion would overflow at 1e160 and underflow
        # at 1e-160 without its power-of-two rescaling.
        ds = planted()
        cfg = DetectorConfig(contamination=0.05)
        unit = detect("knn-dist", ds.X, cfg).scores
        for scale in (1e160, 1e-160):
            for name in ("knn-dist", "lof"):
                result = detect(name, ds.X * scale, cfg)
                assert np.array_equal(result.labels, ds.labels)
            scores = detect("knn-dist", ds.X * scale, cfg).scores
            np.testing.assert_allclose(scores, unit * scale, rtol=1e-12, atol=0)

    def test_all_detectors_label_k_points(self):
        ds = planted(seed=2)
        cfg = DetectorConfig(contamination=0.05)
        for name in DETECTOR_IDS:
            result = detect(name, ds.X, cfg)
            assert int(result.labels.sum()) == result.k_used == 5
            assert result.fit_time >= 0.0
            assert result.score_time >= 0.0

    def test_baselines_find_planted_outliers(self):
        ds = planted(seed=4)
        cfg = DetectorConfig(contamination=0.05)
        for name in ("mahalanobis", "knn-dist", "lof"):
            result = detect(name, ds.X, cfg)
            assert np.array_equal(result.labels, ds.labels), name


class TestDetectorConfig:
    @pytest.mark.parametrize("c", [0.0, -0.1, 0.6])
    def test_bad_contamination(self, c):
        with pytest.raises(InvalidInputError):
            DetectorConfig(contamination=c)

    def test_bad_threshold(self):
        with pytest.raises(InvalidInputError):
            DetectorConfig(contamination=0.1, variance_threshold=1.2)

    def test_bad_rule(self):
        with pytest.raises(InvalidInputError):
            DetectorConfig(contamination=0.1, bandwidth_rule="silverman")
