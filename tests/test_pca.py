import re

import numpy as np
import pytest

from pkde.errors import InvalidInputError
from pkde.linalg import covariance
from pkde.pca import PcaModel, choose_dim, fit_pca, project


def _model(ratios):
    """Hand-built model for choose_dim tests."""
    ratios = np.asarray(ratios, dtype=float)
    d = len(ratios)
    return PcaModel(
        mean=np.zeros(d),
        components=np.eye(d),
        eigenvalues=ratios.copy(),
        explained_ratio=ratios,
        total_variance=1.0,
    )


class TestFitPca:
    def test_axis_aligned_data(self):
        model = fit_pca([[-1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(np.abs(model.components[:, 0]), [1.0, 0.0])
        assert np.allclose(model.eigenvalues, [2.0, 0.0], atol=1e-12)
        assert np.allclose(model.explained_ratio, [1.0, 0.0], atol=1e-12)

    def test_isotropic_four_points(self):
        X = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        model = fit_pca(X)
        # both axes carry variance 2/3, so the split is exactly half/half
        assert np.allclose(model.eigenvalues, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert np.allclose(model.explained_ratio, [0.5, 0.5], atol=1e-12)

    def test_matches_eigen_composition(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((50, 6))
        model = fit_pca(X)
        from pkde.linalg import sym_eigen

        eig = sym_eigen(covariance(X - X.mean(axis=0)))
        assert np.array_equal(model.eigenvalues, eig.eigenvalues)

    def test_mean_symmetric_1d(self):
        model = fit_pca([[1.0], [3.0]])
        assert np.array_equal(model.mean, [2.0])
        assert np.array_equal(model.eigenvalues, [2.0])

    def test_zero_mean_input_unchanged(self):
        # fit_pca centres a copy: the caller's matrix keeps its values.
        X = np.array([[1.0, -2.0], [-1.0, 2.0]])
        model = fit_pca(X)
        assert np.array_equal(model.mean, [0.0, 0.0])
        assert np.array_equal(X, [[1.0, -2.0], [-1.0, 2.0]])

    def test_mean_is_column_mean(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 3)) * 10
        before = X.copy()
        model = fit_pca(X)
        assert np.array_equal(model.mean, X.mean(axis=0))
        assert np.array_equal(X, before)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_pca(np.empty((0, 3)))

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_pca([[1.0, 2.0]])

    def test_ratio_sums_to_one(self):
        rng = np.random.default_rng(21)
        model = fit_pca(rng.standard_normal((30, 5)))
        assert abs(model.explained_ratio.sum() - 1.0) <= 1e-10


class TestRank:
    def test_full_rank(self):
        X = np.random.default_rng(26).standard_normal((30, 4))
        assert fit_pca(X).rank == 4

    def test_duplicated_column(self):
        X = np.random.default_rng(27).standard_normal((30, 4))
        assert fit_pca(np.c_[X, X[:, 1]]).rank == 4

    @pytest.mark.parametrize("n, d", [(5, 8), (6, 6)])
    def test_n_at_most_d(self, n, d):
        X = np.random.default_rng(28).standard_normal((n, d))
        assert fit_pca(X).rank == n - 1

    def test_constant_data(self):
        assert fit_pca(np.full((10, 3), 2.5)).rank == 0


class TestChooseDim:
    def test_cumulative(self):
        assert choose_dim(_model([0.7, 0.2, 0.1]), 0.9) == 2

    def test_threshold_one_needs_all(self):
        assert choose_dim(_model([0.7, 0.2, 0.1]), 1.0) == 3

    def test_degenerate_tail(self):
        assert choose_dim(_model([1.0, 0.0]), 0.5) == 1

    def test_constant_data_gives_one(self):
        assert choose_dim(fit_pca(np.full((10, 3), 2.5)), 0.9) == 1

    def test_no_hit_gives_full_dimension(self):
        # The ratios fall 1e-9 short of 1, more than the 1e-12 slack.
        assert choose_dim(_model([0.7, 0.2, 0.1 - 1e-9]), 1.0) == 3

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5, 2.0, True, "3"])
    def test_bad_threshold(self, threshold):
        if type(threshold) is float:
            form = f"variance_threshold must be in (0, 1], got {threshold}"
        else:
            form = f"variance_threshold must be a real number, got {threshold!r}"
        with pytest.raises(InvalidInputError, match=re.escape(form)):
            choose_dim(_model([1.0]), threshold)


class TestProject:
    def test_1d_projection(self):
        X = [[-1.0, 0.0], [1.0, 0.0]]
        model = fit_pca(X)
        proj = project(model, X, 1)
        assert np.allclose(np.abs(proj[:, 0]), [1.0, 1.0], atol=1e-12)

    def test_constant_rows_project_to_zero(self):
        model = fit_pca([[-1.0, 2.0], [1.0, 2.0], [0.0, 2.0]])
        proj = project(model, [[0.0, 2.0], [0.0, 2.0]], 2)
        assert np.abs(proj).max() <= 1e-12

    def test_projection_covariance_diagonal(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 5))
        model = fit_pca(X)
        proj = project(model, X, 3)
        S = covariance(proj)
        off = np.abs(S - np.diag(np.diag(S))).max()
        assert off <= 1e-8 * model.eigenvalues[0]

    def test_variance_preserved_full_rank(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((30, 4))
        model = fit_pca(X)
        proj = project(model, X, 4)
        total = np.trace(covariance(proj - proj.mean(axis=0)))
        assert abs(total - model.total_variance) <= 1e-8 * model.total_variance

    def test_projection_idempotent_on_span(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((25, 4))
        model = fit_pca(X)
        proj = project(model, X, 4)
        ident = fit_pca(proj)
        again = project(ident, proj, 4)
        # re-projecting spans the same space and preserves geometry
        assert abs(np.trace(covariance(again)) - np.trace(covariance(proj))) <= 1e-8

    def test_eigenvalues_row_permutation_invariant(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((30, 5))
        m1 = fit_pca(X)
        m2 = fit_pca(X[rng.permutation(30)])
        assert np.abs(m1.eigenvalues - m2.eigenvalues).max() <= 1e-10

    def test_dimension_mismatch(self):
        model = fit_pca([[-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            project(model, [[1.0, 2.0, 3.0]], 1)

    def test_m_out_of_range(self):
        model = fit_pca([[-1.0, 0.0], [1.0, 0.0]])
        for m in (3, 0, 2.0, True, "3"):
            form = (f"m={m} out of range [1, 2]" if type(m) is int
                    else f"m must be an integer, got {m!r}")
            with pytest.raises(InvalidInputError, match=re.escape(form)):
                project(model, [[1.0, 2.0]], m)
