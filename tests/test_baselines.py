import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkde import baselines, linalg
from pkde.baselines import (
    knn_dist_score,
    knn_table,
    lof_score,
    mahalanobis_score,
)
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.errors import DataError, DegenerateDuplicatesError, InvalidInputError
from pkde.pca import fit_pca, project


def brute_neighbors(X, k):
    """Exhaustive reference: full distance matrix, per-row sort by
    (distance, index)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    indices = np.empty((n, k), dtype=int)
    distances = np.empty((n, k))
    for i in range(n):
        pairs = sorted(
            (float(np.linalg.norm(X[i] - X[j])), j) for j in range(n) if j != i
        )
        for col, (d, j) in enumerate(pairs[:k]):
            indices[i, col] = j
            distances[i, col] = d
    return indices, distances


def dense_neighbors(X, k):
    """Dense reference: the whole n x n distance matrix, each row sorted by
    a stable argsort, so ties go to the lower index."""
    X = np.asarray(X, dtype=float)
    sq = np.sum(X * X, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def difference_form_neighbors(X, k):
    """Dense oracle for knn_table: every distance in difference form,
    sqrt(sum_l (x_il - x_jl)^2) summed over l in order, and each row sorted
    by a stable argsort, so ties go to the lower index."""
    X = np.asarray(X, dtype=float)
    d2 = np.zeros((X.shape[0], X.shape[0]))
    for col in X.T:
        diff = col[:, None] - col[None, :]
        d2 += diff * diff
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def oracle_case(kind, n, d, rng):
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "grid":  # integer coordinates: a shell of true ties per row
        return rng.integers(0, 4, size=(n, d)).astype(float)
    if kind == "offset":  # clusters far from the origin, tight around it
        return 1e3 + 1e-3 * rng.standard_normal((n, d)) + rng.integers(0, 3, size=(n, 1))
    rows = rng.standard_normal((max(1, n // 8), d))  # heavy duplicates
    return rows[rng.integers(0, rows.shape[0], size=n)]


class TestKnnTable:
    def test_collinear_points(self):
        table = knn_table([[0.0], [1.0], [3.0]], 1)
        assert table.indices[:, 0].tolist() == [1, 0, 1]
        assert table.distances[:, 0].tolist() == [1.0, 1.0, 2.0]

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((8, 2))
        table = knn_table(X, 7)
        for i in range(8):
            assert sorted(table.indices[i].tolist()) == sorted(
                j for j in range(8) if j != i
            )

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((30, 4))
        table = knn_table(X, 5)
        idx, dist = brute_neighbors(X, 5)
        assert np.array_equal(table.indices, idx)
        assert np.abs(table.distances - dist).max() <= 1e-12

    def test_distances_nondecreasing(self):
        rng = np.random.default_rng(42)
        table = knn_table(rng.standard_normal((20, 3)), 6)
        assert np.all(np.diff(table.distances, axis=1) >= 0.0)

    def test_recomputed_distance_consistent(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((15, 3))
        table = knn_table(X, 4)
        for i in range(15):
            for col in range(4):
                j = table.indices[i, col]
                assert abs(
                    np.linalg.norm(X[i] - X[j]) - table.distances[i, col]
                ) <= 1e-12

    def test_overflowing_distances_rejected(self):
        # detect rescales first; called directly at 1e200 the squares overflow.
        X = np.random.default_rng(55).standard_normal((50, 3))
        with pytest.raises(DataError):
            knn_table(X * 1e200, 3)

    @pytest.mark.parametrize("k", [0, 10, 2.0, True, "3"])
    def test_k_out_of_range(self, k):
        X = np.zeros((10, 2)) + np.arange(10)[:, None]
        form = (f"k={k} out of range [1, 9]" if type(k) is int
                else f"k must be an integer, got {k!r}")
        for score in (knn_table, knn_dist_score):
            with pytest.raises(InvalidInputError, match=re.escape(form)):
                score(X, k)

    def test_two_blocks_match_dense_reference(self, monkeypatch):
        # One worker takes 1_000_000 // 2100 = 476 rows per block, two take
        # 238 each: the table must not depend on where the block edges fall.
        rng = np.random.default_rng(50)
        X = rng.standard_normal((2100, 5))
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_worker_count", lambda w=workers: w)
            tables.append(knn_table(X, 10))
        idx, dist = dense_neighbors(X, 10)
        for table in tables:
            assert np.array_equal(table.indices, idx)
            assert np.abs(table.distances - dist).max() <= 1e-12 * dist.max()
        assert np.array_equal(tables[0].distances, tables[1].distances)

    def test_grid_ties_and_duplicates_across_block_edge(self):
        # About two points per cell of a 10^3 grid: duplicates at distance 0,
        # then a shell of ties at distance 1 around the k-th neighbor. Integer
        # coordinates make every distance exact, so ties are true ties.
        rng = np.random.default_rng(51)
        X = rng.integers(0, 10, size=(2100, 3)).astype(float)
        X[1904] = X[1903]  # duplicate pair split by the block edge
        X[2099] = X[0]
        X[1905] = X[1903] + [1.0, 0.0, 0.0]
        table = knn_table(X, 10)
        sq = np.sum(X * X, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)  # exact on integers
        np.fill_diagonal(d2, np.inf)
        idx = np.argsort(d2, axis=1, kind="stable")[:, :10]
        kth = np.take_along_axis(d2, idx, axis=1)[:, -1]
        assert (np.sum(d2 <= kth[:, None], axis=1) > 10).sum() > 1000
        assert np.array_equal(table.indices, idx)
        exact = np.sqrt(np.take_along_axis(d2, idx, axis=1))
        assert np.array_equal(table.distances, exact)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["gaussian", "grid", "offset", "duplicates"]),
        st.integers(min_value=2, max_value=260),
        # Each survivor's row of d differences is gathered and summed at
        # once: wide rows as well as the narrow ones that tie more often.
        st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=7, max_value=40)),
        st.data(),
    )
    def test_matches_difference_form_oracle(self, kind, n, d, data):
        k = data.draw(st.integers(min_value=1, max_value=min(n - 1, 12)), label="k")
        X = oracle_case(kind, n, d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        # At any power-of-two scale the float32 screen sees the same rows;
        # far down the float64 distances underflow, far up they overflow.
        X = np.ldexp(X, data.draw(st.integers(min_value=-600, max_value=600), label="scale exponent"))
        C = X - X.mean(axis=0)
        if not np.einsum("ij,ij->i", C, C).max() <= np.finfo(float).max / 4:
            with pytest.raises(DataError):
                knn_table(X, k)
            return
        rows = data.draw(st.integers(min_value=1, max_value=n), label="block rows")
        workers = data.draw(st.sampled_from([1, 2]), label="workers")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BLOCK_FLOATS", workers * rows * n)
            mp.setattr(linalg, "_worker_count", lambda: workers)
            table = knn_table(X, k)
        idx, dist = difference_form_neighbors(X, k)
        assert np.array_equal(table.indices, idx)
        assert np.array_equal(table.distances, dist)

    def test_same_table_at_any_block_height(self, monkeypatch):
        # Block heights of 1 (a GEMV), 7, 13, 333 and 2099 rows: the GEMM
        # rounds each differently, and the table must not show it.
        rng = np.random.default_rng(53)
        X = rng.standard_normal((2100, 5))
        idx, dist = difference_form_neighbors(X, 10)
        for rows in (1, 7, 13, 333, 2099):
            for workers in (1, 2):
                monkeypatch.setattr(linalg, "_BLOCK_FLOATS", workers * rows * 2100)
                monkeypatch.setattr(linalg, "_worker_count", lambda w=workers: w)
                table = knn_table(X, 10)
                assert np.array_equal(table.indices, idx)
                assert np.array_equal(table.distances, dist)

    @pytest.mark.parametrize("sorted_rows", [False, True])
    def test_float64_finish_where_screen_too_coarse(self, monkeypatch, sorted_rows):
        # Tight clusters far from the centroid: every cluster column passes
        # the float32 margin, so the table is finished in float64, at the
        # first block (clusters everywhere) or at the first cluster block
        # (Gaussian rows sorted before a cluster).
        rng = np.random.default_rng(58)
        if sorted_rows:
            X = np.vstack([rng.standard_normal((300, 8)), 3.0 + 1e-3 * rng.standard_normal((300, 8))])
        else:
            X = oracle_case("offset", 600, 8, rng)
        monkeypatch.setattr(linalg, "_BLOCK_FLOATS", 2 * 50 * 600)
        monkeypatch.setattr(linalg, "_worker_count", lambda: 2)
        loops = []

        def recorded(n_rows, rows, buf_floats, work):
            loops.append((n_rows, rows, buf_floats))
            return linalg.row_blocks(n_rows, rows, buf_floats, work)

        monkeypatch.setattr(baselines, "row_blocks", recorded)
        table = knn_table(X, 5)
        # Blocks of 50 rows: float32 estimates in 15 000 floats, float64 in
        # 30 000, from row 300 or from the first row.
        assert loops == [(600, 50, 15_000), (300 if sorted_rows else 600, 50, 30_000)]
        idx, dist = difference_form_neighbors(X, 5)
        assert np.array_equal(table.indices, idx)
        assert np.array_equal(table.distances, dist)

    def test_peak_memory_below_half_dense_matrix(self, traced_peak):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((3000, 4))
        _, peak = traced_peak(knn_table, X, 10)
        assert peak < 8 * 3000**2 / 2
        # The float32 block buffers hold 1_000_000 floats (4 MB); each block
        # adds a mask and a sample an eighth of its size, and the table is
        # 0.5 MB. Measured with two workers: 6.5-6.6 MB.
        assert peak < 7.6e6

    def test_peak_memory_of_float64_finish(self, traced_peak):
        # Clusters far from the centroid run the float64 blocks, whose
        # buffers hold 1_000_000 floats (8 MB): no more than before the
        # float32 screen. Measured with two workers: 9.8-10.9 MB.
        X = oracle_case("offset", 3000, 4, np.random.default_rng(57))
        _, peak = traced_peak(knn_table, X, 10)
        assert peak < 1.5 * 8 * 1_000_000


class TestTranslation:
    def test_scores_at_offset_1e7(self):
        # Far from the origin ‖a‖² + ‖b‖² - 2a·b cancels; the difference
        # form loses only the rounding of the shifted input, about 1e-9.
        rng = np.random.default_rng(54)
        X = rng.standard_normal((500, 8))
        for score in (knn_dist_score, lof_score):
            base, moved = score(X, 10), score(X + 1e7, 10)
            assert np.all(np.abs(moved - base) <= 1e-8 * np.abs(base))


class TestKnnDistScore:
    def test_collinear(self):
        scores = knn_dist_score([[0.0], [1.0], [3.0]], 1)
        assert scores.tolist() == [1.0, 1.0, 2.0]
        assert scores.argmax() == 2

    def test_duplicates_score_zero(self):
        scores = knn_dist_score([[1.0], [1.0], [5.0], [5.0]], 1)
        assert scores.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_equals_table_column(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((25, 3))
        assert np.array_equal(knn_dist_score(X, 4), knn_table(X, 4).distances[:, 3])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(45)
        X = rng.standard_normal((20, 2))
        s3 = knn_dist_score(X, 3)
        s6 = knn_dist_score(X, 6)
        assert np.all(s6 >= s3)


class TestLofScore:
    def test_uniform_grid_interior_near_one(self):
        X = np.arange(10.0)[:, None]
        scores = lof_score(X, 2)
        assert np.all(scores[2:8] >= 0.8)
        assert np.all(scores[2:8] <= 1.2)

    def test_planted_point_has_max_lof(self):
        rng = np.random.default_rng(46)
        X = np.vstack([rng.standard_normal((30, 2)) * 0.1, [[10.0, 10.0]]])
        scores = lof_score(X, 5)
        assert scores.argmax() == 30

    def test_2d_grid_interior_near_one(self):
        g = np.arange(20.0)
        xx, yy = np.meshgrid(g, g)
        X = np.column_stack([xx.ravel(), yy.ravel()])
        scores = lof_score(X, 4).reshape(20, 20)
        interior = scores[2:-2, 2:-2]
        assert np.all(interior >= 0.9)
        assert np.all(interior <= 1.1)

    def test_all_identical_rejected(self):
        with pytest.raises(DegenerateDuplicatesError) as exc:
            lof_score(np.ones((6, 2)), 2)
        assert len(exc.value.indices) > 0

    def test_duplicates_message_names_ten(self):
        # The error keeps every index; its message gives the count and the
        # first ten, so the CLI prints one short line.
        rng = np.random.default_rng(56)
        X = np.vstack([np.ones((3000, 2)), rng.standard_normal((20, 2))])
        with pytest.raises(DegenerateDuplicatesError) as exc:
            lof_score(X, 10)
        assert exc.value.indices == list(range(3000))
        assert str(exc.value) == (
            "local reachability density diverges: more than k duplicates at 3000 "
            "indices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]"
        )
        assert str(DegenerateDuplicatesError([4, 7])).endswith("at 2 indices [4, 7]")

    @pytest.mark.parametrize("k", [1, 10, 2.0, 2.5, True, "3"])
    def test_k_out_of_range(self, k):
        X = np.arange(20.0).reshape(10, 2)
        form = (f"k={k} out of range [2, 9]" if type(k) is int
                else f"k must be an integer, got {k!r}")
        with pytest.raises(InvalidInputError, match=re.escape(form)):
            lof_score(X, k)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((25, 3))
        perm = rng.permutation(25)
        assert np.allclose(lof_score(X, 5)[perm], lof_score(X[perm], 5), rtol=1e-12)


def ridged_mahalanobis(X):
    """The ridge rule pinned by value: every eigenvalue is shifted by
    1e-8 * trace/d (1e-8 on constant data) when the smallest is at or below
    1e-12 times the largest."""
    model = fit_pca(X)
    d = X.shape[1]
    vals = model.eigenvalues
    assert vals[-1] <= 1e-12 * vals[0]  # the cases below all take the ridge
    trace = model.total_variance
    vals = vals + 1e-8 * (trace / d if trace > 0.0 else 1.0)
    Z = project(model, X, d) / np.sqrt(vals)
    return np.sum(Z * Z, axis=1)


class TestMahalanobisScore:
    def test_identity_covariance_is_squared_norm(self):
        # sample covariance of these points is exactly the identity
        r = np.sqrt(1.5)
        X = np.array([[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]])
        scores = mahalanobis_score(X)
        assert np.allclose(scores, np.sum(X**2, axis=1), rtol=1e-10)

    def test_point_at_mean_scores_zero(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0], [2.0, -2.0], [-2.0, 2.0]])
        scores = mahalanobis_score(X)
        assert scores[2] <= 1e-12

    def test_quadratic_form_oracle(self):
        rng = np.random.default_rng(48)
        X = rng.standard_normal((50, 3))
        centered = X - X.mean(axis=0)
        S_inv = np.linalg.inv(centered.T @ centered / 49)
        expected = np.array([c @ S_inv @ c for c in centered])
        assert np.abs(mahalanobis_score(X) - expected).max() <= 1e-10 * expected.max()

    def test_affine_invariant_ranking(self):
        rng = np.random.default_rng(49)
        X = rng.standard_normal((40, 3))
        A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        b = rng.standard_normal(3)
        s1 = mahalanobis_score(X)
        s2 = mahalanobis_score(X @ A + b)
        assert np.array_equal(np.argsort(s1), np.argsort(s2))

    def test_ridge_cases_bit_identical_to_rule(self):
        X = np.random.default_rng(50).standard_normal((300, 6))
        planted = gen_synthetic(
            SynthSpec("gaussian-planted", n_normal=190, n_outlier=10, dim=500,
                      seed=0, distance=1.2 * 500**0.5)
        )
        for A in (np.c_[X, X[:, 2]], planted.X, np.ones((5, 2))):
            assert np.array_equal(mahalanobis_score(A), ridged_mahalanobis(A))
        # At n <= d every row is at (n - 1)^2 / n over the non-null
        # components; the ridge alone breaks the tie, here for the planted rows.
        scores = mahalanobis_score(planted.X)
        assert np.abs(scores / (199**2 / 200) - 1.0).max() <= 1e-7
        assert np.array_equal(
            np.sort(np.argsort(-scores, kind="stable")[:10]),
            np.flatnonzero(planted.labels),
        )

    def test_one_row_rejected(self):
        with pytest.raises(InvalidInputError, match="need at least 2 rows"):
            mahalanobis_score([[1.0, 2.0]])

    def test_constant_data_regularized_not_raising(self):
        scores = mahalanobis_score(np.ones((5, 2)))
        assert np.allclose(scores, 0.0)
