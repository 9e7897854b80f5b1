import tracemalloc

import numpy as np
import pytest

from pkde import linalg
from pkde.baselines import (
    knn_dist_score,
    knn_table,
    lof_score,
    mahalanobis_score,
)
from pkde.errors import DegenerateDuplicatesError, InvalidInputError


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

    @pytest.mark.parametrize("k", [0, 10])
    def test_k_out_of_range(self, k):
        with pytest.raises(InvalidInputError):
            knn_table(np.zeros((10, 2)) + np.arange(10)[:, None], k)

    def test_two_blocks_match_dense_reference(self, monkeypatch):
        # One worker takes 4_000_000 // 2100 = 1904 rows per block, two take
        # 952 each: the table must not depend on where the block edges fall.
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

    def test_peak_memory_below_half_dense_matrix(self):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((3000, 4))
        tracemalloc.start()
        try:
            knn_table(X, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 3000**2 / 2


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

    def test_permutation_invariance(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((25, 3))
        perm = rng.permutation(25)
        assert np.allclose(lof_score(X, 5)[perm], lof_score(X[perm], 5), rtol=1e-12)


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

    def test_constant_data_regularized_not_raising(self):
        scores = mahalanobis_score(np.ones((5, 2)))
        assert np.allclose(scores, 0.0)
