import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from pkde.datasets import SynthSpec, gen_synthetic
from pkde.errors import InvalidInputError, NumericalError
from pkde.metrics import (
    EvalReport,
    REPORT_FIELDS,
    default_grid,
    f1_score,
    reports_to_csv,
    reports_to_json,
    sweep,
)


class TestF1Score:
    def test_perfect_detector(self):
        truth = [0, 1, 0, 1, 0]
        stats = f1_score(truth, truth)
        assert stats["precision"] == 1.0
        assert stats["recall"] == 1.0
        assert stats["f1"] == 1.0

    def test_half_and_half(self):
        # tp=1, fp=1, fn=1
        stats = f1_score([1, 1, 0, 0], [1, 0, 1, 0])
        assert stats["precision"] == 0.5
        assert stats["recall"] == 0.5
        assert stats["f1"] == 0.5

    def test_all_negative_prediction(self):
        stats = f1_score([0, 0, 0], [0, 1, 1])
        assert stats["recall"] == 0.0
        assert stats["f1"] == 0.0

    def test_counts_partition_n(self):
        rng = np.random.default_rng(60)
        p = rng.integers(0, 2, 50)
        t = rng.integers(0, 2, 50)
        stats = f1_score(p, t)
        assert stats["tp"] + stats["fp"] + stats["fn"] + stats["tn"] == 50

    def test_precision_times_predicted_is_tp(self):
        rng = np.random.default_rng(61)
        p = rng.integers(0, 2, 80)
        t = rng.integers(0, 2, 80)
        stats = f1_score(p, t)
        n_pred = stats["tp"] + stats["fp"]
        assert stats["precision"] * n_pred == pytest.approx(stats["tp"])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            f1_score([0, 1], [0, 1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            f1_score([0, 2], [0, 1])


@pytest.fixture(scope="module")
def planted_dataset():
    return gen_synthetic(
        SynthSpec("gaussian-planted", n_normal=95, n_outlier=5, dim=2, seed=7)
    )


class TestSweep:
    def test_true_ratio_gives_perfect_f1(self, planted_dataset):
        reports = sweep(["pkde"], planted_dataset, [0.05])
        assert len(reports) == 1
        assert reports[0].f1 == 1.0

    def test_cardinality(self, planted_dataset):
        reports = sweep(
            ["pkde", "mahalanobis"], planted_dataset, [0.05, 0.1, 0.2], repeats=2
        )
        assert len(reports) == 3 * 2 * 2

    def test_deterministic_f1(self, planted_dataset):
        grid = [0.02, 0.05, 0.1]
        r1 = sweep(["pkde", "knn-dist"], planted_dataset, grid)
        r2 = sweep(["pkde", "knn-dist"], planted_dataset, grid)
        assert [r.f1 for r in r1] == [r.f1 for r in r2]

    def test_unlabeled_rejected(self, planted_dataset):
        from pkde.datasets import Dataset

        unlabeled = Dataset(X=planted_dataset.X, labels=None, name="u")
        with pytest.raises(InvalidInputError):
            sweep(["pkde"], unlabeled, [0.05])

    def test_bad_grid(self, planted_dataset):
        with pytest.raises(InvalidInputError):
            sweep(["pkde"], planted_dataset, [0.7])

    def test_unknown_detector(self, planted_dataset):
        with pytest.raises(InvalidInputError):
            sweep(["nope"], planted_dataset, [0.1])

    def test_non_finite_scores_raise(self, planted_dataset):
        # At 1e-160 the bandwidth inverse overflows and every score is NaN.
        scaled = replace(planted_dataset, X=planted_dataset.X * 1e-160)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            sweep(["pkde"], scaled, [0.05])

    def test_default_grid(self):
        grid = default_grid()
        assert len(grid) == 30
        assert grid[0] == 0.01
        assert grid[-1] == 0.30


class TestSerialization:
    def _reports(self, planted):
        return sweep(["pkde", "lof"], planted, [0.05, 0.1])

    def test_csv_shape(self, planted_dataset):
        text = reports_to_csv(self._reports(planted_dataset))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(REPORT_FIELDS)
        assert len(rows) == 1 + 4

    def test_json_round_trip(self, planted_dataset):
        reports = self._reports(planted_dataset)
        parsed = json.loads(reports_to_json(reports))
        assert len(parsed) == len(reports)
        assert parsed[0]["detector"] == reports[0].detector
        assert parsed[0]["f1"] == reports[0].f1
        assert set(parsed[0]) == set(REPORT_FIELDS)
