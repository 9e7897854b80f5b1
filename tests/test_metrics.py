import csv
import io
import json
import re

import numpy as np
import pytest

from pkde import detector, metrics
from pkde.datasets import SynthSpec, gen_synthetic
from pkde.detector import DetectorConfig, detect
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

    def test_empty_grid_rejected(self, planted_dataset):
        with pytest.raises(InvalidInputError, match="contamination grid is empty"):
            sweep(["pkde"], planted_dataset, [])

    @pytest.mark.parametrize(
        "grid, repeats, message",
        [
            ([0.05], 1.5, "repeats must be an integer, got 1.5"),
            ([0.05], True, "repeats must be an integer, got True"),
            (["0.2"], 1, "contamination grid value must be a real number, got '0.2'"),
            ([0.05, True], 1, "contamination grid value must be a real number, got True"),
            ([0.05], 2.0, "repeats must be an integer, got 2.0"),
            ([0.05], "3", "repeats must be an integer, got '3'"),
            ([0.05], 0, "repeats must be >= 1, got 0"),
            ([2.0], 1, "contamination grid value must be in (0, 0.5], got 2.0"),
            ([0.05, 0.6], 1, "contamination grid value must be in (0, 0.5], got 0.6"),
            (["3"], 1, "contamination grid value must be a real number, got '3'"),
        ],
    )
    def test_counts_and_fractions_type_checked(self, planted_dataset, grid, repeats, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            sweep(["pkde"], planted_dataset, grid, repeats=repeats)

    def test_zero_repeats_rejected(self, planted_dataset):
        with pytest.raises(InvalidInputError, match="repeats must be >= 1, got 0"):
            sweep(["pkde"], planted_dataset, [0.05], repeats=0)

    def test_options_are_detector_config_fields(self, planted_dataset, monkeypatch):
        configs = []
        real = metrics.detect

        def recorded(name, X, config):
            configs.append(config)
            return real(name, X, config)

        monkeypatch.setattr(metrics, "detect", recorded)
        sweep(["pkde"], planted_dataset, [0.05, 0.1], variance_threshold=0.8,
              fixed_dim=1, bandwidth_rule="scott-squared", neighbors=4)
        assert configs == [DetectorConfig(0.1, 0.8, 1, "scott-squared", 4)]
        with pytest.raises(TypeError, match="variance"):
            sweep(["pkde"], planted_dataset, [0.05], variance=0.8)

    def test_timings_are_the_detections(self, planted_dataset, monkeypatch):
        # One detection per repeat, at the largest contamination; every report
        # of it carries its fit_time and score_time.
        results = []
        real = metrics.detect

        def recorded(name, X, config):
            results.append(real(name, X, config))
            return results[-1]

        monkeypatch.setattr(metrics, "detect", recorded)
        reports = sweep(["lof"], planted_dataset, [0.05, 0.1, 0.2], repeats=2)
        assert [(r.fit_time, r.score_time) for r in reports] == [
            (res.fit_time, res.score_time) for _ in range(3) for res in results
        ]

    def test_empty_detector_list_rejected(self, planted_dataset):
        with pytest.raises(InvalidInputError, match="detector list is empty"):
            sweep([], planted_dataset, [0.05])

    def test_non_finite_scores_raise(self, planted_dataset, monkeypatch):
        nan_scorer = lambda A, config: (np.full(A.shape[0], np.nan), 1, None)
        monkeypatch.setitem(detector._SCORERS, "pkde", (3, nan_scorer))
        with pytest.raises(NumericalError, match="non-finite"):
            sweep(["pkde"], planted_dataset, [0.05])

    def test_cuts_match_fresh_detect(self, monkeypatch):
        # PKDE scores are exact only where they decide the top K, so sweep
        # detects at the largest contamination and every cut falls inside it.
        # Cuts past the 100 outliers are needed to tell: at 0.01 the top-K
        # path already makes every outlier exact.
        ds = gen_synthetic(
            SynthSpec("gaussian-planted", n_normal=1900, n_outlier=100, dim=8, seed=5)
        )
        grid = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
        cuts = []
        real = metrics.top_k_select

        def recorded(scores, k):
            cuts.append(real(scores, k))
            return cuts[-1]

        monkeypatch.setattr(metrics, "top_k_select", recorded)
        reports = sweep(["pkde"], ds, grid)
        for c, report, labels in zip(grid, reports, cuts, strict=True):
            fresh = detect("pkde", ds.X, DetectorConfig(contamination=c))
            assert np.array_equal(labels, fresh.labels), c
            assert report.f1 == f1_score(fresh.labels, ds.labels)["f1"]
        assert not fresh.exact.all()  # the top-K path ran at 0.08

    def test_default_grid(self):
        grid = default_grid()
        assert len(grid) == 30
        assert grid[0] == 0.01
        assert grid[-1] == 0.30


class TestSerialization:
    def _reports(self, planted):
        return sweep(["pkde", "lof"], planted, [0.05, 0.1])

    def test_columns_pinned(self):
        # The report columns are EvalReport's fields, in this order.
        assert REPORT_FIELDS == (
            "detector", "dataset", "contamination", "precision", "recall", "f1",
            "tp", "fp", "fn", "tn", "fit_time", "score_time",
        )

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
