import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from pkde.cli import run
from pkde.datasets import load_csv, write_csv


def synth_args(path, **overrides):
    args = {
        "kind": "gaussian-planted",
        "n": "95",
        "outliers": "5",
        "dim": "2",
        "seed": "7",
    }
    args.update({k: str(v) for k, v in overrides.items()})
    argv = ["synth"]
    for key, value in args.items():
        argv += [f"--{key}", value]
    return argv + ["-o", str(path)]


def scaled_planted(tmp_path, scale):
    """The default planted set with every value multiplied by scale."""
    data = tmp_path / "d.csv"
    assert run(synth_args(data)) == 0
    ds = load_csv(data, label_column="label")
    scaled = tmp_path / "scaled.csv"
    write_csv(replace(ds, X=ds.X * scale), scaled)
    return scaled


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(synth_args(out)) == 0
        ds = load_csv(out, label_column="label")
        assert ds.n == 100
        assert ds.d == 2
        assert int(ds.labels.sum()) == 5

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(synth_args(a)) == 0
        assert run(synth_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_is_usage_error(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(synth_args(out, kind="gaussian", outliers="5"))
        assert rc == 1
        assert not out.exists()


class TestDetect:
    def test_end_to_end_planted(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        out = tmp_path / "scores.csv"
        rc = run(
            [
                "detect", "-i", str(data), "--label-column", "label",
                "--detector", "pkde", "--contamination", "0.05",
                "-o", str(out),
            ]
        )
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "score", "label"]
        predicted = np.array([int(r[2]) for r in rows[1:]])
        truth = load_csv(data, label_column="label").labels
        assert np.array_equal(predicted, truth)

    def test_json_output(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        out = tmp_path / "scores.json"
        rc = run(
            [
                "detect", "-i", str(data), "--label-column", "label",
                "--contamination", "0.05", "--format", "json",
                "-o", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["k_used"] == 5
        assert len(doc["points"]) == 100

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = run(["detect", "-i", str(missing), "--contamination", "0.1"])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_empty_file_exit_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run(["detect", "-i", str(path), "--contamination", "0.1"]) == 2

    def test_bad_contamination_exit_1_no_output(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        out = tmp_path / "scores.csv"
        rc = run(
            [
                "detect", "-i", str(data), "--contamination", "0.9",
                "-o", str(out),
            ]
        )
        assert rc == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_scores_exit_3_no_output(self, tmp_path, capsys):
        data = scaled_planted(tmp_path, 1e-160)
        out = tmp_path / "scores.csv"
        rc = run(
            [
                "detect", "-i", str(data), "--label-column", "label",
                "--contamination", "0.05", "-o", str(out),
            ]
        )
        assert rc == 3
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_covariance_overflow_exit_2(self, tmp_path, capsys):
        data = scaled_planted(tmp_path, 1e160)
        rc = run(
            [
                "detect", "-i", str(data), "--label-column", "label",
                "--contamination", "0.05",
            ]
        )
        assert rc == 2
        assert "covariance overflows" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self):
        assert run(["detect", "--frobnicate"]) == 1

    def test_reproducible_output(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert run(
                [
                    "detect", "-i", str(data), "--label-column", "label",
                    "--contamination", "0.05", "-o", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweep:
    def test_report_and_plot_data(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        report = tmp_path / "report.csv"
        plot = tmp_path / "plot.csv"
        rc = run(
            [
                "sweep", "-i", str(data), "--detectors", "pkde,mahalanobis",
                "--grid", "0.05,0.1", "-o", str(report),
                "--plot-data", str(plot),
            ]
        )
        assert rc == 0
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4  # 2 detectors x 2 grid points
        with plot.open() as fh:
            plot_rows = list(csv.reader(fh))
        assert plot_rows[0] == ["contamination", "detector", "f1"]
        assert len(plot_rows) == 1 + 4

    def test_all_detectors_default_grid(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        report = tmp_path / "report.csv"
        rc = run(["sweep", "-i", str(data), "-o", str(report)])
        assert rc == 0
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 30 * 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_scores_exit_3_no_output(self, tmp_path, capsys):
        data = scaled_planted(tmp_path, 1e-160)
        report = tmp_path / "report.csv"
        plot = tmp_path / "plot.csv"
        rc = run(
            [
                "sweep", "-i", str(data), "--detectors", "pkde",
                "--grid", "0.05", "-o", str(report), "--plot-data", str(plot),
            ]
        )
        assert rc == 3
        assert not report.exists()
        assert not plot.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_unlabeled_is_usage_error(self, tmp_path):
        data = tmp_path / "plain.csv"
        data.write_text("a,b\n1,2\n3,4\n5,6\n")
        # the default "last" label column holds real data, not 0/1 labels
        rc = run(["sweep", "-i", str(data), "--grid", "0.5"])
        assert rc == 2


class TestBench:
    def test_timing_table(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        out = tmp_path / "bench.csv"
        rc = run(
            [
                "bench", "-i", str(data), "--label-column", "label",
                "--detectors", "pkde,knn-dist", "--repeats", "2",
                "-o", str(out),
            ]
        )
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "pkde", "knn-dist"]
        assert len(rows) == 2
        assert float(rows[1][1]) > 0.0
