import argparse
import csv
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from pkde import cli, datasets, detector, kde, linalg, metrics
from pkde.cli import run
from pkde.datasets import SynthSpec, gen_synthetic, load_csv, write_csv
from pkde.detector import DetectorConfig, detect


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


def nan_scorer(A, config):
    """A stand-in scorer whose every score is NaN."""
    return np.full(A.shape[0], np.nan), 1, None


def subcommand_dests(name):
    """The dest of every flag of one subcommand."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[name]._actions}


class TestOptionsAreDataclassFields:
    """Each option's name and default is stated once, by its dataclass."""

    def test_synth_flags_are_synth_spec_fields(self):
        assert {f.name for f in fields(SynthSpec)} <= subcommand_dests("synth")

    @pytest.mark.parametrize("command", ["detect", "sweep"])
    def test_detector_flags_are_config_fields(self, command):
        names = {f.name for f in fields(DetectorConfig)} - {"contamination"}
        assert names <= subcommand_dests(command)

    def test_synth_defaults_are_synth_spec_defaults(self, tmp_path):
        out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
        assert run(["synth", "-o", str(out)]) == 0
        write_csv(gen_synthetic(SynthSpec("gaussian-planted", n_normal=100)), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("name", detector.DETECTOR_IDS)
    def test_detect_defaults_are_config_defaults(self, tmp_path, name):
        data = tmp_path / "d.csv"
        assert run(synth_args(data, n=190, outliers=10, dim=4)) == 0
        out = tmp_path / "scores.csv"
        argv = ["detect", "-i", str(data), "--label-column", "label",
                "--detector", name, "--contamination", "0.07", "-o", str(out)]
        assert run(argv) == 0
        with out.open() as fh:
            labels = [int(row["label"]) for row in csv.DictReader(fh)]
        X = load_csv(data, label_column="label").X
        expected = detect(name, X, DetectorConfig(contamination=0.07)).labels
        assert labels == expected.tolist()


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

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # The third write (header, then 1024-row chunks) runs out of space.
        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        monkeypatch.setattr(datasets, "open", lambda *a, **kw: FullDisk(open(*a, **kw)),
                            raising=False)
        out = tmp_path / "d.csv"
        assert run(synth_args(out, n=5000, dim=4)) == 2
        assert not out.exists()
        assert "data error: [Errno 28] No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, code, prefix",
        [
            ({"seed": -1}, 1, "error: seed must be >= 0, got -1"),
            ({"dim": 10**20}, 2, "data error: "),
            ({"n": 10**10, "dim": 10**10}, 2, "data error: "),
        ],
    )
    def test_unbuildable_spec_is_one_line(self, tmp_path, capsys, overrides, code, prefix):
        out = tmp_path / "d.csv"
        assert run(synth_args(out, **overrides)) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "dual-density", "outliers": 0, "variance-ratio": "nan"},
            {"kind": "dual-density", "outliers": 0, "separation": "inf"},
            {"kind": "dual-density", "outliers": 0, "separation": "nan"},
            {"outliers": 1, "distance": "nan"},
            {"outliers": 1, "distance": "inf"},
        ],
    )
    def test_non_finite_knob_exit_1_no_output(self, tmp_path, capsys, overrides):
        out = tmp_path / "d.csv"
        assert run(synth_args(out, **overrides)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_device_write_removes_nothing(self, capsys, monkeypatch):
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        assert run(synth_args("/dev/full", n=5000, dim=50)) == 2
        assert "data error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert removed == []

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

    def test_json_reports_exactness(self, tmp_path):
        # 1900 + 100 rows take PKDE's top-K path: the labelled rows are
        # exact, and the scores of inexact rows are bounds below them.
        data = tmp_path / "d.csv"
        assert run(synth_args(data, n=1900, outliers=100, dim=8)) == 0
        out = tmp_path / "scores.json"
        argv = ["detect", "-i", str(data), "--label-column", "label",
                "--contamination", "0.05", "--format", "json", "-o", str(out)]
        assert run(argv) == 0
        points = json.loads(out.read_text())["points"]
        assert {type(p["exact"]) for p in points} == {bool}
        inexact = [p for p in points if not p["exact"]]
        assert len(inexact) > 1500
        assert all(p["exact"] for p in points if p["label"] == 1)
        lowest = min(p["score"] for p in points if p["label"] == 1)
        assert max(p["score"] for p in inexact) < lowest
        assert run(argv[:-4] + ["--detector", "lof", "--format", "json", "-o", str(out)]) == 0
        assert all(p["exact"] for p in json.loads(out.read_text())["points"])

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

    def test_non_finite_scores_exit_3_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(detector._SCORERS, "pkde", (3, nan_scorer))
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
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

    def test_extreme_scale_finds_planted(self, tmp_path):
        # The covariance of this data overflows at 1e160 and the bandwidth
        # inverse at 1e-160; detect's power-of-two rescale avoids both.
        for scale in (1e-160, 1e160):
            data = scaled_planted(tmp_path, scale)
            out = tmp_path / "scores.csv"
            rc = run(
                [
                    "detect", "-i", str(data), "--label-column", "label",
                    "--contamination", "0.05", "-o", str(out),
                ]
            )
            assert rc == 0
            truth = load_csv(data, label_column="label").labels
            with out.open() as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["label"]) for r in rows] == truth.tolist()
            assert all(np.isfinite(float(r["score"])) for r in rows)

    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_exit_0(self, tmp_path, header):
        # A "CSV UTF-8" spreadsheet export begins with a byte-order mark,
        # here in front of the label column's name or of the first value.
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        ds = load_csv(data, label_column="label")
        rows = [f"{y},{a!r},{b!r}" for y, (a, b) in zip(ds.labels, ds.X.tolist())]
        if header:
            rows.insert(0, "label,a,b")
        else:
            rows = [row.split(",", 1)[1] for row in rows]
        data.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode())
        out = tmp_path / "scores.csv"
        columns = ["--label-column", "label"] if header else ["--no-header"]
        rc = run(["detect", "-i", str(data), *columns, "--contamination", "0.05",
                  "-o", str(out)])
        assert rc == 0
        with out.open() as fh:
            predicted = [int(r["label"]) for r in csv.DictReader(fh)]
        assert predicted == ds.labels.tolist()

    def test_tiny_but_real_direction_exit_0(self, tmp_path):
        # A column at 1.5e-6 of the others is above the null threshold, so
        # PKDE keeps it and must not call its bandwidth singular.
        X = np.random.default_rng(0).standard_normal((400, 5))
        X[:, 4] *= 1.5e-6
        data = tmp_path / "d.csv"
        np.savetxt(data, X, delimiter=",", fmt="%.17g")
        out = tmp_path / "scores.json"
        rc = run(
            [
                "detect", "-i", str(data), "--no-header", "--contamination", "0.05",
                "--fixed-dim", "5", "--format", "json", "-o", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["reduced_dim"] == 5

    @pytest.mark.parametrize("where", ["scorer", "kernel-sum block"])
    def test_out_of_memory_exit_2_no_output(self, tmp_path, capsys, monkeypatch, where):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 3.09 GiB")

        if where == "scorer":
            monkeypatch.setitem(detector._SCORERS, "pkde", (3, exhausted))
        else:
            # Tiles of 2 x 16 on two workers; the second block fails in a
            # worker thread.
            monkeypatch.setattr(linalg, "_worker_count", lambda: 2)
            monkeypatch.setattr(kde, "_TILE_ROWS", 2)
            monkeypatch.setattr(kde, "_TILE_COLS", 16)
            row_blocks = kde.row_blocks

            def failing_blocks(n_rows, rows, buf_floats, work):
                def first_block_only(s, e, buf):
                    if s > 0:
                        exhausted()
                    return work(s, e, buf)

                return row_blocks(n_rows, rows, buf_floats, first_block_only)

            monkeypatch.setattr(kde, "row_blocks", failing_blocks)
        calls = linalg._blas_thread_calls()
        before = calls and calls[0]()
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        out = tmp_path / "scores.csv"
        rc = run(["detect", "-i", str(data), "--contamination", "0.05", "-o", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "data error: Unable to allocate" in capsys.readouterr().err
        assert (calls and calls[0]()) == before

    def test_two_rows(self, tmp_path, capsys):
        # LOF needs k >= 2 neighbours, so 3 rows, as PKDE does; kNN distance
        # and Mahalanobis work on 2.
        data = tmp_path / "two.csv"
        data.write_text("a,b\n1,2\n3,5\n")
        argv = ["detect", "-i", str(data), "--contamination", "0.5", "--detector"]
        assert run(argv + ["lof"]) == 1
        assert "need at least 3 rows, got 2" in capsys.readouterr().err
        assert run(argv + ["knn-dist"]) == 0
        assert run(argv + ["mahalanobis"]) == 0

    def test_one_row(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("a,b\n1,2\n")
        argv = ["detect", "-i", str(data), "--contamination", "0.5", "--detector"]
        assert run(argv + ["knn-dist"]) == 1
        assert "need at least 2 rows, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, argv, names, cells",
        [
            # More names than cells: the label column is past the data.
            ("a,b,label\n1,2\n3,4\n5,6\n", ["--label-column", "label"], 3, 2),
            # A quoted name with a comma: "c" would select the second cell.
            ('"a,b",c\n1,2,0\n3,4,1\n5,6,0\n7,8,0\n',
             ["--label-column", "c", "--detector", "mahalanobis"], 2, 3),
        ],
        ids=["more-names", "quoted-name"],
    )
    def test_header_width_mismatch_exit_2_no_output(self, tmp_path, capsys, text, argv,
                                                    names, cells):
        data = tmp_path / "d.csv"
        data.write_text(text)
        out = tmp_path / "scores.csv"
        rc = run(["detect", "-i", str(data), "--contamination", "0.3", *argv,
                  "-o", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"data error: {data}: the header has {names} names but the data rows "
            f"have {cells} cells\n"
        )

    def test_unknown_flag_exit_1(self):
        assert run(["detect", "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command",
        [["detect", "--contamination", "0.1"], ["sweep", "--grid", "0.1"], ["bench"]],
    )
    def test_not_utf8_exit_2(self, tmp_path, capsys, command):
        data = tmp_path / "f.csv"
        data.write_bytes(b"a,b\n1,2\n3,\xff\n")
        assert run(command + ["-i", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: not UTF-8 text (")
        assert err.count("\n") == 1

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

    def test_same_report_and_plot_path_exit_1_no_output(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("a detector ran")

        monkeypatch.setitem(detector._SCORERS, "pkde", (3, never))
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        (tmp_path / "sub").mkdir()
        same = tmp_path / "same.csv"
        rc = run(
            [
                "sweep", "-i", str(data), "--detectors", "pkde", "--grid", "0.05,0.1",
                "-o", str(same),
                "--plot-data", str(tmp_path / "sub" / ".." / "same.csv"),
            ]
        )
        assert rc == 1
        assert not same.exists()
        assert "same file" in capsys.readouterr().err

    def test_all_detectors_default_grid(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        report = tmp_path / "report.csv"
        rc = run(["sweep", "-i", str(data), "-o", str(report)])
        assert rc == 0
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 30 * 4

    def test_non_finite_scores_exit_3_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(detector._SCORERS, "pkde", (3, nan_scorer))
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
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

    def test_bad_plot_path_exit_2_no_output(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        argv = [
            "sweep", "-i", str(data), "--detectors", "pkde", "--grid", "0.05",
            "--plot-data", str(tmp_path / "nodir" / "f1.csv"),
        ]
        report = tmp_path / "report.csv"
        assert run(argv + ["-o", str(report)]) == 2
        assert not report.exists()
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    def test_bad_plot_path_keeps_device_report(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        rc = run(
            [
                "sweep", "-i", str(data), "--grid", "0.05", "-o", os.devnull,
                "--plot-data", str(tmp_path / "missing" / "dir" / "f.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: [Errno 2] No such file or directory")
        assert removed == []

    def test_empty_detector_list_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        rc = run(["sweep", "-i", str(data), "--label-column", "label",
                  "--detectors", ","])
        assert rc == 1
        assert "detector list is empty" in capsys.readouterr().err

    def test_empty_grid_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        rc = run(["sweep", "-i", str(data), "--label-column", "label", "--grid", ","])
        assert rc == 1
        assert "contamination grid is empty" in capsys.readouterr().err

    def test_json_matches_csv(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        argv = ["sweep", "-i", str(data), "--detectors", "pkde,lof",
                "--grid", "0.05,0.1"]
        assert run(argv + ["-o", str(tmp_path / "r.csv")]) == 0
        assert run(argv + ["--format", "json", "-o", str(tmp_path / "r.json")]) == 0
        with (tmp_path / "r.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        doc = json.loads((tmp_path / "r.json").read_text())
        assert [tuple(r) for r in doc] == [metrics.REPORT_FIELDS] * 4
        timings = {"fit_time", "score_time"}  # differ between the two runs
        assert [{k: str(v) for k, v in r.items() if k not in timings} for r in doc] == [
            {k: v for k, v in r.items() if k not in timings} for r in rows
        ]

    def test_bad_grid_value_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        assert run(["sweep", "-i", str(data), "--grid", "0.05,x"]) == 1
        assert capsys.readouterr().err == "error: bad --grid value: '0.05,x'\n"

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

    def test_json_matches_csv(self, tmp_path):
        data, other = tmp_path / "d.csv", tmp_path / "e.csv"
        assert run(synth_args(data)) == 0
        assert run(synth_args(other, seed=8)) == 0
        argv = ["bench", "-i", str(data), "-i", str(other), "--label-column", "label",
                "--detectors", "mahalanobis,knn-dist", "--repeats", "1"]
        assert run(argv + ["-o", str(tmp_path / "t.csv")]) == 0
        assert run(argv + ["--format", "json", "-o", str(tmp_path / "t.json")]) == 0
        with (tmp_path / "t.csv").open() as fh:
            rows = list(csv.reader(fh))
        doc = json.loads((tmp_path / "t.json").read_text())
        assert [list(r) for r in doc] == [rows[0]] * 2
        assert [r["dataset"] for r in doc] == [r[0] for r in rows[1:]] == ["d", "e"]
        assert all(r[name] > 0.0 for r in doc for name in rows[0][1:])

    def test_zero_repeats_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        rc = run(
            ["bench", "-i", str(data), "--label-column", "label", "--repeats", "0"]
        )
        assert rc == 1
        assert "repeats must be >= 1, got 0" in capsys.readouterr().err

    def test_empty_detector_list_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(synth_args(data)) == 0
        rc = run(["bench", "-i", str(data), "--label-column", "label",
                  "--detectors", ","])
        assert rc == 1
        assert "detector list is empty" in capsys.readouterr().err
