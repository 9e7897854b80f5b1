import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkde import datasets
from pkde.datasets import (
    Dataset,
    SynthSpec,
    csv_text,
    gen_synthetic,
    load_csv,
    write_csv,
)
from pkde.errors import InvalidInputError, ParseError

LABELED_CSV = "a,b,label\n1,2,0\n3,4,0\n9,9,1\n"


class TestGenSynthetic:
    def test_planted_separation(self):
        ds = gen_synthetic(
            SynthSpec("gaussian-planted", n_normal=95, n_outlier=5, dim=2, seed=7)
        )
        norms = np.linalg.norm(ds.X, axis=1)
        assert norms[ds.labels == 1].min() > norms[ds.labels == 0].max()
        assert ds.n == 100
        assert ds.outlier_ratio == 0.05

    def test_no_outliers(self):
        ds = gen_synthetic(SynthSpec("gaussian", n_normal=50, dim=3, seed=1))
        assert ds.labels.sum() == 0
        assert ds.outlier_ratio == 0.0

    def test_deterministic(self):
        spec = SynthSpec("gaussian-planted", n_normal=40, n_outlier=4, dim=3, seed=99)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_gaussian_cov_correlation(self):
        ds = gen_synthetic(
            SynthSpec("gaussian-cov", n_normal=2000, dim=4, seed=5, rho=0.6)
        )
        corr = np.corrcoef(ds.X.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.6) < 0.1)

    def test_dual_density_clusters(self):
        ds = gen_synthetic(
            SynthSpec("dual-density", n_normal=300, dim=2, seed=8, separation=4.0)
        )
        assert ds.n == 300
        # two clusters around +/-4 on the first axis
        assert (ds.X[:, 0] > 2).sum() > 0
        assert (ds.X[:, 0] < -2).sum() > 0

    def test_planted_shell_radius(self):
        ds = gen_synthetic(
            SynthSpec(
                "gaussian-planted", n_normal=20, n_outlier=5, dim=6, seed=2,
                distance=12.0,
            )
        )
        radii = np.linalg.norm(ds.X[ds.labels == 1], axis=1)
        assert np.allclose(radii, 12.0)

    def test_bad_kind(self):
        with pytest.raises(InvalidInputError):
            SynthSpec("uniform", n_normal=10)

    def test_outliers_only_for_planted_kind(self):
        with pytest.raises(InvalidInputError):
            SynthSpec("gaussian", n_normal=10, n_outlier=2)

    def test_too_many_outliers(self):
        with pytest.raises(InvalidInputError):
            SynthSpec("gaussian-planted", n_normal=5, n_outlier=5)


class TestLoadCsv:
    def test_labeled_fixture(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LABELED_CSV)
        ds = load_csv(path, label_column="label")
        assert ds.n == 3
        assert ds.d == 2
        assert ds.labels.tolist() == [0, 0, 1]
        assert ds.outlier_ratio == pytest.approx(1 / 3)

    def test_unlabeled(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LABELED_CSV)
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.d == 3
        assert ds.labels is None
        assert ds.outlier_ratio is None

    def test_label_last(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LABELED_CSV)
        ds = load_csv(path, label_column="last")
        assert ds.d == 2
        assert ds.labels.tolist() == [0, 0, 1]

    def test_no_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path, has_header=False)
        assert ds.n == 2
        assert ds.d == 2

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
        assert load_csv(path).n == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,inf\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_blank_and_whitespace_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n\n1,2\n   \n , \n3,4\n\n")
        ds = load_csv(path)
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_quoted_and_padded_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,b\n"1", 2 \n')
        assert load_csv(path).X.tolist() == [[1.0, 2.0]]

    def test_first_bad_cell_wins_over_later_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,x\n3\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert str(exc.value) == "row 2: cell 1 is not numeric: 'x'"

    def test_overflowing_cell_not_finite(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,1e400\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert str(exc.value) == "row 2: cell 1 is not finite: '1e400'"

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,2\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column="label")

    def test_non_binary_label_message(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,2\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path, label_column="label")
        assert str(exc.value) == "label column has non-binary value 2.0 at data row 1"

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LABELED_CSV)
        with pytest.raises(InvalidInputError):
            load_csv(path, label_column="target")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            load_csv(path)


# Cells and lines that the csv module and np.loadtxt may read differently.
ODD_CELLS = [
    "-0.0", ".5", "5.", "+1", "1e-300", "1e400", "nan", "inf", "-inf", "1_000",
    "#", "1#", "x", "", "0x10", "1 2", "\u0661", "1e",
]
CELLS = st.one_of(st.integers(-5, 5).map(str), st.sampled_from(ODD_CELLS))
PADS = ["", " ", "\t", "\xa0", "\u2028", "\x0b", "\x0c"]
ODD_LINES = ["", "   ", " , ", ",", "\t", '""', "# comment"]


@st.composite
def csv_lines(draw):
    """Header and body lines: rows of one width of plain numbers and blank
    lines, and in half the files also padded, quoted, odd or ragged ones."""
    width = draw(st.integers(1, 4))
    clean = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(0, 1).map(str),
    )
    row = st.lists(clean, min_size=width, max_size=width)
    line = st.one_of(row, row, row, st.just([""]))
    if draw(st.booleans()):
        odd = st.tuples(st.sampled_from(PADS), CELLS, st.sampled_from(PADS), st.booleans())
        odd = odd.map(lambda t: f'"{t[1]}"' if t[3] else t[0] + t[1] + t[2])
        cell = st.one_of(clean, clean, clean, odd)
        line = st.one_of(
            st.lists(cell, min_size=width, max_size=width),
            st.lists(cell, min_size=1, max_size=5),
            st.sampled_from(ODD_LINES).map(lambda text: [text]),
        )
    header = ",".join(["a", "b", "label", "c"][:width])
    return [header, *map(",".join, draw(st.lists(line, max_size=8)))]


class TestLoadCsvFastPath:
    @settings(max_examples=300, deadline=None)
    @given(
        csv_lines(),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
        st.sampled_from([None, "last", "b", "label"]),
        st.booleans(),
    )
    def test_same_result_as_csv_module(self, tmp_path_factory, lines, eol, has_header,
                                       label_column, final_eol):
        text = eol.join(lines if has_header else lines[1:]) + (eol if final_eol else "")
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))

        def outcome():
            try:
                ds = load_csv(path, has_header=has_header, label_column=label_column)
            except Exception as exc:  # the reference's error is the expected one
                return type(exc), str(exc)
            labels = None if ds.labels is None else ds.labels.tolist()
            return ds.X.shape, ds.X.tobytes(), labels, ds.name

        fast = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datasets, "_read_loadtxt", lambda path, has_header: None)
            reference = outcome()
        assert fast == reference

    def test_fast_path_taken_for_plain_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text(LABELED_CSV)
        monkeypatch.setattr(datasets, "_read_rows", None)  # any use fails
        assert load_csv(path, label_column="label").labels.tolist() == [0, 0, 1]

    def test_parse_peak_memory(self, tmp_path):
        # 3000 x 20 floats are 480 kB. Through the csv module's lists of cell
        # strings the parse peaks at 11 times that, through loadtxt at 2.2.
        ds = gen_synthetic(SynthSpec("gaussian", n_normal=3000, dim=20, seed=3))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        tracemalloc.start()
        try:
            back = load_csv(path, label_column="label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.X, ds.X)
        assert peak < 3 * ds.X.nbytes


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        ds = gen_synthetic(
            SynthSpec("gaussian-planted", n_normal=30, n_outlier=3, dim=4, seed=6)
        )
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        back = load_csv(path, label_column="label")
        assert np.array_equal(back.X, ds.X)  # repr round-trips exactly
        assert np.array_equal(back.labels, ds.labels)

    def test_byte_identical_for_same_spec(self, tmp_path):
        spec = SynthSpec("gaussian", n_normal=20, dim=2, seed=12)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(gen_synthetic(spec), p1)
        write_csv(gen_synthetic(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("labels", [None, np.array([0, 1, 1])])
    def test_same_bytes_as_csv_text(self, tmp_path, labels):
        X = np.array([[-0.0, 1e-300, 5e-324], [1e300, 0.1, -2.5], [1.0, 123456789.0, 1e16]])
        ds = Dataset(X=X, labels=labels, name="t")
        path = tmp_path / "w.csv"
        write_csv(ds, path)
        header = [f"f{j}" for j in range(3)]
        rows = X.tolist()
        if labels is not None:
            header.append("label")
            rows = [row + [int(v)] for row, v in zip(rows, labels)]
        assert path.read_bytes() == csv_text(header, rows).encode("utf-8")

    def test_unlabeled_write(self, tmp_path):
        ds = Dataset(X=np.array([[1.0, 2.0]]), labels=None, name="t")
        path = tmp_path / "u.csv"
        write_csv(ds, path)
        assert path.read_text().splitlines()[0] == "f0,f1"
