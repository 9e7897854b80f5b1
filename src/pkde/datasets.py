"""Dataset ingestion from CSV and seeded synthetic generators.

Random source: numpy's PCG64 generator (np.random.default_rng) with its
ziggurat standard-normal transform. A given (spec, seed) pair is
bit-reproducible for a fixed numpy version.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError
from .linalg import as_matrix, check_int, check_real

SYNTH_KINDS = ("gaussian", "gaussian-cov", "dual-density", "gaussian-planted")

# write_csv formats and writes about this many cells at a time (at least one
# row): each cell becomes a Python float and a string before it is written, so
# the budget, not the row width, bounds those objects.
_WRITE_CELLS = 4096


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    labels: np.ndarray | None
    name: str

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def outlier_ratio(self) -> float | None:
        if self.labels is None:
            return None
        return float(np.sum(self.labels)) / self.n


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    n_normal: int
    n_outlier: int = 0
    dim: int = 2
    seed: int = 0
    # kind-specific knobs; unused ones are ignored by the other kinds
    rho: float = 0.5  # gaussian-cov: shared pairwise correlation
    distance: float = 10.0  # gaussian-planted: shell radius for outliers
    separation: float = 4.0  # dual-density: cluster centers at (+/-sep, 0...)
    variance_ratio: float = 0.25  # dual-density: second cluster variance

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise InvalidInputError(
                f"unknown kind {self.kind!r}; known: {', '.join(SYNTH_KINDS)}"
            )
        for name in ("n_normal", "n_outlier", "dim"):
            check_int(getattr(self, name), name)
        check_int(self.seed, "seed", 0)
        for name in ("rho", "distance", "separation", "variance_ratio"):
            value = getattr(self, name)
            check_real(value, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
        if self.n_normal < 1 or self.dim < 1:
            raise InvalidInputError("n_normal and dim must be positive")
        if self.n_outlier < 0 or self.n_outlier >= self.n_normal:
            raise InvalidInputError("n_outlier must be in [0, n_normal)")
        if self.kind != "gaussian-planted" and self.n_outlier != 0:
            raise InvalidInputError(
                f"kind {self.kind!r} has no planted outliers; set n_outlier=0"
            )
        if self.kind == "gaussian-cov" and not 0.0 <= self.rho < 1.0:
            raise InvalidInputError(f"rho must be in [0, 1), got {self.rho}")
        if self.kind == "gaussian-planted" and self.distance <= 0.0:
            raise InvalidInputError("outlier distance must be positive")
        if self.kind == "dual-density" and self.variance_ratio <= 0.0:
            raise InvalidInputError("variance_ratio must be positive")


def gen_synthetic(spec: SynthSpec) -> Dataset:
    """Generate the dataset described by spec; same spec -> identical bytes.
    X is allocated once and each kind draws, scales and shifts its rows in
    place, so no second copy of X is made. A shape larger than numpy can
    address raises MemoryError, as one it cannot allocate does."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_normal, spec.dim
    rows = n + spec.n_outlier
    if int(rows) * int(d) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a {rows} x {d} float64 array is larger than numpy can address")
    X = np.empty((rows, d))
    labels = np.zeros(rows, dtype=np.int64)

    if spec.kind == "gaussian":
        rng.standard_normal(out=X)
    elif spec.kind == "gaussian-cov":
        # Shared-factor construction: every feature pair has correlation rho.
        # IEEE addition commutes, so sqrt(1 - rho) * own + sqrt(rho) * shared
        # formed in place has the bytes of the sum in the other order.
        shared = rng.standard_normal((n, 1))
        rng.standard_normal(out=X)
        X *= math.sqrt(1.0 - spec.rho)
        X += math.sqrt(spec.rho) * shared
    elif spec.kind == "dual-density":
        dense, sparse = X[: (2 * n) // 3], X[(2 * n) // 3 :]
        center = np.zeros(d)
        center[0] = spec.separation
        rng.standard_normal(out=dense)
        dense += center
        rng.standard_normal(out=sparse)
        sparse *= math.sqrt(spec.variance_ratio)
        sparse -= center
    else:  # gaussian-planted: outliers on a shell of radius distance
        shell = X[n:]
        rng.standard_normal(out=X[:n])
        rng.standard_normal(out=shell)
        norm = np.linalg.norm(shell, axis=1, keepdims=True)  # of the raw draws
        shell *= spec.distance
        shell /= norm
        labels[n:] = 1

    name = f"{spec.kind}-n{rows}-d{d}-s{spec.seed}"
    return Dataset(X=X, labels=labels, name=name)


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: cell {col} is not numeric: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: cell {col} is not finite: {text!r}")
    return value


def _parse_row(row: list[str], width: int, rownum: int) -> list[float]:
    if len(row) != width:
        raise ParseError(f"row {rownum}: expected {width} cells, got {len(row)}")
    return [_parse_cell(cell, rownum, j) for j, cell in enumerate(row)]


def _read_rows(path, has_header: bool) -> tuple[list[str] | None, np.ndarray]:
    """(header, data) through the csv module: quotes honoured, cells
    stripped, blank rows dropped. The cells are parsed in one numpy call;
    only if that fails are the rows walked in order to name the first ragged
    row or bad cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    rows = [row for row in rows if any(row)]
    if not rows:
        raise InvalidInputError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header:
        header, rows = rows[0], rows[1:]
        if not rows:
            raise InvalidInputError(f"{path}: no data rows after the header")

    try:
        data = np.array(rows, dtype=np.float64)
    except ValueError:
        data = None
    if data is None or not np.all(np.isfinite(data)):
        first = 2 if has_header else 1  # 1-based row numbers counting the header
        data = np.array(
            [_parse_row(row, len(rows[0]), i) for i, row in enumerate(rows, first)]
        )
    return header, data


def _read_loadtxt(path, has_header: bool) -> tuple[list[str] | None, np.ndarray] | None:
    """(header, data) as _read_rows gives it, with the header row read by the
    csv module and the rest of the file streamed through np.loadtxt's C
    parser; or None where _read_rows must decide: loadtxt failed (a quote, a
    ragged row, a cell it cannot parse) or found no rows or a non-finite
    value."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = None
            if has_header:
                rows = ([cell.strip() for cell in row] for row in csv.reader(fh))
                header = next((row for row in rows if any(row)), None)
                if header is None:
                    return None
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except Exception:  # whatever went wrong, _read_rows reads it or reports it
        return None
    if data.size == 0 or not np.all(np.isfinite(data)):
        return None
    return header, data


def load_csv(path, has_header: bool = True, label_column: str | None = None,
             name: str | None = None) -> Dataset:
    """Load a rectangular numeric CSV, optionally splitting off a {0,1}
    label column selected by header name or by "last". The body goes
    through np.loadtxt (_read_loadtxt); whatever it cannot take is read
    again through the csv module (_read_rows), which names the first ragged
    row or bad cell."""
    read = _read_loadtxt(path, has_header)
    header, data = read if read is not None else _read_rows(path, has_header)
    width = data.shape[1]
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: the header has {len(header)} names but the data rows have "
            f"{width} cells"
        )

    label_idx: int | None = None
    if label_column is not None:
        if label_column == "last":
            label_idx = width - 1
        else:
            if header is None:
                raise InvalidInputError(
                    "label column by name requires a header row"
                )
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise InvalidInputError(
                    f"label column {label_column!r} not in header {header}"
                ) from None

    labels = None
    if label_idx is not None:
        raw = data[:, label_idx]
        if not np.all(np.isin(raw, (0.0, 1.0))):
            bad = np.nonzero(~np.isin(raw, (0.0, 1.0)))[0][0]
            raise ParseError(
                f"label column has non-binary value {float(raw[bad])} at data row "
                f"{bad + 1}"
            )
        labels = raw.astype(np.int64)
        data = np.delete(data, label_idx, axis=1)
        if data.shape[1] == 0:
            raise InvalidInputError("no feature columns left after the label")

    return Dataset(
        X=as_matrix(data),
        labels=labels,
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
    )


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, "\n"-terminated; floats are
    written as their shortest round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV, rows from X.tolist(); labels, when present, go
    to a final column named "label". Each row is its cells' reprs joined by
    commas, the bytes csv_text would write for the same header and rows.
    Rows go out in chunks of about _WRITE_CELLS cells (at least one row), so
    the Python floats and strings held at once stay a few hundred kB at any
    width and no copy of the whole file is made. If a write fails once the
    file is open, the partial file is removed."""
    header = [f"f{j}" for j in range(dataset.d)]
    if dataset.labels is not None:
        header.append("label")
    step = max(1, _WRITE_CELLS // len(header))
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for s in range(0, dataset.n, step):
                rows = dataset.X[s : s + step].tolist()
                if dataset.labels is not None:
                    labels = dataset.labels[s : s + step]
                    rows = [row + [int(label)] for row, label in zip(rows, labels)]
                fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))
    except BaseException:
        remove_partial(path)
        raise


def remove_partial(path) -> None:
    """Remove a partly written output if it is a regular file; a device such
    as /dev/null or /dev/full that was opened for writing stays."""
    if os.path.isfile(path):
        os.remove(path)
