"""Dataset ingestion from CSV and seeded synthetic generators.

Random source: numpy's PCG64 generator (np.random.default_rng) with its
ziggurat standard-normal transform. A given (spec, seed) pair is
bit-reproducible for a fixed numpy version.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError
from .linalg import as_matrix

SYNTH_KINDS = ("gaussian", "gaussian-cov", "dual-density", "gaussian-planted")


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
    """Generate the dataset described by spec; same spec -> identical bytes."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_normal, spec.dim

    if spec.kind == "gaussian":
        X = rng.standard_normal((n, d))
        labels = np.zeros(n, dtype=np.int64)
    elif spec.kind == "gaussian-cov":
        # Shared-factor construction: every feature pair has correlation rho.
        shared = rng.standard_normal((n, 1))
        own = rng.standard_normal((n, d))
        X = math.sqrt(spec.rho) * shared + math.sqrt(1.0 - spec.rho) * own
        labels = np.zeros(n, dtype=np.int64)
    elif spec.kind == "dual-density":
        n_dense = (2 * n) // 3
        n_sparse = n - n_dense
        center = np.zeros(d)
        center[0] = spec.separation
        dense = rng.standard_normal((n_dense, d)) + center
        sparse = (
            math.sqrt(spec.variance_ratio) * rng.standard_normal((n_sparse, d))
            - center
        )
        X = np.vstack([dense, sparse])
        labels = np.zeros(n, dtype=np.int64)
    else:  # gaussian-planted
        normal = rng.standard_normal((n, d))
        raw = rng.standard_normal((spec.n_outlier, d))
        shell = spec.distance * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        X = np.vstack([normal, shell])
        labels = np.concatenate(
            [np.zeros(n, dtype=np.int64), np.ones(spec.n_outlier, dtype=np.int64)]
        )

    name = f"{spec.kind}-n{X.shape[0]}-d{d}-s{spec.seed}"
    return Dataset(X=X, labels=labels, name=name)


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: cell {col} is not numeric: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: cell {col} is not finite: {text!r}")
    return value


def load_csv(path, has_header: bool = True, label_column: str | None = None,
             name: str | None = None) -> Dataset:
    """Load a rectangular numeric CSV, optionally splitting off a {0,1}
    label column selected by header name or by "last"."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [r for r in _rows_iter(reader)]
    if not rows:
        raise InvalidInputError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InvalidInputError(f"{path}: no data rows after the header")

    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        # 1-based row numbers counting the header line
        rownum = i + (2 if has_header else 1)
        if len(row) != width:
            raise ParseError(
                f"row {rownum}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            data[i, j] = _parse_cell(cell, rownum, j)

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
                f"label column has non-binary value {raw[bad]!r} at data row "
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


def _rows_iter(reader):
    for row in reader:
        if row and any(cell.strip() for cell in row):
            yield [cell.strip() for cell in row]


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with shortest-round-trip floats; labels, when
    present, go to a final column named "label"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"f{j}" for j in range(dataset.d)]
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)
