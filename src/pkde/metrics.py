"""Precision / recall / F1 and the contamination-sweep evaluation harness."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .detector import DetectorConfig, detect, k_from_contamination, top_k_select
from .errors import InvalidInputError

REPORT_FIELDS = (
    "detector",
    "dataset",
    "contamination",
    "precision",
    "recall",
    "f1",
    "tp",
    "fp",
    "fn",
    "tn",
    "fit_time",
    "score_time",
)


@dataclass(frozen=True)
class EvalReport:
    detector: str
    dataset: str
    contamination: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    # fit_time covers the whole scorer; score_time only the top-K cut.
    fit_time: float
    score_time: float


def f1_score(predicted, truth) -> dict:
    """Confusion counts plus precision, recall and F1 for binary labels.

    Precision and recall default to 0 where their denominator is 0, and
    F1 is 0 when precision + recall = 0.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise InvalidInputError(
            f"label vectors must match in length, got {p.shape} vs {t.shape}"
        )
    if not (np.isin(p, (0, 1)).all() and np.isin(t, (0, 1)).all()):
        raise InvalidInputError("labels must be binary 0/1")
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def default_grid() -> list[float]:
    """Contamination grid 0.01 .. 0.30 in steps of 0.01."""
    return [round(0.01 * i, 2) for i in range(1, 31)]


def sweep(
    detectors,
    dataset,
    contamination_grid,
    repeats: int = 1,
    *,
    variance_threshold: float = 0.90,
    fixed_dim: int | None = None,
    bandwidth_rule: str = "scott",
    neighbors: int = 10,
) -> list[EvalReport]:
    """Evaluate each detector over a contamination grid against ground truth.

    Scores are computed once per (detector, repeat) and re-thresholded for
    every grid point: none of the detectors' rankings depend on the
    contamination, only the cut does.
    """
    if dataset.labels is None:
        raise InvalidInputError("sweep needs a labeled dataset")
    grid = list(contamination_grid)
    if not grid or any(not 0.0 < c <= 0.5 for c in grid):
        raise InvalidInputError("contamination grid values must be in (0, 0.5]")
    if repeats < 1:
        raise InvalidInputError("repeats must be >= 1")

    base = DetectorConfig(
        contamination=grid[0],
        variance_threshold=variance_threshold,
        fixed_dim=fixed_dim,
        bandwidth_rule=bandwidth_rule,
        neighbors=neighbors,
    )
    reports: list[EvalReport] = []
    for name in detectors:
        # Detect once per repeat; contamination only moves the threshold.
        runs = [detect(name, dataset.X, base) for _ in range(repeats)]
        for c in grid:
            k = k_from_contamination(c, dataset.n)
            for result in runs:
                t1 = time.perf_counter()
                predicted = top_k_select(result.scores, k)
                t2 = time.perf_counter()
                stats = f1_score(predicted, dataset.labels)
                reports.append(
                    EvalReport(
                        detector=name,
                        dataset=dataset.name,
                        contamination=c,
                        fit_time=result.fit_time,
                        score_time=t2 - t1,
                        **stats,
                    )
                )
    return reports


def reports_to_csv(reports) -> str:
    """One CSV row per report, columns in REPORT_FIELDS order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        d = asdict(r)
        writer.writerow(
            [repr(v) if isinstance(v, float) else str(v) for v in (d[f] for f in REPORT_FIELDS)]
        )
    return buf.getvalue()


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2) + "\n"
