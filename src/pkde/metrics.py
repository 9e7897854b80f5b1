"""Precision / recall / F1 and the contamination-sweep evaluation harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .datasets import csv_text
from .detector import DetectorConfig, detect, k_from_contamination, top_k_select
from .errors import InvalidInputError
from .linalg import check_int, check_real

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
    # The detection's own timings, taken once at the largest contamination of
    # the sweep grid: fit_time covers the whole scorer, score_time the top-K
    # cut detect made there, not a re-cut at this report's contamination.
    fit_time: float
    score_time: float


REPORT_FIELDS = tuple(f.name for f in fields(EvalReport))


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
    detectors, dataset, contamination_grid, repeats: int = 1, **options
) -> list[EvalReport]:
    """Evaluate each detector over a contamination grid against ground truth.

    Scores are computed once per (detector, repeat), at the largest
    contamination of the grid, and re-thresholded for every grid point: none
    of the detectors' rankings depend on the contamination, only the cut
    does, and PKDE's scores are exact for every cut up to the largest.

    options are DetectorConfig's fields other than contamination, with its
    defaults; any other keyword raises TypeError from DetectorConfig. The
    reports of one detection all carry its fit_time and score_time.
    """
    if dataset.labels is None:
        raise InvalidInputError("sweep needs a labeled dataset")
    grid = list(contamination_grid)
    if not grid:
        raise InvalidInputError("the contamination grid is empty")
    for c in grid:
        check_real(c, "contamination grid value", 0.5)
    check_int(repeats, "repeats", 1)
    detectors = list(detectors)
    if not detectors:
        raise InvalidInputError("the detector list is empty")

    base = DetectorConfig(contamination=max(grid), **options)
    reports: list[EvalReport] = []
    for name in detectors:
        # Detect once per repeat; contamination only moves the threshold.
        runs = [detect(name, dataset.X, base) for _ in range(repeats)]
        for c in grid:
            k = k_from_contamination(c, dataset.n)
            for result in runs:
                stats = f1_score(top_k_select(result.scores, k), dataset.labels)
                reports.append(
                    EvalReport(
                        detector=name,
                        dataset=dataset.name,
                        contamination=c,
                        fit_time=result.fit_time,
                        score_time=result.score_time,
                        **stats,
                    )
                )
    return reports


def reports_to_csv(reports) -> str:
    """One CSV row per report, columns in REPORT_FIELDS order."""
    return csv_text(
        REPORT_FIELDS, ([getattr(r, f) for f in REPORT_FIELDS] for r in reports)
    )


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2) + "\n"
