"""Command-line entry point: generate synthetic data, run a detector,
sweep contamination levels, and benchmark timings.

Exit codes: 0 success, 1 usage error, 2 data error (out of memory
included), 3 numerical failure. Outputs are fully computed before any file
is written, so a failing run never leaves a partial output behind; synth
streams its CSV instead, and removes it if a write fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import metrics
from .datasets import (
    SYNTH_KINDS, SynthSpec, csv_text, gen_synthetic, load_csv, remove_partial, write_csv,
)
from .detector import DETECTOR_IDS, DetectorConfig, detect
from .errors import DataError, InvalidInputError, NumericalError
from .kde import BANDWIDTH_RULES
from .linalg import check_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkde",
        description="PCA + KDE outlier detection, baselines and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag's dest names the SynthSpec or DetectorConfig field it sets.
    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--kind", choices=SYNTH_KINDS, default="gaussian-planted")
    p.add_argument("--n", dest="n_normal", metavar="N", type=int, default=100,
                   help="number of normal points")
    p.add_argument("--outliers", dest="n_outlier", metavar="OUTLIERS", type=int,
                   help="planted outliers")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--distance", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--variance-ratio", type=float)
    p.add_argument("-o", "--output", required=True)

    def add_io(p):
        p.add_argument("-i", "--input", required=True, help="input CSV path")
        p.add_argument("--no-header", action="store_true",
                       help="input CSV has no header row")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None,
                       help="output path (default: stdout)")

    def add_detector_opts(p):
        p.add_argument("--variance-threshold", type=float)
        p.add_argument("--fixed-dim", type=int)
        p.add_argument("--bandwidth-rule", choices=BANDWIDTH_RULES)
        p.add_argument("-k", "--neighbors", type=int,
                       help="k for the kNN-distance and LOF baselines")

    p = sub.add_parser("detect", help="score and label one dataset")
    add_io(p)
    p.add_argument("--label-column", default=None,
                   help="column name or 'last'; dropped from the features")
    p.add_argument("--detector", choices=DETECTOR_IDS, default="pkde")
    p.add_argument("--contamination", type=float, required=True)
    add_detector_opts(p)

    p = sub.add_parser("sweep", help="F1 over a contamination grid")
    add_io(p)
    p.add_argument("--label-column", default="last",
                   help="column name or 'last' (ground truth is required)")
    p.add_argument("--detectors", default=",".join(DETECTOR_IDS),
                   help="comma-separated detector ids")
    p.add_argument("--grid", default=None,
                   help="comma-separated contamination values "
                        "(default 0.01..0.30 step 0.01)")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--plot-data", default=None,
                   help="also write a long-format (contamination,detector,f1) CSV")
    add_detector_opts(p)

    p = sub.add_parser("bench", help="timing table over datasets x detectors")
    p.add_argument("-i", "--input", action="append", required=True,
                   help="input CSV path; repeat for several datasets")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--label-column", default=None)
    p.add_argument("--detectors", default=",".join(DETECTOR_IDS))
    p.add_argument("--contamination", type=float, default=0.1)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)

    return parser


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) pair of one command, path None meaning stdout.
    Files go first; if one fails, those already written are removed."""
    written = []
    try:
        for text, path in (out for out in outputs if out[1] is not None):
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except BaseException:
        for path in written:
            remove_partial(path)
        raise
    sys.stdout.write("".join(text for text, path in outputs if path is None))


def _load(path, args, label_column):
    # Anything wrong with an input file is a data error (exit 2), even when
    # the library reports it as an invalid-input condition.
    try:
        return load_csv(path, has_header=not args.no_header,
                        label_column=label_column)
    except InvalidInputError as exc:
        raise DataError(str(exc)) from exc


def _given(args, cls) -> dict:
    """The given flags that name a field of cls; a flag the command lacks or
    that was left out (None) is skipped, so its field keeps its default."""
    values = ((f.name, getattr(args, f.name, None)) for f in fields(cls))
    return {name: value for name, value in values if value is not None}


def _cmd_synth(args) -> int:
    write_csv(gen_synthetic(SynthSpec(**_given(args, SynthSpec))), args.output)
    return EXIT_OK


def _cmd_detect(args) -> int:
    ds = _load(args.input, args, args.label_column)
    config = DetectorConfig(**_given(args, DetectorConfig))
    result = detect(args.detector, ds.X, config)
    if args.format == "json":
        text = json.dumps(
            {
                "detector": args.detector,
                "k_used": result.k_used,
                "reduced_dim": result.reduced_dim,
                "fit_time": result.fit_time,
                "score_time": result.score_time,
                "points": [
                    {"index": i, "score": s, "label": l, "exact": x}
                    for i, (s, l, x) in enumerate(zip(
                        result.scores.tolist(), result.labels.tolist(),
                        result.exact.tolist(),
                    ))
                ],
            },
            indent=2,
        ) + "\n"
    else:
        points = enumerate(zip(result.scores.tolist(), result.labels.tolist()))
        text = csv_text(["index", "score", "label"], ((i, *p) for i, p in points))
    _emit((text, args.output))
    return EXIT_OK


def _parse_grid(text: str | None) -> list[float]:
    if text is None:
        return metrics.default_grid()
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidInputError(f"bad --grid value: {text!r}") from None


def _cmd_sweep(args) -> int:
    out, plot = args.output, args.plot_data
    if out and plot and os.path.realpath(out) == os.path.realpath(plot):
        raise InvalidInputError("-o and --plot-data name the same file")
    ds = _load(args.input, args, args.label_column)
    names = [d.strip() for d in args.detectors.split(",") if d.strip()]
    reports = metrics.sweep(names, ds, _parse_grid(args.grid), args.repeats,
                            **_given(args, DetectorConfig))
    if args.format == "json":
        text = metrics.reports_to_json(reports)
    else:
        text = metrics.reports_to_csv(reports)
    outputs = [(text, args.output)]
    if args.plot_data is not None:
        plot_rows = ((r.contamination, r.detector, r.f1) for r in reports)
        plot_text = csv_text(["contamination", "detector", "f1"], plot_rows)
        outputs.append((plot_text, args.plot_data))
    _emit(*outputs)
    return EXIT_OK


def _cmd_bench(args) -> int:
    check_int(args.repeats, "repeats", 1)
    names = [d.strip() for d in args.detectors.split(",") if d.strip()]
    if not names:
        raise InvalidInputError("the detector list is empty")
    rows = []
    for path in args.input:
        ds = _load(path, args, args.label_column)
        cfg = DetectorConfig(**_given(args, DetectorConfig))
        row: dict[str, object] = {"dataset": ds.name}
        for name in names:
            runs = [detect(name, ds.X, cfg) for _ in range(args.repeats)]
            row[name] = sum(r.fit_time + r.score_time for r in runs) / len(runs)
        rows.append(row)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        table = ([row["dataset"]] + [row[n] for n in names] for row in rows)
        text = csv_text(["dataset"] + names, table)
    _emit((text, args.output))
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
