"""One benchmark worker: a fresh process that sets up once and then runs
passes of its workload until its share of the run's time is used.

Usage: python3 worker.py CONFIG_JSON

CONFIG_JSON holds the checkout root, the workload, seed, time share, trace
flag, worker index and the directory for scratch files. The worker writes
its result as JSON to `<work_dir>/worker-<index>.json`. An operation that
fails is recorded in the result; anything else that goes wrong is a crash
with a non-zero exit.

numpy is imported only through pkde, inside the timed set-up, so that
set-up time includes it as it does for a user.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from time import perf_counter

from spans import Tracer, summarize
from workloads import CONTAMINATION, Workload

HERE = os.path.dirname(os.path.abspath(__file__))

# The warm-up calls run on this corner of the input: large enough for every
# detector's code path (LOF needs more than k=10 rows), small enough that
# they cost only what a first call costs beyond the work itself.
WARMUP_ROWS, WARMUP_COLS = 64, 4


def check_output(op: dict, scores, labels, k: int, truth) -> dict:
    """Fill in the op's verdict: non-finite scores or a wrong label count are
    failures. Records the label digest and, for PKDE on the full input, F1
    against the planted truth."""
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = truth.shape[0]
    if scores.shape != (n,) or labels.shape != (n,):
        op["error"] = f"expected {n} scores and labels, got {scores.shape}, {labels.shape}"
    elif not np.all(np.isfinite(scores)):
        op["error"] = f"{int(np.sum(~np.isfinite(scores)))} non-finite scores"
    elif not np.all((labels == 0) | (labels == 1)) or int(labels.sum()) != k:
        op["error"] = f"label count {int(np.sum(labels != 0))} != k={k}"
    if "error" in op:
        return op
    flags = labels.astype(np.uint8)
    op["labels_sha256"] = hashlib.sha256(flags.tobytes()).hexdigest()
    if op["detector"] == "pkde" and op["input"] == "full":
        tp = int(np.sum(flags & truth.astype(np.uint8)))
        op["f1"] = 2.0 * tp / (k + int(truth.sum()))
    return op


class Runner:
    def __init__(self, cfg: dict):
        self.root = cfg["root"]
        self.workload = Workload(**cfg["workload"])
        self.seed = cfg["seed"]
        self.share = cfg["share"]
        self.trace = cfg["trace"]
        self.index = cfg["index"]
        self.work_dir = cfg["work_dir"]
        self.tracer = Tracer() if self.trace else None
        self.pkde = self.ds = self.config = None
        self.csv_path = os.path.join(self.work_dir, f"input-{self.index}.csv")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src"), HERE]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    # -- set-up ---------------------------------------------------------

    def setup(self) -> dict:
        """Import pkde, generate the input (and write its CSV), make the
        first call of each in-process detector. Returns the set-up record."""
        w = self.workload
        t0 = perf_counter()
        sys.path.insert(0, os.path.join(self.root, "src"))
        import pkde

        t_import = perf_counter() - t0
        self.pkde = pkde
        if self.tracer:
            self.tracer.install()
        spec = pkde.SynthSpec("gaussian-planted", n_normal=w.n_normal,
                              n_outlier=w.n_outlier, dim=w.dim, seed=self.seed,
                              distance=w.distance)
        self.ds = pkde.gen_synthetic(spec)
        if w.path == "cli":
            pkde.write_csv(self.ds, self.csv_path)
        self.config = pkde.DetectorConfig(contamination=CONTAMINATION)
        warm = w.detectors if w.path == "library" else ("pkde",)
        ops = [self.library_op(det, warmup=True) for det in warm]
        setup_s = perf_counter() - t0
        record = {"setup_s": setup_s, "import_s": t_import, "ops": ops}
        if self.tracer:
            self.tracer.uninstall()
            record["summary"] = summarize(self.tracer.take())
            record["absent"] = self.tracer.absent
        if w.path == "cli":
            # The library's labels, which every CLI PKDE run must reproduce.
            ops.append(self.library_op("pkde"))
        return record

    # -- operations -----------------------------------------------------

    def library_op(self, det: str, warmup: bool = False) -> dict:
        op = {"detector": det, "path": "library", "input": "warmup" if warmup else "full"}
        X, truth = self.ds.X, self.ds.labels
        if warmup:
            X, truth = X[:WARMUP_ROWS, :WARMUP_COLS], truth[:WARMUP_ROWS]
        t = perf_counter()
        try:
            result = self.pkde.detect(det, X, self.config)
        except Exception as exc:  # a failing detection is counted, not fatal
            op["seconds"] = perf_counter() - t
            op["error"] = f"{type(exc).__name__}: {exc}"
            return op
        op["seconds"] = perf_counter() - t
        return check_output(op, result.scores, result.labels,
                            math.ceil(CONTAMINATION * X.shape[0]), truth)

    def cli_op(self, det: str, traced: bool) -> dict:
        import numpy as np

        op = {"detector": det, "path": "cli", "input": "full"}
        out = os.path.join(self.work_dir, f"out-{self.index}.csv")
        err = os.path.join(self.work_dir, f"err-{self.index}.txt")
        spans_path = os.path.join(self.work_dir, f"spans-{self.index}.json")
        for path in (out, spans_path):
            if os.path.exists(path):
                os.remove(path)
        args = ["detect", "-i", self.csv_path, "--label-column", "label",
                "--detector", det, "--contamination", repr(CONTAMINATION), "-o", out]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_path] + args
        else:
            cmd = [sys.executable, "-m", "pkde.cli"] + args
        with open(err, "wb") as err_fh:
            t = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_fh,
                                    env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            op["seconds"] = perf_counter() - t
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        op["rss_mb"] = usage.ru_maxrss / 1024.0
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                op["error"] = f"exit {code}: {fh.read()[-300:].strip()}"
            return op
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                op["spans"] = json.load(fh)
        try:
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            op["error"] = f"unreadable output: {exc}"
            return op
        if table.shape[1] != 3 or not np.array_equal(table[:, 0], np.arange(table.shape[0])):
            op["error"] = f"output table has shape {table.shape} or bad indices"
            return op
        return check_output(op, table[:, 1], table[:, 2],
                            math.ceil(CONTAMINATION * self.ds.n), self.ds.labels)

    # -- passes ---------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        w = self.workload
        plan = w.detectors
        if traced and w.path == "library":
            self.tracer.install()
        t = perf_counter()
        if w.path == "library":
            ops = [self.library_op(det) for det in plan]
        else:
            ops = [self.cli_op(det, traced) for det in plan]
        record = {"traced": traced, "wall_s": perf_counter() - t, "ops": ops}
        if traced:
            if w.path == "library":
                self.tracer.uninstall()
                record["summary"] = summarize(self.tracer.take())
                record["absent"] = self.tracer.absent
            else:
                traces, other = [], 0.0
                for op in ops:
                    trace = op.pop("spans", None)
                    if trace is not None:
                        traces.append(trace)
                        other += op["seconds"] - _span_total(
                            trace["spans"], ("datasets.load_csv", "detector.detect"))
                record["summary"] = summarize(*(t["spans"] for t in traces))
                record["absent"] = traces[0]["absent"] if traces else []
                record["cli_other_s"] = other
        return record

    def run(self) -> dict:
        setup = self.setup()
        passes = []
        start = perf_counter()
        # Start another pass only if it should end nearer the share than
        # stopping now would.
        while not passes or (perf_counter() - start
                             + 0.5 * sum(p["wall_s"] for p in passes) / len(passes)
                             <= self.share):
            # In a traced run, passes alternate so that both kinds are timed.
            traced = bool(self.trace) and (len(passes) + self.index) % 2 == 0
            passes.append(self.run_pass(traced))
        return {"setup": setup, "passes": passes}


def _span_total(spans, names) -> float:
    """Seconds in top-level spans of the given names."""
    return sum(end - start for name, parent, start, end, _ in spans
               if parent < 0 and name in names)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    result = Runner(cfg).run()
    path = os.path.join(cfg["work_dir"], f"worker-{cfg['index']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
