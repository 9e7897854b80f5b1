"""pkde benchmark: time the detector from outside, check every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tall-8 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Each run starts a few fresh worker processes one after another. Each worker
times its own set-up (import, input generation, first calls) and then runs
passes of the workload until its share of `--seconds` is used; the parent
reads each worker's peak RSS with `os.wait4`. With `--trace 0` the last line
of standard output is the end-to-end result; with `--trace 1` the workers
alternate traced and untraced passes and the result holds the per-layer
metrics. The line before it holds the details: machine, per-detector sample
counts, medians and tails, label digests and failures. `--smoke` runs every
workload at a tiny size in both modes and checks that every metric named in
BENCHMARK.json is emitted with its unit.

The seed picks the generated inputs and nothing else. Exit code 0 on a
finished run, whether or not its outputs were correct; 2, with no result
printed, when pkde cannot be found, a worker crashes or the run passes its
deadline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import COMPUTED_COUNTS  # noqa: E402
from workloads import F1_FLOOR, WORKLOADS, Workload, smoke_variant  # noqa: E402

# A run must end within 180 s; a worker still going at this point is killed.
RUN_DEADLINE_S = 170.0
CLI_IMPORT_SAMPLES = 5

# per-layer time metric -> (span name, inclusive or self time)
LAYER_TIMES = {
    "linalg.sym_eigen_s": ("linalg.sym_eigen", "incl"),
    "linalg.covariance_s": ("linalg.covariance", "incl"),
    "pca.fit_pca_s": ("pca.fit_pca", "self"),
    "pca.project_s": ("pca.project", "incl"),
    "kde.scott_bandwidth_s": ("kde.scott_bandwidth", "self"),
    "kde.log_density_loo_s": ("kde.log_density_loo", "incl"),
    "detector.top_k_select_s": ("detector.top_k_select", "incl"),
    "detector.unattributed_s": ("detector.detect", "self"),
    "baselines.knn_table_s": ("baselines.knn_table", "incl"),
    "baselines.lof_score_s": ("baselines.lof_score", "self"),
    "baselines.mahalanobis_score_s": ("baselines.mahalanobis_score", "self"),
    "datasets.load_csv_s": ("datasets.load_csv", "incl"),
}
# per-layer time metric of the set-up phase -> span name
SETUP_TIMES = {
    "datasets.gen_synthetic_s": "datasets.gen_synthetic",
    "datasets.write_csv_s": "datasets.write_csv",
}
# per-layer count metric -> unit; sym_eigen_calls is a measured call count,
# the others come from spans.PROBES
COUNT_UNITS = {
    "linalg.sym_eigen_calls": "count",
    "pca.m_kept": "count",
    "kde.pair_evals": "count",
    "kde.gemm_flops": "flop",
    "baselines.dist_matrix_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return {"pct": pct, "value": sorted(values)[rank - 1]}


def machine_info() -> dict:
    import numpy

    load = os.getloadavg()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    numba = subprocess.run([sys.executable, "-c", "import numba"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           timeout=60).returncode == 0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(load),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_imports": numba,
        "machine": platform.machine(),
    }


def _expired(signum, frame):
    raise TimeoutError


def _wait(proc, deadline: float):
    """Reap proc, killing its process group at the deadline; returns
    (exit code, rusage). Blocks in wait4 so the wall time stays exact."""
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - perf_counter(), 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException as exc:  # the deadline, or this process being stopped
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        proc.returncode = -signal.SIGKILL
        if isinstance(exc, TimeoutError):
            raise BenchError(f"{' '.join(proc.args)[:120]} passed the run deadline") from None
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_worker(cfg: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and peak RSS in MB."""
    log = os.path.join(cfg["work_dir"], f"worker-{cfg['index']}.log")
    with open(log, "wb") as log_fh:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            stdin=subprocess.DEVNULL, stdout=log_fh, stderr=subprocess.STDOUT,
            cwd=ROOT, start_new_session=True)
        code, usage = _wait(proc, deadline)
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"worker {cfg['index']} exited {code}:\n{fh.read()[-2000:]}")
    with open(os.path.join(cfg["work_dir"], f"worker-{cfg['index']}.json"),
              encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def time_cli_import(deadline: float) -> list[float]:
    """Wall seconds of fresh `python -c "import pkde.cli"` processes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(CLI_IMPORT_SAMPLES):
        t = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import pkde.cli"], env=env,
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        code, _ = _wait(proc, deadline)
        times.append(perf_counter() - t)
        if code != 0:
            raise BenchError(f"`import pkde.cli` exited {code}")
    return times


def check_repeats(workers: list[dict]) -> list[dict]:
    """All ops in run order; an op whose labels differ from the first good
    run of its detector on the same input is marked failed."""
    ops = [op for w in workers
           for op in w["setup"]["ops"] + [o for p in w["passes"] for o in p["ops"]]]
    first: dict[tuple[str, str], str] = {}
    for op in ops:
        if "error" in op:
            continue
        ref = first.setdefault((op["detector"], op["input"]), op["labels_sha256"])
        if op["labels_sha256"] != ref:
            op["error"] = "label set differs from the first run of this detector"
    return ops


def end_to_end(w: Workload, workers, rss, f1) -> dict:
    passes = [p for r in workers for p in r["passes"] if not p["traced"]]
    if w.path == "cli":
        peak = median([max(op.get("rss_mb", 0.0) for op in p["ops"]) for p in passes])
    else:
        peak = median(rss)
    return {
        "setup_s": (median([r["setup"]["setup_s"] for r in workers]), "s"),
        "pass_s": (median([p["wall_s"] for p in passes]), "s"),
        "peak_rss_mb": (peak, "MB"),
        "f1_pkde": (f1 if f1 is not None else 0.0, "ratio"),
    }


def per_layer(workers, cli_import) -> tuple[dict, list[str]]:
    traced = [p for r in workers for p in r["passes"] if p["traced"]]
    untraced = [p for r in workers for p in r["passes"] if not p["traced"]]
    absent = sorted({name for r in workers
                     for name in r["setup"].get("absent", [])
                     + [a for p in r["passes"] for a in p.get("absent", [])]})

    def span(summary, name, kind):
        entry = summary["names"].get(name)
        return entry[kind] if entry else 0.0

    metrics = {
        "trace_overhead_s": (median([p["wall_s"] for p in traced])
                             - median([p["wall_s"] for p in untraced]), "s"),
        "cli.import_s": (median(cli_import), "s"),
        "cli.other_s": (median([p.get("cli_other_s", 0.0) for p in traced]), "s"),
    }
    for metric, name in SETUP_TIMES.items():
        metrics[metric] = (median([span(r["setup"]["summary"], name, "incl")
                                   for r in workers]), "s")
    for metric, (name, kind) in LAYER_TIMES.items():
        metrics[metric] = (median([span(p["summary"], name, kind) for p in traced]), "s")
    for metric, unit in COUNT_UNITS.items():
        if metric == "linalg.sym_eigen_calls":
            values = [span(p["summary"], "linalg.sym_eigen", "calls") for p in traced]
        else:
            values = [p["summary"]["counts"].get(metric, 0) for p in traced]
        metrics[metric] = (median(values), unit)
    return metrics, absent


def detector_detail(w: Workload, workers) -> dict:
    """Per detector: samples, median and tail of the untraced pass ops."""
    ops = [op for r in workers for p in r["passes"] if not p["traced"] for op in p["ops"]]
    detail = {}
    for det in w.detectors:
        mine = [op for op in ops if op["detector"] == det]
        timed = [op["seconds"] for op in mine if "error" not in op]
        entry = {
            "path": w.path,
            "samples": len(timed),
            "median_s": median(timed),
            "tail_s": tail(timed),
            "labels_sha256": next((op["labels_sha256"] for op in mine
                                   if "labels_sha256" in op), None),
        }
        rss = [op["rss_mb"] for op in mine if "rss_mb" in op]
        if rss:
            entry["peak_rss_mb_median"] = median(rss)
        detail[det] = entry
    return detail


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns (result line, detail line)."""
    deadline = perf_counter() + RUN_DEADLINE_S
    machine = machine_info()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        cli_import = time_cli_import(deadline) if trace else []
        workers, rss = [], []
        for index in range(w.workers):
            cfg = {"root": ROOT, "workload": asdict(w), "seed": seed,
                   "share": seconds / w.workers, "trace": trace, "index": index,
                   "work_dir": work_dir}
            result, peak = run_worker(cfg, deadline)
            workers.append(result)
            rss.append(peak)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = check_repeats(workers)
    failed = [op for op in ops if "error" in op]
    f1 = next((op["f1"] for op in ops if "f1" in op), None)
    correct = not failed and f1 is not None and f1 >= F1_FLOOR
    if trace:
        metrics, absent = per_layer(workers, cli_import)
    else:
        metrics, absent = end_to_end(w, workers, rss, f1), []
    passes = [p for r in workers for p in r["passes"]]
    detail = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine,
        "fail_ratio": len(failed) / len(ops),
        "failures": [f"{op['detector']} ({op['path']}): {op['error']}" for op in failed][:10],
        "f1_pkde": f1,
        "detectors": detector_detail(w, workers),
        "worker_setup_s": [r["setup"]["setup_s"] for r in workers],
        "worker_import_s": [r["setup"]["import_s"] for r in workers],
        "worker_peak_rss_mb": rss,
        "pass_wall_s": {"traced": [p["wall_s"] for p in passes if p["traced"]],
                        "untraced": [p["wall_s"] for p in passes if not p["traced"]]},
        "absent_spans": absent,
        "computed_counts": list(COMPUTED_COUNTS),
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def smoke() -> int:
    """Run every workload tiny, in both modes; check names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = [f"{entry['name']}: not defined in workloads.py"
                for entry in spec["workloads"] if entry["name"] not in WORKLOADS]
    for workload in WORKLOADS.values():
        w = smoke_variant(workload)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(w, seed=1, seconds=0.1, trace=trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                problems.append(f"{w.name} {key}: emitted {got}, BENCHMARK.json names {want}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{w.name} {key}: non-finite value")
            if not result["correct"]:
                problems.append(f"{w.name} {key}: outputs not correct")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "pkde", "__init__.py")):
        print(f"error: no pkde sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed < 0 or args.seconds <= 0:
            parser.error("--workload, a seed >= 0 and --seconds > 0 are required")
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
