"""Outside-in tracing of pkde: wrap its public functions in spans.

A `Tracer` replaces each target function with a wrapper in every loaded
`pkde` module that holds a reference to it (the defining module and every
module that imported the name), records a span per call and puts the
originals back on `uninstall`. Spans stay in memory; `summarize` turns them
into per-name call counts, inclusive time and self time (span minus its
direct child spans) plus the work counts computed from the arguments.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (defining module, function name). Private helpers are left out: their
# time lands in the self time of the public function that calls them.
TARGETS = (
    ("pkde.datasets", "gen_synthetic"),
    ("pkde.datasets", "write_csv"),
    ("pkde.datasets", "load_csv"),
    ("pkde.linalg", "covariance"),
    ("pkde.linalg", "sym_eigen"),
    ("pkde.pca", "fit_pca"),
    ("pkde.pca", "project"),
    ("pkde.kde", "scott_bandwidth"),
    ("pkde.kde", "log_density_loo"),
    ("pkde.detector", "detect"),
    ("pkde.detector", "top_k_select"),
    ("pkde.baselines", "knn_table"),
    ("pkde.baselines", "lof_score"),
    ("pkde.baselines", "mahalanobis_score"),
)


def _span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts computed from a call's arguments, not measured: they follow
# from the input shape and repeat exactly.
def _project_counts(args, kwargs):
    return {"pca.m_kept": int(_arg(args, kwargs, 2, "m"))}


def _loo_counts(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    n, m = int(model.n), int(model.d)
    return {"kde.pair_evals": n * (n - 1), "kde.gemm_flops": 2 * n * n * m}


def _knn_counts(args, kwargs):
    n = int(_arg(args, kwargs, 0, "X").shape[0])
    return {"baselines.dist_matrix_bytes": 8 * n * n}


PROBES = {
    "pca.project": _project_counts,
    "kde.log_density_loo": _loo_counts,
    "baselines.knn_table": _knn_counts,
}
COMPUTED_COUNTS = ("kde.pair_evals", "kde.gemm_flops", "baselines.dist_matrix_bytes")


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, counts or None]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target that exists; a missing one is recorded as absent."""
        self.absent = []
        for module_name, func in TARGETS:
            name = _span_name(module_name, func)
            try:
                original = getattr(importlib.import_module(module_name), func)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pkde" or mod_name.startswith("pkde.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                if probe is not None:
                    span[4] = probe(args, kwargs)

        return wrapper


def summarize(*span_lists) -> dict:
    """Per span name: calls, inclusive and self seconds; plus summed counts.

    Each list holds the spans of one process. Counts that are sizes
    (m_kept) take the last value seen; the others add up.
    """
    names: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, _, start, end, span_counts) in enumerate(spans):
            entry = names.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["incl"] += end - start
            entry["self"] += end - start - child_time[i]
            for key, value in (span_counts or {}).items():
                counts[key] = value if key == "pca.m_kept" else counts.get(key, 0) + value
    return {"names": names, "counts": counts}
