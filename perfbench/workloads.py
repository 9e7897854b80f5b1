"""The benchmark's workloads: input shapes, detectors and the path each
detector is driven through.

Every workload is `gaussian-planted` data at contamination 0.05 with the
default `DetectorConfig`; the seed given on the command line picks the
inputs and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

CONTAMINATION = 0.05

# F1 of PKDE against the planted truth below which the output is wrong, not
# merely different: PKDE scores 0.98 or more on every workload.
F1_FLOOR = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    n_normal: int
    n_outlier: int
    dim: int
    # Shell radius of the planted outliers. Normal rows have norm about
    # sqrt(dim), so the shell must sit outside that for the truth to hold.
    distance: float
    # "library": in-process `detect` calls.
    # "cli": one fresh `pkde detect` process per detection.
    path: str
    baselines: tuple[str, ...]
    # Fresh worker processes per run; each one sets up once.
    workers: int

    @property
    def detectors(self) -> tuple[str, ...]:
        return ("pkde",) + tuple(self.baselines)


WORKLOADS = {
    w.name: w
    for w in (
        # Kernel-sum-bound: the n=20000 leave-one-out sum at m=8 is nearly
        # all of PKDE, and eigen is noise. kNN and LOF build a dense n x n
        # matrix that does not fit in memory here.
        Workload("tall-8", 19000, 1000, 8, 10.0, "library", (), 3),
        # satimage shape through the CLI: CSV parse, import and output write
        # per process; the neighbour table dominates kNN and LOF, and PKDE
        # and Mahalanobis each make two d=36 eigendecompositions.
        Workload("cli-sat", 6113, 322, 36, 10.0, "cli",
                 ("knn-dist", "lof", "mahalanobis"), 2),
        # yeast_ml8 shape. Eigen-bound: PKDE decomposes the d=103 covariance
        # and the d=89 bandwidth. Not in BENCHMARK.json: the pure-Python
        # eigensolver's time swings by about 30% between runs on a shared
        # 2-core machine, more than any bound allows. Run it by hand.
        Workload("wide-103", 2296, 121, 103, 20.0, "library", ("lof",), 3),
    )
}

# Tiny shapes of the same workloads, for the smoke mode.
SMOKE_SHAPES = {
    "wide-103": (190, 10, 12, 8.0),
    "tall-8": (380, 20, 4, 10.0),
    "cli-sat": (190, 10, 6, 10.0),
}


def smoke_variant(w: Workload) -> Workload:
    n_normal, n_outlier, dim, distance = SMOKE_SHAPES[w.name]
    return replace(w, n_normal=n_normal, n_outlier=n_outlier, dim=dim,
                   distance=distance)
