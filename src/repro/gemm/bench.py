"""The offline GEMM shape benchmark (the "MM Benchmark" of figure 7).

The input-adaptive framework needs to know how GEMM throughput varies
with operand shape — the empirical fact behind figures 5 and 8.  This
module produces a :class:`GemmProfile`, a queryable table of
``(m, k, n, threads) -> GFLOP/s`` points, in either of two ways:

* :func:`measure_profile` times real kernels on this host;
* :func:`synthetic_profile` evaluates the deterministic roofline model of
  :mod:`repro.analysis.roofline` for a chosen platform preset — used in
  tests (reproducible decisions) and to instantiate the paper's testbeds.

Profiles serialize to JSON so an expensive measurement can be reused
across runs, mirroring the paper's offline-autotuning workflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.roofline import RooflinePlatform, gemm_model_gflops
from repro.perf.flops import gemm_flops, gflops_rate
from repro.perf.timing import time_callable
from repro.resilience.recovery import _publish_text
from repro.util.errors import BenchmarkError
from repro.util.rng import default_rng
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ShapePoint:
    """One benchmark observation: GEMM shape, thread count, throughput."""

    m: int
    k: int
    n: int
    threads: int
    gflops: float

    @property
    def working_set_bytes(self) -> int:
        """Total bytes of the three operands (the threshold unit, §4.3.1)."""
        return 8 * (self.m * self.k + self.k * self.n + self.m * self.n)


class GemmProfile:
    """A queryable set of :class:`ShapePoint` observations."""

    def __init__(self, points: Iterable[ShapePoint], meta: dict | None = None):
        self._points = list(points)
        if not self._points:
            raise BenchmarkError("a GemmProfile needs at least one point")
        self.meta = dict(meta or {})
        self._index = {
            (p.m, p.k, p.n, p.threads): p.gflops for p in self._points
        }

    @property
    def points(self) -> list[ShapePoint]:
        return list(self._points)

    def thread_counts(self) -> tuple[int, ...]:
        return tuple(sorted({p.threads for p in self._points}))

    def gflops(self, m: int, k: int, n: int, threads: int) -> float:
        """Throughput at a shape: exact point if present, else the
        nearest profiled shape in log-space (same thread count)."""
        exact = self._index.get((m, k, n, threads))
        if exact is not None:
            return exact
        candidates = [p for p in self._points if p.threads == threads]
        if not candidates:
            raise BenchmarkError(
                f"profile has no points for threads={threads}; "
                f"available: {self.thread_counts()}"
            )

        def log_distance(p: ShapePoint) -> float:
            return (
                (math.log(p.m) - math.log(m)) ** 2
                + (math.log(p.k) - math.log(k)) ** 2
                + (math.log(p.n) - math.log(n)) ** 2
            )

        return min(candidates, key=log_distance).gflops

    def series(
        self, *, m: int | None = None, k: int | None = None,
        n: int | None = None, threads: int | None = None,
    ) -> list[ShapePoint]:
        """All points matching the fixed coordinates, sorted by (m, k, n)."""
        out = [
            p
            for p in self._points
            if (m is None or p.m == m)
            and (k is None or p.k == k)
            and (n is None or p.n == n)
            and (threads is None or p.threads == threads)
        ]
        return sorted(out, key=lambda p: (p.m, p.k, p.n))

    def peak_gflops(self, threads: int | None = None) -> float:
        """Best observed throughput (optionally restricted to a thread count)."""
        pts = self._points if threads is None else self.series(threads=threads)
        if not pts:
            raise BenchmarkError(f"no points for threads={threads}")
        return max(p.gflops for p in pts)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"meta": self.meta, "points": [asdict(p) for p in self._points]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GemmProfile":
        payload = json.loads(text)
        points = [ShapePoint(**p) for p in payload["points"]]
        return cls(points, payload.get("meta"))

    def save(self, path: str) -> None:
        _publish_text(path, self.to_json(), ".profile-")

    @classmethod
    def load(cls, path: str) -> "GemmProfile":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return (
            f"GemmProfile({len(self._points)} points, "
            f"threads={self.thread_counts()})"
        )


def default_shape_grid(
    m_values: Sequence[int] = (16,),
    k_exponents: Sequence[int] = tuple(range(4, 13)),
    n_exponents: Sequence[int] = tuple(range(4, 13)),
) -> list[tuple[int, int, int]]:
    """The figure-5 style (m, k, n) grid: fixed small m, powers of two k/n."""
    return [
        (m, 2**ke, 2**ne)
        for m in m_values
        for ke in k_exponents
        for ne in n_exponents
    ]


def measure_profile(
    shapes: Sequence[tuple[int, int, int]],
    threads: Sequence[int] = (1,),
    kernel: str = "auto",
    min_seconds: float = 0.02,
    seed=0,
) -> GemmProfile:
    """Time real GEMMs over *shapes* x *threads* on this host.

    The operation measured is ``C = A @ B`` with contiguous operands —
    the paper's figure-5 measurement (their ``C = B A^T`` is the same
    flop count and access pattern after transposition).  A point at
    ``t`` threads runs inside ``blas_threads(t)``, as a ``P_C = t`` plan
    does; ``kernel="threaded"`` also splits into ``t`` row panels.
    """
    from repro.gemm.interface import gemm
    from repro.perf.blasctl import blas_threads

    rng = default_rng(seed)
    points: list[ShapePoint] = []
    for m, k, n in shapes:
        check_positive_int(m, "m")
        check_positive_int(k, "k")
        check_positive_int(n, "n")
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        out = np.empty((m, n))
        for t in threads:
            options = {"threads": t} if kernel == "threaded" else {}
            fn = lambda: gemm(a, b, out=out, kernel=kernel, **options)
            with blas_threads(t):
                seconds = time_callable(fn, min_repeats=2, min_seconds=min_seconds)
            points.append(
                ShapePoint(
                    m=m,
                    k=k,
                    n=n,
                    threads=t,
                    gflops=gflops_rate(gemm_flops(m, k, n), seconds),
                )
            )
    return GemmProfile(points, meta={"source": "measured", "kernel": kernel})


def synthetic_profile(
    shapes: Sequence[tuple[int, int, int]],
    platform: RooflinePlatform,
    threads: Sequence[int] = (1,),
) -> GemmProfile:
    """Evaluate the roofline model over *shapes* x *threads* (deterministic)."""
    points = [
        ShapePoint(
            m=m,
            k=k,
            n=n,
            threads=t,
            gflops=gemm_model_gflops(m, k, n, platform, threads=t),
        )
        for (m, k, n) in shapes
        for t in threads
    ]
    return GemmProfile(
        points, meta={"source": "synthetic", "platform": platform.name}
    )
