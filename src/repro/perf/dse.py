"""Design-space exploration: fit the cost model from live measurements.

The paper fixes its thresholds (MSTH/MLTH from the figure-8 GEMM sweep,
PTH from InTTM runs) once, offline, per machine.  This module closes
ROADMAP item 3's loop: it *measures* the (kernel, degree, thread-split,
dtype) configuration space on the machine actually running — either in
one explicit sweep (``python -m repro calibrate run``) or incrementally
from the timings the autotune session takes anyway — and refits the
estimator's inputs from those observations:

* **MSTH/MLTH** per kernel-thread count, by the same
  fraction-of-peak rule :func:`repro.core.partition.derive_thresholds`
  applies to the offline benchmark, but over the *scatter* of measured
  kernel working sets rather than a fixed ``n`` grid;
* **PTH**, from the measured crossover between all-loop and all-kernel
  thread allocations;
* the roofline inputs (peak GFLOP/s, bandwidth), combining measured
  rates with :mod:`repro.cachesim` traffic counts so memory-bound
  observations yield a bandwidth estimate without a separate STREAM run.

The fitted :class:`CalibrationRecord` persists per machine fingerprint
in the :class:`~repro.autotune.store.PlanStore`'s ``calibration``
section (schema v4) with its own version stamp, and
:class:`~repro.core.estimator.ParameterEstimator` consults it ahead of
``PAPER_THRESHOLDS`` / synthetic profiles — the paper defaults remain
the untouched fallback whenever no calibration exists.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

# NOTE: repro.core / repro.obs are imported lazily inside functions.
# This module is re-exported from ``repro.perf``, which the core layer
# itself imports; a module-level import back into core would cycle.
from repro.perf.blasctl import blas_threads
from repro.perf.machine import MachineInfo, machine_info
from repro.perf.profiler import active_hot_counters
from repro.util.errors import BenchmarkError, SchemaMismatchError
from repro.util.validation import check_positive_int, check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.roofline import RooflinePlatform
    from repro.autotune.store import PlanStore
    from repro.core.plan import TtmPlan

log = logging.getLogger("repro.perf")

#: Version of the persisted calibration payload.  Bumped when the fit
#: changes meaning; readers reject other versions (the paper-default
#: fallback then applies) instead of trusting a stale fit.
CALIBRATION_VERSION = 1

#: Raw observations kept in the store's calibration section so the
#: online accumulator can refit across processes.  Oldest-first
#: truncation: the newest measurements describe the machine best.
MAX_STORED_OBSERVATIONS = 512

#: Minimum distinct working sets before a per-thread-count threshold fit
#: is attempted (mirrors the >=3-point rule of the figure-8 walk).
MIN_FIT_POINTS = 3


# -- observations -------------------------------------------------------------


@dataclass(frozen=True)
class DseObservation:
    """One measured configuration: the kernel's shape, split and rate.

    ``kernel_gflops`` is the *inner-GEMM* rate implied by a whole-TTM
    timing (see :func:`observation_from_plan`), which makes
    observations from different degrees comparable on the figure-8 axes
    (working set vs. rate).  ``intensity`` is the cache-simulated
    flops-per-word of the whole TTM when available — the hook that lets
    memory-bound observations double as bandwidth probes.  ``pinned``
    records whether the BLAS pool was actually limited to
    ``kernel_threads`` during the measurement; only pinned single-thread
    rates may be scaled by the core count (the
    :func:`repro.perf.calibrate.measure_peak` rule).
    """

    m: int
    k: int
    n: int
    kernel_threads: int
    loop_threads: int
    working_set_bytes: int
    seconds: float
    kernel_gflops: float
    dtype: str = "float64"
    source: str = "dse"
    intensity: float | None = None
    pinned: bool = False

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "kernel_threads": self.kernel_threads,
            "loop_threads": self.loop_threads,
            "working_set_bytes": self.working_set_bytes,
            "seconds": self.seconds,
            "kernel_gflops": self.kernel_gflops,
            "dtype": self.dtype,
            "source": self.source,
            "intensity": self.intensity,
            "pinned": self.pinned,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DseObservation":
        try:
            intensity = payload.get("intensity")
            return cls(
                m=int(payload["m"]),
                k=int(payload["k"]),
                n=int(payload["n"]),
                kernel_threads=int(payload["kernel_threads"]),
                loop_threads=int(payload["loop_threads"]),
                working_set_bytes=int(payload["working_set_bytes"]),
                seconds=float(payload["seconds"]),
                kernel_gflops=float(payload["kernel_gflops"]),
                dtype=str(payload.get("dtype", "float64")),
                source=str(payload.get("source", "dse")),
                intensity=None if intensity is None else float(intensity),
                pinned=bool(payload.get("pinned", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(
                f"malformed DSE observation payload: {exc}"
            ) from exc


def observation_from_plan(
    plan: "TtmPlan",
    seconds: float,
    source: str = "session",
    intensity: float | None = None,
    pinned: bool = False,
) -> DseObservation:
    """Convert a whole-TTM timing into a per-kernel observation.

    The executor dispatches ``loop_iterations`` kernels; with ``P_L``
    loop threads roughly ``P_L`` of them overlap, so the effective
    per-kernel time is ``seconds * loop_threads / loop_iterations``.
    This is the inversion of the estimator's own cost model, so the
    fitted surface speaks the same units the estimator consumes.
    """
    if seconds <= 0:
        raise BenchmarkError(f"observation needs seconds > 0, got {seconds}")
    iterations = max(1, plan.loop_iterations)
    kernel_seconds = seconds * plan.loop_threads / iterations
    m, k, n = plan.kernel_shape
    rate = plan.kernel_flops / kernel_seconds / 1e9 if kernel_seconds > 0 else 0.0
    return DseObservation(
        m=m,
        k=k,
        n=n,
        kernel_threads=plan.kernel_threads,
        loop_threads=plan.loop_threads,
        working_set_bytes=plan.kernel_working_set_bytes,
        seconds=seconds,
        kernel_gflops=rate,
        dtype=plan.dtype,
        source=source,
        intensity=intensity,
        pinned=pinned,
    )


# -- exploration --------------------------------------------------------------


@dataclass(frozen=True)
class DseCase:
    """One TTM input of the sweep: geometry, contracted mode, output rank."""

    shape: tuple[int, ...]
    mode: int
    j: int


#: The default sweep: small enough to finish inside a CI smoke budget,
#: shaped to exercise several degrees and working-set decades.
DEFAULT_CASES: tuple[DseCase, ...] = (
    DseCase(shape=(8, 8, 8, 8), mode=0, j=8),
    DseCase(shape=(12, 12, 12, 12), mode=1, j=16),
    DseCase(shape=(16, 16, 16), mode=0, j=16),
    DseCase(shape=(24, 24, 24), mode=1, j=16),
)


@dataclass(frozen=True)
class DseConfig:
    """What to sweep and how long the sweep may take.

    ``max_seconds`` is a wall-clock budget for the whole exploration:
    once exceeded no further candidate is timed (the partial set of
    observations is still returned), so a calibration run is always
    bounded no matter how large the case list is.
    """

    cases: tuple[DseCase, ...] = DEFAULT_CASES
    layouts: tuple[str, ...] = ("ROW_MAJOR",)
    dtypes: tuple[str, ...] = ("float64",)
    kernels: tuple[str, ...] = ("blas",)
    max_threads: int = 1
    min_seconds: float = 0.005
    max_seconds: float = 30.0
    simulate_traffic: bool = True
    cache_words: int = 1 << 16

    def __post_init__(self) -> None:
        check_positive_int(self.max_threads, "max_threads")
        check_positive_int(self.cache_words, "cache_words")
        if not self.cases:
            raise BenchmarkError("DseConfig needs at least one case")
        if self.max_seconds <= 0:
            raise BenchmarkError(
                f"max_seconds must be > 0, got {self.max_seconds}"
            )


def explore(config: DseConfig, tuner=None) -> list[DseObservation]:
    """Time every configuration of the sweep on the live machine.

    Each candidate runs through the same
    :meth:`~repro.core.tuner.ExhaustiveTuner.time_plan` unit figure 12's
    exhaustive bars use, with the BLAS pool pinned (best effort) to the
    plan's ``P_C`` so the measured rate belongs to the thread count it is
    filed under.  Returns the observations gathered before the
    ``max_seconds`` budget ran out.
    """
    from repro.cachesim.cache import CacheModel
    from repro.core.tuner import ExhaustiveTuner, enumerate_plans
    from repro.obs.tracer import active_tracer
    from repro.tensor.dense import DenseTensor
    from repro.tensor.layout import Layout
    from repro.util.rng import default_rng

    if tuner is None:
        tuner = ExhaustiveTuner(min_seconds=config.min_seconds, min_repeats=1)
    rng = default_rng(0)
    observations: list[DseObservation] = []
    counters = active_hot_counters()
    tracer = active_tracer()
    deadline = time.perf_counter() + config.max_seconds
    intensity_cache: dict[tuple, float] = {}
    truncated = False

    def case_intensity(case: DseCase, layout, degree: int) -> float | None:
        if not config.simulate_traffic:
            return None
        key = (case.shape, case.j, case.mode, layout.name, degree)
        cached = intensity_cache.get(key)
        if cached is None:
            from repro.cachesim.traffic import simulate_ttm_traffic

            try:
                report = simulate_ttm_traffic(
                    case.shape,
                    case.j,
                    case.mode,
                    CacheModel(size_words=config.cache_words),
                    method="inplace",
                    layout=layout,
                    degree=degree or None,
                )
            except Exception:  # traffic model gaps must not kill the sweep
                log.debug("traffic simulation failed for %s", key, exc_info=True)
                return None
            cached = report.intensity
            intensity_cache[key] = cached
        return cached if math.isfinite(cached) else None

    with tracer.span("dse-explore", cases=len(config.cases)) if tracer.enabled \
            else _null_context():
        for case in config.cases:
            for layout_name in config.layouts:
                layout = Layout.parse(layout_name)
                for dtype in config.dtypes:
                    x = DenseTensor.random(
                        case.shape, layout, seed=rng, dtype=dtype
                    )
                    u = rng.standard_normal(
                        (case.j, case.shape[case.mode])
                    ).astype(dtype)
                    plans = enumerate_plans(
                        case.shape,
                        case.mode,
                        case.j,
                        layout,
                        config.max_threads,
                        config.kernels,
                        dtype=dtype,
                    )
                    for plan in plans:
                        if time.perf_counter() > deadline:
                            truncated = True
                            break
                        with blas_threads(plan.kernel_threads) as pinned:
                            seconds = tuner.time_plan(plan, x, u)
                        if counters is not None:
                            counters.add("dse_measurements")
                        observations.append(
                            observation_from_plan(
                                plan,
                                seconds,
                                source="dse",
                                intensity=case_intensity(
                                    case, layout, plan.degree
                                ),
                                pinned=pinned,
                            )
                        )
                    if truncated:
                        break
                if truncated:
                    break
            if truncated:
                break
    if truncated:
        log.info(
            "DSE budget of %.1fs exhausted after %d observations; "
            "remaining candidates skipped",
            config.max_seconds, len(observations),
        )
    return observations


class _null_context:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# -- fitting ------------------------------------------------------------------


def fit_thresholds(
    observations: Sequence[DseObservation], kappa: float = 0.8
) -> dict[int, Thresholds]:
    """MSTH/MLTH per kernel-thread count from the measured scatter.

    The figure-8 procedure on irregular data: within each thread group,
    find the peak kernel rate, keep the observations at or above
    ``kappa`` of it, and take the smallest/largest working set among the
    keepers as MSTH/MLTH — the widest window in which measured
    throughput stays near peak.  Groups with fewer than
    :data:`MIN_FIT_POINTS` distinct working sets are skipped; an empty
    result raises :class:`BenchmarkError` (nothing to calibrate from).
    """
    from repro.core.partition import Thresholds

    check_probability(kappa, "kappa")
    groups: dict[int, list[DseObservation]] = {}
    for obs in observations:
        if obs.kernel_gflops > 0 and obs.working_set_bytes > 0:
            groups.setdefault(obs.kernel_threads, []).append(obs)
    fitted: dict[int, Thresholds] = {}
    for threads, group in sorted(groups.items()):
        sizes = {o.working_set_bytes for o in group}
        if len(sizes) < MIN_FIT_POINTS:
            continue
        peak = max(o.kernel_gflops for o in group)
        keep = [o for o in group if o.kernel_gflops >= kappa * peak]
        msth = min(o.working_set_bytes for o in keep)
        mlth = max(o.working_set_bytes for o in keep)
        fitted[threads] = Thresholds(max(1, msth), max(1, mlth), kappa)
    if not fitted:
        raise BenchmarkError(
            f"cannot fit thresholds from {len(observations)} observations: "
            f"no kernel-thread group has {MIN_FIT_POINTS}+ distinct "
            "working sets"
        )
    return fitted


def fit_pth(observations: Sequence[DseObservation]) -> int | None:
    """The measured loop-vs-kernel crossover working set (PTH), or None.

    Pairs all-loop observations (``P_L > 1``) against all-kernel ones
    (``P_C > 1``) in log2 working-set buckets and returns the smallest
    working set at which the kernel allocation wins.  ``None`` when the
    sweep had no multi-threaded allocations to compare (single-thread
    machines) — the caller keeps its current PTH.
    """
    loop_side = [o for o in observations if o.loop_threads > 1]
    kernel_side = [o for o in observations if o.kernel_threads > 1]
    if not loop_side or not kernel_side:
        return None

    def bucket(obs: DseObservation) -> int:
        return int(math.log2(max(1, obs.working_set_bytes)))

    loop_rates: dict[int, list[float]] = {}
    kernel_rates: dict[int, list[DseObservation]] = {}
    for o in loop_side:
        loop_rates.setdefault(bucket(o), []).append(o.kernel_gflops)
    for o in kernel_side:
        kernel_rates.setdefault(bucket(o), []).append(o)
    shared = sorted(set(loop_rates) & set(kernel_rates))
    if not shared:
        return None
    for b in shared:
        loop_mean = statistics.mean(loop_rates[b])
        group = kernel_rates[b]
        kernel_mean = statistics.mean(o.kernel_gflops for o in group)
        if kernel_mean >= loop_mean:
            return min(o.working_set_bytes for o in group)
    # The kernel allocation never won: PTH sits above everything measured,
    # so every observed size keeps routing threads to the loops.
    return 2 * max(o.working_set_bytes for o in observations)


def fit_platform_inputs(
    observations: Sequence[DseObservation],
    info: MachineInfo | None = None,
) -> tuple[float | None, float | None]:
    """(all-core peak GFLOP/s, bandwidth GB/s) implied by the sweep.

    The peak follows the :func:`repro.perf.calibrate.measure_peak` rule:
    a *pinned* single-thread rate scales by the physical core count; an
    unpinned one is already an all-core rate and is taken as-is.  The
    bandwidth is the median ``rate x 8 / intensity`` over memory-bound
    observations (working set past the LLC, simulated intensity known) —
    each such point is its own mini-STREAM.  Either figure is ``None``
    when the sweep produced no qualifying observations.
    """
    info = info or machine_info()
    peak: float | None = None
    single = [
        o for o in observations
        if o.kernel_threads == 1 and o.kernel_gflops > 0
    ]
    if single:
        pinned = [o for o in single if o.pinned]
        if pinned:
            peak = max(o.kernel_gflops for o in pinned) * info.physical_cores
        else:
            peak = max(o.kernel_gflops for o in single)
    bandwidths = [
        o.kernel_gflops * 8.0 / o.intensity
        for o in observations
        if o.intensity and o.intensity > 0
        and o.working_set_bytes > info.llc_bytes
        and o.kernel_gflops > 0
    ]
    bandwidth = statistics.median(bandwidths) if bandwidths else None
    return peak, bandwidth


# -- the persisted record -----------------------------------------------------


@dataclass(frozen=True)
class CalibrationRecord:
    """A fitted cost model for one machine, ready to persist.

    ``thresholds`` maps kernel-thread count to the fitted MSTH/MLTH
    window; ``pth_bytes``/``peak_gflops``/``bandwidth_gbs`` are ``None``
    when the sweep could not determine them (the consumer keeps its
    defaults).  The record travels with its own ``version`` (see
    :data:`CALIBRATION_VERSION`) so a fit whose meaning changed is
    rejected at load rather than silently misread.
    """

    fingerprint: str | None
    thresholds: dict[int, Thresholds] = field(default_factory=dict)
    pth_bytes: int | None = None
    peak_gflops: float | None = None
    bandwidth_gbs: float | None = None
    samples: int = 0
    kappa: float = 0.8
    source: str = "dse"
    version: int = CALIBRATION_VERSION

    def thresholds_for(self, j: int, max_threads: int) -> Thresholds | None:
        """The fitted window for a thread budget, or None when unfitted.

        Thread selection mirrors the estimator's profile rule: the
        largest fitted count within the budget, else the smallest fitted
        count (an under-budget fit beats no fit).  *j* participates for
        interface stability — the scatter fit pools all output ranks, so
        today every *j* sees the same window.
        """
        if not self.thresholds:
            return None
        check_positive_int(j, "j")
        check_positive_int(max_threads, "max_threads")
        eligible = [t for t in self.thresholds if t <= max_threads]
        pick = max(eligible) if eligible else min(self.thresholds)
        return self.thresholds[pick]

    def platform(self, info: MachineInfo | None = None) -> "RooflinePlatform | None":
        """A RooflinePlatform from the fitted peak/bandwidth, or None.

        Needs both figures; cache size and core counts come from the
        machine introspection (*info*), which the fit does not replace.
        """
        if self.peak_gflops is None or self.bandwidth_gbs is None:
            return None
        from repro.analysis.roofline import RooflinePlatform

        info = info or machine_info()
        return RooflinePlatform(
            name=f"calibrated: {info.cpu_model}",
            peak_gflops=self.peak_gflops,
            bandwidth_gbs=self.bandwidth_gbs,
            llc_bytes=info.llc_bytes,
            cores=info.physical_cores,
            threads_with_smt=info.logical_cpus,
        )

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "thresholds": {
                str(threads): {
                    "msth_bytes": t.msth_bytes,
                    "mlth_bytes": t.mlth_bytes,
                    "kappa": t.kappa,
                }
                for threads, t in sorted(self.thresholds.items())
            },
            "pth_bytes": self.pth_bytes,
            "peak_gflops": self.peak_gflops,
            "bandwidth_gbs": self.bandwidth_gbs,
            "samples": self.samples,
            "kappa": self.kappa,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationRecord":
        from repro.core.partition import Thresholds

        version = payload.get("version")
        if version != CALIBRATION_VERSION:
            raise SchemaMismatchError(
                f"calibration version {version!r} != supported "
                f"{CALIBRATION_VERSION}"
            )
        try:
            thresholds = {
                int(threads): Thresholds(
                    msth_bytes=int(t["msth_bytes"]),
                    mlth_bytes=int(t["mlth_bytes"]),
                    kappa=float(t.get("kappa", 0.8)),
                )
                for threads, t in (payload.get("thresholds") or {}).items()
            }
            pth = payload.get("pth_bytes")
            peak = payload.get("peak_gflops")
            bw = payload.get("bandwidth_gbs")
            return cls(
                fingerprint=payload.get("fingerprint"),
                thresholds=thresholds,
                pth_bytes=None if pth is None else int(pth),
                peak_gflops=None if peak is None else float(peak),
                bandwidth_gbs=None if bw is None else float(bw),
                samples=int(payload.get("samples", 0)),
                kappa=float(payload.get("kappa", 0.8)),
                source=str(payload.get("source", "dse")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(
                f"malformed calibration payload: {exc}"
            ) from exc

    def digest(self) -> str:
        """A short content hash — the estimator's cache-key token.

        Two records fitting different windows must never share cached
        thresholds, so the estimator keys its per-J cache on this.
        """
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def summary_rows(self) -> list[tuple[str, str]]:
        """Rows for ``repro calibrate show`` (human rendering)."""
        from repro.util.formatting import format_bytes

        rows: list[tuple[str, str]] = [
            ("calibration version", str(self.version)),
            ("fingerprint", self.fingerprint or "(portable)"),
            ("samples", str(self.samples)),
            ("source", self.source),
        ]
        for threads, t in sorted(self.thresholds.items()):
            rows.append(
                (
                    f"MSTH/MLTH @ {threads} thread(s)",
                    f"{format_bytes(t.msth_bytes)} / "
                    f"{format_bytes(t.mlth_bytes)} (kappa={t.kappa})",
                )
            )
        rows.append(
            (
                "PTH",
                format_bytes(self.pth_bytes)
                if self.pth_bytes is not None
                else "(unfitted: single-thread sweep)",
            )
        )
        rows.append(
            (
                "peak GFLOP/s (all cores)",
                f"{self.peak_gflops:.2f}" if self.peak_gflops else "(unfitted)",
            )
        )
        rows.append(
            (
                "bandwidth GB/s",
                f"{self.bandwidth_gbs:.2f}"
                if self.bandwidth_gbs
                else "(unfitted)",
            )
        )
        return rows


def fit_calibration(
    observations: Sequence[DseObservation],
    fingerprint: str | None = None,
    kappa: float = 0.8,
    info: MachineInfo | None = None,
    source: str = "dse",
) -> CalibrationRecord:
    """Fit every model input the observations support into one record."""
    thresholds = fit_thresholds(observations, kappa=kappa)
    peak, bandwidth = fit_platform_inputs(observations, info=info)
    counters = active_hot_counters()
    if counters is not None:
        counters.add("calibration_refits")
    return CalibrationRecord(
        fingerprint=fingerprint,
        thresholds=thresholds,
        pth_bytes=fit_pth(observations),
        peak_gflops=peak,
        bandwidth_gbs=bandwidth,
        samples=len(observations),
        kappa=kappa,
        source=source,
    )


# -- persistence through the PlanStore ---------------------------------------


def store_calibration(
    store: "PlanStore",
    record: CalibrationRecord,
    observations: Sequence[DseObservation] = (),
) -> None:
    """Persist a record (plus capped raw observations) in the store.

    The observations ride along so a later process can *extend* the fit
    instead of starting cold; only the newest
    :data:`MAX_STORED_OBSERVATIONS` are kept.
    """
    kept = list(observations)[-MAX_STORED_OBSERVATIONS:]
    store.save_calibration(
        {
            "record": record.to_dict(),
            "observations": [o.to_dict() for o in kept],
        }
    )


def load_calibration_record(
    store: "PlanStore",
) -> tuple[CalibrationRecord | None, list[DseObservation]]:
    """The persisted record and raw observations, or ``(None, [])``.

    A stale or malformed calibration section downgrades to the
    paper-default fallback (with a log line) rather than failing the
    caller — the same policy the plan cache applies to bad stores.
    """
    payload = store.load_calibration()
    if not payload:
        return None, []
    try:
        record = CalibrationRecord.from_dict(payload.get("record") or {})
        observations = [
            DseObservation.from_dict(o)
            for o in payload.get("observations") or []
        ]
    except (SchemaMismatchError, BenchmarkError) as exc:
        log.warning(
            "ignoring unusable calibration in %s (%s); paper defaults apply",
            store.path, exc,
        )
        return None, []
    return record, observations


def run_calibration(
    store: "PlanStore",
    config: DseConfig | None = None,
    info: MachineInfo | None = None,
    tuner=None,
) -> CalibrationRecord:
    """One explicit calibration session: sweep, fit, persist, return.

    New observations merge with any already stored (same cap), so
    repeated runs refine rather than replace the fit.
    """
    config = config or DseConfig()
    info = info or machine_info()
    _prior, stored = load_calibration_record(store)
    fresh = explore(config, tuner=tuner)
    if not fresh and not stored:
        raise BenchmarkError(
            "calibration sweep produced no observations (budget too small?)"
        )
    merged = (stored + fresh)[-MAX_STORED_OBSERVATIONS:]
    record = fit_calibration(
        merged,
        fingerprint=store.fingerprint or info.fingerprint(),
        info=info,
    )
    store_calibration(store, record, merged)
    log.info(
        "calibration fitted from %d observations (%d new) -> %s",
        len(merged), len(fresh), store.path,
    )
    return record


# -- incremental accumulation (the autotune-session hook) --------------------


class CalibrationAccumulator:
    """Feeds real-workload timings into the calibration, incrementally.

    The autotune session already measures plans (incumbent and
    alternates) to promote winners; each of those timings is also a DSE
    observation.  The accumulator buffers them and refits once enough
    new evidence arrives (``refit_every``), provided a minimum total
    sample count (``min_samples``) has been reached — below that a fit
    would be noise.  Every refit persists through the store so the next
    process starts warm.
    """

    def __init__(
        self,
        store: "PlanStore",
        min_samples: int = 12,
        refit_every: int = 8,
        kappa: float = 0.8,
        info: MachineInfo | None = None,
    ) -> None:
        check_positive_int(min_samples, "min_samples")
        check_positive_int(refit_every, "refit_every")
        check_probability(kappa, "kappa")
        self.store = store
        self.min_samples = min_samples
        self.refit_every = refit_every
        self.kappa = kappa
        self.info = info or machine_info()
        record, observations = load_calibration_record(store)
        self.record = record
        self.observations = observations
        self._new_since_fit = 0

    def observe(
        self,
        plan: "TtmPlan",
        seconds: float,
        intensity: float | None = None,
    ) -> DseObservation:
        """Record one real measurement (whole-TTM seconds for *plan*)."""
        obs = observation_from_plan(
            plan, seconds, source="session", intensity=intensity
        )
        self.observations.append(obs)
        if len(self.observations) > MAX_STORED_OBSERVATIONS:
            del self.observations[: -MAX_STORED_OBSERVATIONS]
        self._new_since_fit += 1
        counters = active_hot_counters()
        if counters is not None:
            counters.add("dse_measurements")
        return obs

    def maybe_refit(self) -> CalibrationRecord | None:
        """Refit and persist when due; returns the new record or None.

        A fit attempt that fails (still too little spread in the data)
        simply defers to the next interval instead of raising into the
        serving path.
        """
        if (
            len(self.observations) < self.min_samples
            or self._new_since_fit < self.refit_every
        ):
            return None
        try:
            record = fit_calibration(
                self.observations,
                fingerprint=self.store.fingerprint
                or self.info.fingerprint(),
                kappa=self.kappa,
                info=self.info,
                source="session",
            )
        except BenchmarkError as exc:
            log.debug("calibration refit deferred: %s", exc)
            self._new_since_fit = 0
            return None
        self.record = record
        self._new_since_fit = 0
        store_calibration(self.store, record, self.observations)
        return record


def merge_observations(
    *groups: Iterable[DseObservation],
) -> list[DseObservation]:
    """Concatenate observation groups under the storage cap (newest win)."""
    merged: list[DseObservation] = []
    for group in groups:
        merged.extend(group)
    return merged[-MAX_STORED_OBSERVATIONS:]


__all__ = [
    "CALIBRATION_VERSION",
    "MAX_STORED_OBSERVATIONS",
    "CalibrationAccumulator",
    "CalibrationRecord",
    "DseCase",
    "DseConfig",
    "DseObservation",
    "explore",
    "fit_calibration",
    "fit_pth",
    "fit_platform_inputs",
    "fit_thresholds",
    "load_calibration_record",
    "merge_observations",
    "observation_from_plan",
    "run_calibration",
    "store_calibration",
]
