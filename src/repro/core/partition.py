"""Mode partitioning: choosing ``M_C`` and ``M_L`` (paper §4.3.1).

Two decisions are made here:

1. **Strategy** — forward for row-major storage, backward for
   column-major, so the inner GEMM keeps a unit-stride dimension and can
   use the fast (BLAS) kernel.
2. **Degree** — how many contiguous modes to merge into the component
   set.  The paper derives two working-set thresholds, ``MSTH`` and
   ``MLTH``, from the GEMM shape benchmark (figure 8): the region between
   them is where GEMM throughput stays within a fraction ``kappa`` (0.8)
   of its peak.  ``choose_degree`` grows the degree from 1 until the
   kernel working set lands inside [MSTH, MLTH] (taking the largest such
   kernel), because too-small kernels waste the benchmark's sweet spot
   and too-large ones fall off the right side of figure 8.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.core.plan import Strategy
from repro.gemm.bench import GemmProfile
from repro.tensor.layout import Layout, element_strides
from repro.util.errors import BenchmarkError, LayoutError, PlanError
from repro.util.validation import check_mode, check_positive_int, check_probability

#: Thresholds the paper measured on its Core i7 (§4.3.1): used as a
#: fallback when no benchmark profile is supplied.
PAPER_MSTH_BYTES = int(1.04 * 1024**2)
PAPER_MLTH_BYTES = int(7.04 * 1024**2)


@dataclass(frozen=True)
class Thresholds:
    """The MSTH/MLTH working-set window (bytes) at a given kappa."""

    msth_bytes: int
    mlth_bytes: int
    kappa: float = 0.8

    def __post_init__(self) -> None:
        check_positive_int(self.msth_bytes, "msth_bytes")
        check_positive_int(self.mlth_bytes, "mlth_bytes")
        check_probability(self.kappa, "kappa")
        if self.msth_bytes > self.mlth_bytes:
            raise PlanError(
                f"MSTH ({self.msth_bytes}) must not exceed MLTH "
                f"({self.mlth_bytes})"
            )

    def contains(self, nbytes: int) -> bool:
        return self.msth_bytes <= nbytes <= self.mlth_bytes


PAPER_THRESHOLDS = Thresholds(PAPER_MSTH_BYTES, PAPER_MLTH_BYTES)


def available_modes_for_strategy(order: int, mode: int, strategy) -> tuple[int, ...]:
    """Modes eligible for ``M_C`` under an explicit strategy.

    Forward: the modes right of *mode* (the component run must end at
    N-1); backward: the modes left of it (the run must start at 0).
    """
    mode = check_mode(mode, order)
    if strategy is Strategy.FORWARD:
        return tuple(range(mode + 1, order))
    return tuple(range(0, mode))


def component_modes_for_strategy(
    order: int, mode: int, strategy, degree: int
) -> tuple[int, ...]:
    """The degree-sized component run for an explicit strategy."""
    available = available_modes_for_strategy(order, mode, strategy)
    if degree < 0 or degree > len(available):
        raise PlanError(
            f"degree {degree} out of range: mode {mode} of an order-{order} "
            f"tensor admits 0..{len(available)} {strategy.value} component "
            "modes"
        )
    if degree == 0:
        return ()
    if strategy is Strategy.FORWARD:
        return available[-degree:]
    return available[:degree]


def strategy_for(order: int, mode: int, layout: Layout):
    """The strategy to use for this input: natural, unless it is empty.

    Row-major prefers forward and column-major backward (unit-stride
    kernels); when the natural side has no modes at all — mode N-1 of a
    row-major tensor, mode 0 of a column-major one — the opposite
    strategy is used instead.  In exactly those fallback cases the
    contracted mode itself carries the unit stride, so the cross-strategy
    kernel is still BLAS-legal (indeed it degenerates to a single GEMM on
    the whole, contiguously reshaped tensor).
    """
    natural = Strategy.natural_for(layout)
    if available_modes_for_strategy(order, mode, natural):
        return natural
    flipped = (
        Strategy.BACKWARD if natural is Strategy.FORWARD else Strategy.FORWARD
    )
    if available_modes_for_strategy(order, mode, flipped):
        return flipped
    return natural  # order-1 tensor: no component modes either way


def choose_batch_modes(
    shape: Sequence[int],
    layout: Layout,
    mode: int,
    j: int,
    loop_modes: Sequence[int],
) -> tuple[int, ...]:
    """The maximal innermost run of ``M_L`` that stacks into a batched GEMM.

    A suffix of the loop iteration order can be fused into the batch
    dimension of one rank-3 strided view exactly when (a) its modes form a
    consecutive index run (so the merged dimension exists copy-free —
    Lemma 4.1 applied to the batch axis) and (b) the run's strides nest in
    *both* the input and the output tensor.  For contiguous storage (b)
    follows from (a), but it is checked explicitly so exotic layouts fail
    toward the safe per-iteration path rather than toward a wrong view.

    Returns the chosen modes as a sorted tuple — ``()`` when even the
    innermost loop mode cannot be stacked (only possible with no loop
    modes at all).
    """
    from repro.tensor.views import merged_stride

    shape_t = tuple(int(s) for s in shape)
    loops = tuple(int(m) for m in loop_modes)
    mode = check_mode(mode, len(shape_t))
    check_positive_int(j, "j")
    out_shape = shape_t[:mode] + (int(j),) + shape_t[mode + 1:]
    x_strides = element_strides(shape_t, layout)
    y_strides = element_strides(out_shape, layout)
    best: tuple[int, ...] = ()
    for k in range(1, len(loops) + 1):
        run = tuple(sorted(loops[len(loops) - k:]))
        if list(run) != list(range(run[0], run[0] + len(run))):
            break
        try:
            merged_stride(x_strides, shape_t, run)
            merged_stride(y_strides, out_shape, run)
        except LayoutError:
            break
        best = run
    return best


def kernel_working_set_bytes(
    shape: Sequence[int],
    mode: int,
    j: int,
    component_modes: Sequence[int],
    itemsize: int = 8,
) -> int:
    """Bytes of the three inner-GEMM matrices for a candidate ``M_C``.

    ``X_sub (I_n x P)``, ``U (J x I_n)``, ``Y_sub (J x P)`` with
    ``P = prod(shape[c] for c in M_C)``.  *itemsize* is the element size
    in bytes (8 for float64, the paper's setting; 4 for float32): the
    MSTH/MLTH window is a byte budget, so halving the element size lets a
    kernel of twice the geometry fit the same window.
    """
    check_positive_int(j, "j")
    check_positive_int(itemsize, "itemsize")
    i_n = int(shape[mode])
    p = math.prod(int(shape[c]) for c in component_modes) if component_modes else 1
    return itemsize * (i_n * p + j * i_n + j * p)


def describe_profile(profile: GemmProfile) -> str:
    """A short human label for a profile, used in threshold errors.

    Combines the provenance recorded in ``profile.meta`` (source and,
    when synthetic, the platform preset) with the point count so error
    messages name *which* benchmark artifact was unusable.
    """
    meta = getattr(profile, "meta", None) or {}
    source = meta.get("source", "unknown-source")
    parts = [str(source)]
    for key in ("platform", "kernel"):
        if meta.get(key):
            parts.append(str(meta[key]))
    label = ", ".join(parts)
    return f"GemmProfile({label}; {len(profile)} points)"


def derive_thresholds(
    profile: GemmProfile,
    m: int,
    threads: int | None = None,
    kappa: float = 0.8,
) -> Thresholds:
    """Extract MSTH/MLTH from a GEMM shape profile (the figure-8 procedure).

    For each profiled ``k`` (with the output rows fixed at ``m``), scan
    the ``n`` series: find the peak ``f_max``, then the first point at or
    below ``kappa * f_max`` walking down each side of the peak.  The
    working-set sizes of those two points are that ``k``'s thresholds;
    the final MSTH/MLTH average over all ``k``.
    """
    check_probability(kappa, "kappa")
    if threads is None:
        threads = max(profile.thread_counts())
    k_values = sorted({p.k for p in profile.series(m=m, threads=threads)})
    if not k_values:
        raise BenchmarkError(
            f"cannot derive thresholds from {describe_profile(profile)}: "
            f"no points with m={m}, threads={threads}"
        )
    small_sizes: list[int] = []
    large_sizes: list[int] = []
    short_series = 0
    for k in k_values:
        series = profile.series(m=m, k=k, threads=threads)
        if len(series) < 3:
            short_series += 1
            continue
        rates = [p.gflops for p in series]
        peak_idx = max(range(len(series)), key=rates.__getitem__)
        cutoff = kappa * rates[peak_idx]
        lo = peak_idx
        while lo > 0 and rates[lo - 1] > cutoff:
            lo -= 1
        if lo > 0:
            lo -= 1  # the bar just *below* the horizontal line
        hi = peak_idx
        while hi < len(series) - 1 and rates[hi + 1] > cutoff:
            hi += 1
        if hi < len(series) - 1:
            hi += 1
        small_sizes.append(series[lo].working_set_bytes)
        large_sizes.append(series[hi].working_set_bytes)
    if not small_sizes:
        # Every k landed in the ``continue`` above: without this guard
        # the means below would crash on empty inputs.  Name the profile
        # so the operator knows which benchmark artifact is too sparse.
        raise BenchmarkError(
            f"cannot derive thresholds from {describe_profile(profile)}: "
            f"all {short_series} n-series for m={m}, threads={threads} "
            "have fewer than 3 points (the figure-8 peak walk needs at "
            "least 3); re-run the benchmark with a denser n grid"
        )
    msth = int(statistics.mean(small_sizes))
    mlth = int(statistics.mean(large_sizes))
    if msth > mlth:  # degenerate profiles (monotone series); keep a window
        msth, mlth = mlth, msth
    return Thresholds(max(1, msth), max(1, mlth), kappa)


def choose_degree(
    shape: Sequence[int],
    mode: int,
    layout: Layout,
    j: int,
    thresholds: Thresholds,
    strategy=None,
    itemsize: int = 8,
) -> int:
    """The paper's degree selection (§4.3.1).

    Start at degree 1 and grow while the kernel working set stays below
    MSTH; return the largest degree whose working set is <= MLTH (at
    least 1 when any component mode exists, since a degree-0 fiber kernel
    is strictly worse — Observation 3's BLAS-level argument).

    *strategy* defaults to :func:`strategy_for`'s choice.  *itemsize*
    scales the working set: a float32 input (itemsize 4) can merge more
    modes before hitting MLTH than the same geometry in float64.
    """
    order = len(shape)
    if strategy is None:
        strategy = strategy_for(order, mode, layout)
    available = available_modes_for_strategy(order, mode, strategy)
    if not available:
        return 0
    best = 1
    for degree in range(1, len(available) + 1):
        comp = component_modes_for_strategy(order, mode, strategy, degree)
        ws = kernel_working_set_bytes(shape, mode, j, comp, itemsize=itemsize)
        if ws <= thresholds.mlth_bytes:
            best = degree
            if ws >= thresholds.msth_bytes:
                # Inside the window: the paper keeps the largest kernel
                # within [MSTH, MLTH]; continue growing while still <= MLTH.
                continue
        else:
            break
    return best
