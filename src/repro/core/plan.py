"""The TTM execution plan: the tuple of choices the estimator makes.

A :class:`TtmPlan` pins down, for one (tensor geometry, mode, J, layout)
input, everything Algorithm 2 leaves open:

* the **strategy** — forward (component modes to the right of mode *n*;
  the unit-stride choice for row-major storage) or backward (to the
  left; unit-stride for column-major);
* the **component modes** ``M_C`` merged into the inner GEMM;
* the **loop modes** ``M_L`` iterated by the (possibly parallel) nest;
* the **batch modes** ``M_B`` — the innermost run of ``M_L`` whose
  iterations collapse into one batched GEMM (a rank-3 view fed to
  ``np.matmul``) instead of Python-level per-index dispatches;
* the thread split ``P_L`` / ``P_C``;
* the inner **kernel** (``blas`` fast path or ``blocked`` general-stride).

Plans are frozen, hashable, and fully validated at construction, so the
executor and the code generator can trust them blindly — and the plan
cache can key on them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.resilience.memory import plan_footprint_bytes
from repro.tensor.layout import Layout, element_strides
from repro.util.dtypes import SUPPORTED_DTYPES
from repro.util.errors import LayoutError, PlanError


class Strategy(enum.Enum):
    """Which side of mode *n* supplies the component modes (§4.3.1)."""

    FORWARD = "forward"    # M_C from {n+1, ..., N-1} (rightmost modes)
    BACKWARD = "backward"  # M_C from {0, ..., n-1} (leftmost modes)

    # Identity hashing, as for Layout: plans hash a strategy field.
    __hash__ = object.__hash__

    @classmethod
    def natural_for(cls, layout: Layout) -> "Strategy":
        """The unit-stride strategy for a storage layout."""
        return cls.FORWARD if layout is Layout.ROW_MAJOR else cls.BACKWARD


class CompiledPlan(NamedTuple):
    """What every call of one plan reuses: :attr:`TtmPlan.compiled`."""

    #: The generated loop nest, ``fn(x_data, u, y_data)``
    #: (:func:`repro.core.codegen.compile_plan`).
    fn: Callable
    #: Its :class:`~repro.core.codegen.DispatchCounts`.
    counts: Any
    #: ``np.empty(*empty_args)`` allocates the output: (shape, dtype, order).
    empty_args: tuple
    #: Element strides of that output.
    out_strides: tuple[int, ...]
    #: :func:`~repro.resilience.memory.plan_footprint_bytes` when the
    #: executor allocates the output, and when the caller passed it.
    footprint: int
    footprint_in_place: int
    #: The checked warm entry, ``call(x, u, out=None) -> DenseTensor | None``
    #: (:func:`repro.core.inttm.warm_entry`), set on every record
    #: :attr:`TtmPlan.compiled` builds.
    call: Callable | None = None


@dataclass(frozen=True)
class TtmPlan:
    """A fully specified in-place TTM execution recipe.

    Derived geometry the executor reads on every call (output shape and
    strides, kernel shape, element type, working set) and the compiled
    kernel with its pre-flight footprints (:attr:`compiled`) are computed
    once per plan as a :func:`functools.cached_property`.  The cache
    lives in the instance ``__dict__`` next to the fields but is not one
    of them: ``==``, ``hash``, :func:`dataclasses.replace` (a fresh
    instance, so a fresh cache) and serialization see only the fields,
    and pickling drops it (:meth:`__getstate__`).
    """

    shape: tuple[int, ...]
    mode: int
    j: int
    layout: Layout
    strategy: Strategy
    component_modes: tuple[int, ...]
    loop_modes: tuple[int, ...]
    loop_threads: int = 1
    kernel_threads: int = 1
    kernel: str = "auto"
    batch_modes: tuple[int, ...] = ()
    dtype: str = "float64"

    def __post_init__(self) -> None:
        order = len(self.shape)
        if order < 1:
            raise PlanError("plan requires an order >= 1 tensor")
        if self.dtype not in SUPPORTED_DTYPES:
            raise PlanError(
                f"plan dtype {self.dtype!r} not in {SUPPORTED_DTYPES}; "
                "pass the canonical dtype name (e.g. 'float32')"
            )
        if not 0 <= self.mode < order:
            raise PlanError(f"mode {self.mode} out of range for order {order}")
        if self.j < 1:
            raise PlanError(f"J must be >= 1, got {self.j}")
        if self.loop_threads < 1 or self.kernel_threads < 1:
            raise PlanError("thread counts must be >= 1")
        if self.loop_threads > 1 and self.kernel_threads > 1:
            # P_C sizes the BLAS pool, which P_L workers would share.
            raise PlanError(
                f"P_L={self.loop_threads} and P_C={self.kernel_threads}: "
                "a plan threads its loops or its kernel, not both"
            )
        mc, ml = set(self.component_modes), set(self.loop_modes)
        if mc & ml:
            raise PlanError(f"M_C {mc} and M_L {ml} overlap")
        if self.mode in mc or self.mode in ml:
            raise PlanError(f"mode {self.mode} cannot be a loop/component mode")
        if mc | ml | {self.mode} != set(range(order)):
            raise PlanError(
                f"M_C {sorted(mc)} + M_L {sorted(ml)} + mode {self.mode} "
                f"do not cover all modes of order {order}"
            )
        comp = list(self.component_modes)
        if comp != sorted(comp) or (
            comp and comp != list(range(comp[0], comp[0] + len(comp)))
        ):
            raise PlanError(
                f"component modes {comp} must be a sorted consecutive run"
            )
        if comp:
            if self.strategy is Strategy.FORWARD:
                # Rightmost run: must start after mode and end at N-1.
                if comp[0] <= self.mode or comp[-1] != order - 1:
                    raise PlanError(
                        f"forward strategy requires M_C to be the rightmost "
                        f"modes after {self.mode}, got {comp}"
                    )
            else:
                if comp[-1] >= self.mode or comp[0] != 0:
                    raise PlanError(
                        f"backward strategy requires M_C to be the leftmost "
                        f"modes before {self.mode}, got {comp}"
                    )
        batch = list(self.batch_modes)
        if batch:
            if batch != sorted(batch) or batch != list(
                range(batch[0], batch[0] + len(batch))
            ):
                raise PlanError(
                    f"batch modes {batch} must be a sorted consecutive run"
                )
            if set(batch) != set(self.loop_modes[len(self.loop_modes) - len(batch):]):
                raise PlanError(
                    f"batch modes {batch} must be exactly the innermost "
                    f"(last-iterated) loop modes of M_L {list(self.loop_modes)}"
                )
            # Stackability (Lemma 4.2 analogue): the batch run must merge
            # copy-free in *both* operands.  Always true for contiguous
            # storage, but validated here so the executor and the code
            # generator can trust ``batch_modes`` blindly.
            from repro.tensor.views import merged_stride

            try:
                merged_stride(
                    element_strides(self.shape, self.layout), self.shape, batch
                )
                merged_stride(
                    element_strides(self.out_shape, self.layout),
                    self.out_shape,
                    batch,
                )
            except LayoutError as exc:
                raise PlanError(
                    f"batch modes {batch} are not stackable without a copy: "
                    f"{exc}"
                ) from exc

    # -- derived geometry ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def degree(self) -> int:
        """|M_C|: how many modes are merged into the inner GEMM."""
        return len(self.component_modes)

    @cached_property
    def i_n(self) -> int:
        """Extent of the contracted mode."""
        return self.shape[self.mode]

    @cached_property
    def component_extent(self) -> int:
        """Merged length P of the component dimension (1 when M_C is empty)."""
        return math.prod(self.shape[m] for m in self.component_modes)

    @cached_property
    def out_shape(self) -> tuple[int, ...]:
        """Shape of the output tensor Y."""
        return self.shape[: self.mode] + (self.j,) + self.shape[self.mode + 1 :]

    @cached_property
    def out_strides(self) -> tuple[int, ...]:
        """Element strides of Y stored contiguously in the plan's layout."""
        return element_strides(self.out_shape, self.layout)

    @property
    def loop_extents(self) -> tuple[int, ...]:
        """Iteration counts of the collapsed loop nest, in loop order."""
        return tuple(self.shape[m] for m in self.loop_modes)

    @property
    def loop_iterations(self) -> int:
        return math.prod(self.loop_extents) if self.loop_extents else 1

    # -- batched execution geometry ----------------------------------------

    @property
    def batch_extent(self) -> int:
        """B: iterations fused into one batched GEMM (1 when unbatched)."""
        return math.prod(self.shape[m] for m in self.batch_modes)

    @property
    def outer_loop_modes(self) -> tuple[int, ...]:
        """The loop modes that remain a Python-level loop outside the batch."""
        if not self.batch_modes:
            return self.loop_modes
        return self.loop_modes[: len(self.loop_modes) - len(self.batch_modes)]

    @property
    def outer_loop_extents(self) -> tuple[int, ...]:
        return tuple(self.shape[m] for m in self.outer_loop_modes)

    @property
    def outer_loop_iterations(self) -> int:
        extents = self.outer_loop_extents
        return math.prod(extents) if extents else 1

    @property
    def gemm_dispatch_count(self) -> int:
        """GEMM dispatches the plan's loop nest performs.

        An unbatched plan dispatches once per loop index; a batched plan
        once per *outer* index, reducing the count by the batch factor B
        (one dispatch in all when no outer loop remains).  Compiled code
        on the single-threaded BLAS path performs exactly this many (see
        :mod:`repro.core.codegen`); other kernels make one 2-D call per
        loop index.
        """
        if not self.batch_modes:
            return self.loop_iterations
        return self.outer_loop_iterations

    @cached_property
    def kernel_shape(self) -> tuple[int, int, int]:
        """(m, k, n) of the inner GEMM as dispatched.

        Forward: ``Y_sub (J x P) = U (J x I_n) @ X_sub (I_n x P)``.
        Backward: ``Y_sub (P x J) = X_sub (P x I_n) @ U^T (I_n x J)``.
        """
        p = self.component_extent
        if self.strategy is Strategy.FORWARD:
            return (self.j, self.i_n, p)
        return (p, self.i_n, self.j)

    @property
    def views_blas_legal(self) -> bool:
        """True when the plan's sub-tensor views fit the BLAS interface.

        The inner views have unit stride in one dimension exactly when
        the component run includes the storage's leading mode (natural
        strategies) or when the contracted mode itself is the leading
        mode (the cross-strategy fallback).  Otherwise both strides are
        non-unit and the blocked (BLIS-role) kernel is required — the
        figure-7 "BLIS or MKL" dispatch decision, decidable from geometry
        alone.
        """
        order = self.order
        leading = order - 1 if self.layout is Layout.ROW_MAJOR else 0
        if self.mode == leading:
            return True
        if self.degree == 0:
            # Fiber kernels are single-column matrices: vacuously legal.
            return True
        return leading in self.component_modes

    @cached_property
    def np_dtype(self) -> np.dtype:
        """The plan's element type as a :class:`numpy.dtype`."""
        return np.dtype(self.dtype)

    @cached_property
    def itemsize(self) -> int:
        """Bytes per element — the scale factor of every byte threshold."""
        return self.np_dtype.itemsize

    @cached_property
    def kernel_working_set_bytes(self) -> int:
        """Bytes of the three inner-GEMM operands (the threshold unit).

        Scaled by the plan dtype's itemsize: a float32 kernel of the same
        geometry touches half the memory, which is exactly what moves it
        across the MSTH/MLTH window (§4.3.1 is stated in bytes).
        """
        m, k, n = self.kernel_shape
        return self.itemsize * (m * k + k * n + m * n)

    @cached_property
    def output_bytes(self) -> int:
        """Bytes of the full output tensor Y (what a chain step materializes).

        This is the quantity the chain planner sums and peaks over when
        ordering a multi-TTM chain: every intermediate is one step's
        output, so the order that minimizes these bytes minimizes both
        scratch footprint and write traffic.
        """
        return self.itemsize * math.prod(self.out_shape)

    @cached_property
    def compiled(self) -> CompiledPlan:
        """The generated kernel and the constants every call of it needs.

        Built on the first execution of this plan instance and kept, so
        a warm call neither hashes the plan to find its kernel nor
        recomputes the output's allocation arguments or the footprints
        its memory pre-flight compares against.  Its ``call`` runs all
        of that as one checked call.  This is the kernel's only holder:
        equal plan instances compile equal code separately, and the
        kernel is freed with its plan (at the next cyclic collection,
        since ``call`` closes over the plan).
        """
        # Imported here: codegen and inttm import this module.
        from repro.core.codegen import compile_plan
        from repro.core.inttm import warm_entry

        fn = compile_plan(self)
        record = CompiledPlan(
            fn=fn,
            counts=fn.counts,
            empty_args=(
                self.out_shape, self.np_dtype, self.layout.numpy_order
            ),
            out_strides=self.out_strides,
            footprint=plan_footprint_bytes(self, allocate_out=True),
            footprint_in_place=plan_footprint_bytes(self, allocate_out=False),
        )
        return record._replace(call=warm_entry(self, record))

    @property
    def kernel_flops(self) -> int:
        m, k, n = self.kernel_shape
        return 2 * m * k * n

    @property
    def total_flops(self) -> int:
        return self.kernel_flops * self.loop_iterations

    def describe(self) -> str:
        """One-line human-readable summary (used by benchmarks/examples)."""
        dims = "x".join(str(s) for s in self.shape)
        comp = ",".join(str(m) for m in self.component_modes) or "-"
        loops = ",".join(str(m) for m in self.loop_modes) or "-"
        batch = ",".join(str(m) for m in self.batch_modes) or "-"
        return (
            f"TtmPlan[{dims} mode={self.mode} J={self.j} "
            f"{self.layout.name}/{self.strategy.value} "
            f"M_C=({comp}) M_L=({loops}) M_B=({batch}) "
            f"P_L={self.loop_threads} "
            f"P_C={self.kernel_threads} kernel={self.kernel} "
            f"dtype={self.dtype}]"
        )

    def __getstate__(self) -> dict:
        """Pickle the fields only, never the derived-geometry cache."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def cache_key(self) -> tuple:
        """Key identifying the *input* this plan was built for.

        Includes the dtype: a float32 plan and a float64 plan for the
        same geometry make different threshold decisions and must never
        collide in a cache.
        """
        return (self.shape, self.mode, self.j, self.layout, self.dtype)
