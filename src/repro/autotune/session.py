"""The autotune session: cached dispatch plus online measure-and-promote.

:class:`AutotuneSession` wraps an :class:`repro.core.intensli.InTensLi`
instance so that

* the **first** call for a signature pays the estimator once and caches
  the decision persistently;
* every **subsequent** call — in this process or any later one on the
  same machine — resolves the plan with a pure cache lookup, zero
  estimator or tuner work (assertable via :class:`repro.perf.profiler
  .HotCounters`);
* with ``refine=True``, each call additionally times the work it was
  going to do anyway and opportunistically measures a couple of untried
  alternate configurations from the exhaustive-tuner space
  (:func:`repro.core.tuner.enumerate_plans`), promoting a measured
  winner into the cache once the evidence says the estimator guessed
  wrong.  This amortizes figure 12's exhaustive sweep over real traffic
  instead of paying it up front.

Usage::

    session = AutotuneSession(path="/var/cache/repro/plans.json",
                              refine=True)
    y = session.ttm(x, u, mode=1)          # slow once, cached forever
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autotune.cache import CacheEntry, PlanCache, PlanKey, plan_digest
from repro.core.intensli import InTensLi
from repro.core.plan import TtmPlan
from repro.core.tuner import ExhaustiveTuner, enumerate_plans
from repro.obs.tracer import active_tracer
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import dtype_name, match_dtype
from repro.util.errors import ShapeError


class AutotuneSession:
    """Persistent-cached, optionally self-refining TTM dispatch.

    Parameters
    ----------
    intensli:
        The wrapped framework instance (default: a fresh ``InTensLi()``).
    path / cache:
        Where decisions persist — either a store path (a
        :class:`PlanCache` is opened there) or an explicit cache object.
    refine:
        Enable the online refinement loop.
    refine_trials:
        Maximum *alternate* plans measured per call (1–2 keeps the
        opportunistic overhead bounded; 0 only times the incumbent).
    refine_margin:
        Fractional speedup an alternate must show over the incumbent's
        best measurement before it is promoted (guards against jitter).
    min_seconds:
        Timing floor per measured candidate, forwarded to the tuner.
    """

    def __init__(
        self,
        intensli: InTensLi | None = None,
        path: str | None = None,
        cache: PlanCache | None = None,
        refine: bool = False,
        refine_trials: int = 2,
        refine_margin: float = 0.05,
        min_seconds: float = 0.002,
        kernels: Sequence[str] = ("blas",),
        autosave: bool = True,
    ) -> None:
        if refine_trials < 0:
            raise ShapeError(
                f"refine_trials must be >= 0, got {refine_trials}"
            )
        self.lib = intensli if intensli is not None else InTensLi()
        if cache is None:
            cache = PlanCache(path=path, autosave=autosave)
        self.cache = cache
        self.refine = refine
        self.refine_trials = refine_trials
        self.refine_margin = refine_margin
        self.kernels = tuple(kernels)
        self._tuner = ExhaustiveTuner(min_seconds=min_seconds, min_repeats=1)
        # Route the wrapped instance's own plan() lookups through the
        # persistent cache too, so mixed use (session.ttm here, lib.plan
        # there) shares one source of truth.
        self.lib.attach_plan_cache(self.cache)

    # -- planning -------------------------------------------------------------

    def key_for(
        self,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype: str = "float64",
    ) -> PlanKey:
        return PlanKey.make(
            shape, mode, j, layout, self.lib.max_threads, dtype
        )

    def plan(
        self,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> TtmPlan:
        """The cached (or freshly estimated, then cached) plan."""
        return self.lib.plan(shape, mode, j, layout, dtype=dtype)

    def warm(self, signatures: Sequence[tuple]) -> int:
        """Pre-plan a batch of ``(shape, mode, j[, layout])`` signatures.

        Returns how many were *new* to the cache — the CLI's
        ``cache warm`` subcommand and deploy scripts call this so first
        requests never pay the estimator.
        """
        fresh = 0
        for signature in signatures:
            shape, mode, j, *rest = signature
            layout = rest[0] if rest else Layout.ROW_MAJOR
            key = self.key_for(shape, mode, j, layout)
            known = key in self.cache
            self.plan(shape, mode, j, layout)
            fresh += 0 if known else 1
        return fresh

    def save(self) -> None:
        self.cache.save()

    def __enter__(self) -> "AutotuneSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()

    # -- execution ------------------------------------------------------------

    def ttm(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        out: DenseTensor | None = None,
        transpose_u: bool = False,
    ) -> DenseTensor:
        """``Y = X x_mode U`` through the cache (and refinement, if on)."""
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        u = match_dtype(u, x.data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D, got {u.ndim}-D")
        if transpose_u:
            u = u.T
        dtype = dtype_name(x.data.dtype)
        key = self.key_for(x.shape, mode, u.shape[0], x.layout, dtype)
        plan = self.plan(x.shape, mode, u.shape[0], x.layout, dtype=dtype)
        if self.refine:
            plan = self._refine_step(key, plan, x, u)
        return self.lib.execute(plan, x, u, out=out)

    # -- online refinement -----------------------------------------------------

    def _measure(self, plan: TtmPlan, x: DenseTensor, u: np.ndarray) -> float:
        """Seconds for one candidate (overridable seam for tests)."""
        return self._tuner.time_plan(plan, x, u)

    def _refine_step(
        self, key: PlanKey, plan: TtmPlan, x: DenseTensor, u: np.ndarray
    ) -> TtmPlan:
        """Measure the incumbent + up to ``refine_trials`` alternates.

        Returns the plan the caller should execute — the promoted winner
        when a measurably faster configuration emerged, otherwise the
        incumbent.
        """
        tracer = active_tracer()
        if tracer.enabled:
            with tracer.span(
                "autotune-refine",
                key=key.encode(),
                trials=self.refine_trials,
            ) as span:
                plan = self._refine_impl(key, plan, x, u)
                span.set(chosen=plan.describe())
            return plan
        return self._refine_impl(key, plan, x, u)

    def _refine_impl(
        self, key: PlanKey, plan: TtmPlan, x: DenseTensor, u: np.ndarray
    ) -> TtmPlan:
        entry = self.cache.peek(key)
        if entry is None:  # plan() always seeds the entry; be defensive
            entry = self.cache.put(key, plan)
        if entry.seconds is None:
            seconds = self._measure(plan, x, u)
            self.cache.record_trial(key, plan, seconds)
        best_plan, best_seconds = entry.plan, entry.seconds
        for candidate in self._untried(key, entry):
            seconds = self._measure(candidate, x, u)
            self.cache.record_trial(key, candidate, seconds)
            if seconds < best_seconds * (1.0 - self.refine_margin):
                best_plan, best_seconds = candidate, seconds
        if best_plan is not entry.plan:
            entry = self.cache.promote(key, best_plan, best_seconds)
        return entry.plan

    def _untried(self, key: PlanKey, entry: CacheEntry) -> list[TtmPlan]:
        """The next alternates to measure for *key* (may be empty)."""
        candidates = enumerate_plans(
            key.shape,
            key.mode,
            key.j,
            key.layout,
            max_threads=key.threads,
            kernels=self.kernels,
            dtype=key.dtype,
        )
        fresh = [
            c for c in candidates if plan_digest(c) not in entry.trials
        ]
        return fresh[: self.refine_trials]
