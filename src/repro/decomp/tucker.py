"""Tucker decomposition: truncated HOSVD and HOOI (Tucker-ALS).

Both algorithms reduce to chains of TTMs — the workload that motivates
the paper.  The TTM implementation is injected (`ttm_backend`), so the
identical decomposition can run over the in-place framework, the
copy-based baseline, or any other conforming callable, making end-to-end
comparisons honest: only the TTM differs.

A backend is any callable ``backend(x: DenseTensor, u: ndarray, mode:
int) -> DenseTensor`` computing the mode-n product with ``u`` of shape
``(J, I_n)``.  A backend may additionally expose a ``ttm_chain(x,
steps, out=None, order=..., transpose=...)`` method (the
:class:`repro.core.InTensLi` facade does); when it does, the Tucker hot
paths hand it the *whole* projection chain so it can plan the chain as
a unit and reuse scratch buffers across steps, instead of allocating a
fresh intermediate per mode product.  Plain callables keep the exact
step-at-a-time behavior, which is what the end-to-end benchmark's
baseline backends want.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.resilience import recovery
from repro.resilience.faults import active_faults
from repro.tensor.dense import DenseTensor
from repro.tensor.unfold import unfold
from repro.util.errors import ShapeError

TtmBackend = Callable[[DenseTensor, np.ndarray, int], DenseTensor]


def _default_backend() -> TtmBackend:
    # The module-wide InTensLi instance: callable like a plain backend,
    # and chain-capable, so default decompositions run the fused path.
    from repro.core.intensli import default_intensli

    return default_intensli()


def _check_ranks(shape: Sequence[int], ranks: Sequence[int] | int) -> tuple[int, ...]:
    shape_t = tuple(int(s) for s in shape)
    if isinstance(ranks, int):
        ranks_t = tuple(min(ranks, s) for s in shape_t)
    else:
        ranks_t = tuple(int(r) for r in ranks)
        if len(ranks_t) != len(shape_t):
            raise ShapeError(
                f"ranks {ranks_t} do not match tensor order {len(shape_t)}"
            )
        if any(r < 1 or r > s for r, s in zip(ranks_t, shape_t)):
            raise ShapeError(
                f"ranks {ranks_t} out of range for shape {shape_t}"
            )
    return ranks_t


@dataclass
class TuckerResult:
    """Core tensor, factor matrices, and convergence history."""

    core: DenseTensor
    factors: list[np.ndarray]
    fit: float
    fit_history: list[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def compression(self) -> float:
        """Original elements over compressed elements (> 1 is smaller)."""
        original = math.prod(f.shape[0] for f in self.factors)
        compressed = self.core.size + sum(f.size for f in self.factors)
        return original / compressed


def _leading_left_singular_vectors(
    mat: np.ndarray,
    rank: int,
    method: str = "auto",
    oversample: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """The top-*rank* left singular basis of *mat*.

    Methods:

    * ``"gram"`` — eigenbasis of ``A A^T``; cheap when the row count is
      modest (the usual Tucker factor update), ~sqrt(eps) accuracy;
    * ``"randomized"`` — Halko-Martinsson-Tropp range finder with one
      power iteration; touches A only twice, the right choice when both
      dimensions are large;
    * ``"auto"`` — gram for small row counts, randomized otherwise.
    """
    rows, cols = mat.shape
    keep = min(rank, rows)
    if method == "auto":
        method = "gram" if rows <= 512 or cols <= rank + oversample else "randomized"
    if method == "gram":
        gram = mat @ mat.T
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1][:keep]
        return np.ascontiguousarray(eigvecs[:, order])
    if method == "randomized":
        rng = np.random.default_rng(seed)
        sketch = min(cols, keep + oversample)
        omega = rng.standard_normal((cols, sketch))
        y = mat @ omega
        # One power iteration sharpens the spectrum for slow decay.
        y = mat @ (mat.T @ y)
        q, _ = np.linalg.qr(y)
        b = q.T @ mat
        u_small, _s, _vt = np.linalg.svd(b, full_matrices=False)
        return np.ascontiguousarray((q @ u_small)[:, :keep])
    raise ShapeError(f"unknown SVD method {method!r}; use gram|randomized|auto")


def _project_all_but(
    x: DenseTensor,
    factors: Sequence[np.ndarray],
    skip: int | None,
    backend: TtmBackend,
) -> DenseTensor:
    """``X x_0 A0^T ... x_{N-1} A{N-1}^T`` skipping mode *skip*.

    The products commute across distinct modes, so the chain planner
    orders them by reduction ratio (shrink the tensor fastest first).
    """
    from repro.core.chain import ChainStep, ttm_chain

    # factor.T is a view; every backend accepts BLAS-legal transposed
    # operands, so no contiguous copy of the factors is needed.
    steps = [
        ChainStep(mode, factor.T)
        for mode, factor in enumerate(factors)
        if mode != skip
    ]
    if not steps:
        return x
    chain = getattr(backend, "ttm_chain", None)
    if chain is not None:
        # Chain-capable backend: one fused plan, ping-pong scratch reuse.
        return chain(x, steps, order="auto")
    return ttm_chain(x, steps, backend=backend, order="greedy")


def hosvd(
    x: DenseTensor,
    ranks: Sequence[int] | int,
    ttm_backend: TtmBackend | None = None,
    svd_method: str = "auto",
) -> TuckerResult:
    """Truncated higher-order SVD (the standard HOOI initializer).

    Factor *n* is the top-``R_n`` left singular vectors of the mode-n
    unfolding; the core is the full projection of X onto those bases.
    *svd_method* selects the factor solver (``auto``/``gram``/
    ``randomized``; see :func:`_leading_left_singular_vectors`).
    """
    backend = ttm_backend or _default_backend()
    ranks_t = _check_ranks(x.shape, ranks)
    factors = [
        _leading_left_singular_vectors(unfold(x, mode), rank,
                                       method=svd_method)
        for mode, rank in enumerate(ranks_t)
    ]
    core = _project_all_but(x, factors, skip=None, backend=backend)
    fit = tucker_fit(x, core, factors)
    return TuckerResult(core=core, factors=factors, fit=fit,
                        fit_history=[fit], iterations=0)


def _hooi_converged(history: Sequence[float], tolerance: float) -> bool:
    """Whether the last sweep improved the fit by less than *tolerance*.

    A pure function of the fit history so a resumed run replays the
    exact stopping decision an uninterrupted run would have made.
    """
    return len(history) >= 2 and history[-1] - history[-2] < tolerance


def _save_hooi_state(state_path: str, factors, core: DenseTensor,
                     history: Sequence[float]) -> int:
    """Durably publish one sweep's full state; returns the file's CRC."""
    part = recovery.partial_path(state_path)
    payload = {
        f"factor_{m}": np.ascontiguousarray(f)
        for m, f in enumerate(factors)
    }
    payload["core"] = np.ascontiguousarray(core.data)
    payload["fit_history"] = np.asarray(history, dtype=np.float64)
    with open(part, "wb") as fh:
        np.savez(fh, **payload)
    crc = recovery.file_checksum(part)
    recovery.publish_file(part, state_path)
    return crc


def hooi(
    x: DenseTensor,
    ranks: Sequence[int] | int,
    ttm_backend: TtmBackend | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
    init: TuckerResult | None = None,
    svd_method: str = "auto",
    checkpoint_path=None,
) -> TuckerResult:
    """Higher-order orthogonal iteration (TUCKER-HOOI, §2).

    Each sweep recomputes every factor from the projection of X onto all
    *other* factors — ``N * (N-1)`` mode-n products per sweep, exactly the
    TTM chain the paper's motivation describes.  Stops when the fit
    improves by less than *tolerance* or after *max_iterations* sweeps.

    *checkpoint_path* makes the iteration crash-resumable
    (:mod:`repro.resilience.recovery`): after every sweep the full state
    (factors, core, fit history) is durably published to
    ``<checkpoint_path>.state.npz`` and a checksummed sweep record
    appended to the journal.  A rerun with the same journal verifies the
    sidecar against its last commit, reloads it, and continues from the
    next sweep — bit-identically, since sweeps are deterministic and the
    stopping rule is a pure function of the replayed history.  A
    checkpoint for a different job (ranks, tolerance, tensor) raises
    :class:`~repro.util.errors.RecoveryError`.
    """
    backend = ttm_backend or _default_backend()
    ranks_t = _check_ranks(x.shape, ranks)
    if max_iterations < 1:
        raise ShapeError(f"max_iterations must be >= 1, got {max_iterations}")
    journal = None
    state_path = None
    factors = None
    core = None
    history: list[float] = []
    if checkpoint_path is not None:
        state_path = f"{checkpoint_path}.state.npz"
        decision = {
            "ranks": list(ranks_t),
            "max_iterations": int(max_iterations),
            "tolerance": float(tolerance),
            "svd_method": str(svd_method),
            "shape": list(x.shape),
            "dtype": x.data.dtype.name,
        }
        header = {
            "kind": "hooi",
            "digest": recovery.digest_payload(decision),
            "decision": decision,
            "inputs": {"x": recovery.fingerprint_tensor(x)},
            "state_path": state_path,
            "x_path": recovery.memmap_path(x),
            "ranks": list(ranks_t),
            "max_iterations": int(max_iterations),
            "tolerance": float(tolerance),
            "svd_method": str(svd_method),
        }
        journal, records = recovery.open_or_resume(checkpoint_path, header)
        committed = recovery.committed_units(records, "sweep", key="sweep")
        if committed and os.path.exists(state_path):
            last = max(committed)
            # The sidecar is trusted only if it matches its last commit
            # record byte-for-byte; anything else restarts from scratch.
            if (recovery.file_checksum(state_path)
                    == committed[last].get("crc")):
                with np.load(state_path) as state:
                    factors = [
                        np.ascontiguousarray(state[f"factor_{m}"])
                        for m in range(len(ranks_t))
                    ]
                    core = DenseTensor(
                        np.ascontiguousarray(state["core"]), x.layout
                    )
                    history = [float(f) for f in state["fit_history"]]
                counters = active_hot_counters()
                if counters is not None:
                    counters.add("tiles_resumed", len(history))
                    counters.add("tiles_reverified")
                tracer = active_tracer()
                if tracer.enabled:
                    with tracer.span("recover-resume", kind="hooi",
                                     sweeps=len(history),
                                     fit=history[-1] if history else None):
                        pass
    try:
        if factors is None:
            history = []
            state = init or hosvd(x, ranks_t, ttm_backend=backend,
                                  svd_method=svd_method)
            factors = [f.copy() for f in state.factors]
            core = state.core
        for sweep in range(len(history), max_iterations):
            if _hooi_converged(history, tolerance):
                break
            for mode, rank in enumerate(ranks_t):
                y = _project_all_but(x, factors, skip=mode, backend=backend)
                factors[mode] = _leading_left_singular_vectors(
                    unfold(y, mode), rank, method=svd_method
                )
            core = _project_all_but(x, factors, skip=None, backend=backend)
            fit = tucker_fit(x, core, factors)
            history.append(fit)
            if journal is not None:
                faults = active_faults()
                if faults is not None:
                    # Sweep computed, nothing checkpointed: the crash
                    # window that must cost exactly one recomputed sweep.
                    faults.check("crash", site="sweep-end", sweep=sweep)
                crc = _save_hooi_state(state_path, factors, core, history)
                journal.append({"type": "sweep", "sweep": sweep,
                                "fit": fit, "crc": crc})
    except BaseException:
        if journal is not None:
            journal.close()
        raise
    if journal is not None:
        journal.close({"type": "done", "sweeps": len(history)})
    return TuckerResult(
        core=core,
        factors=factors,
        fit=history[-1],
        fit_history=history,
        iterations=len(history),
    )


def tucker_reconstruct(
    core: DenseTensor,
    factors: Sequence[np.ndarray],
    ttm_backend: TtmBackend | None = None,
) -> DenseTensor:
    """Expand a Tucker (core, factors) pair back to the full tensor."""
    backend = ttm_backend or _default_backend()
    chain = getattr(backend, "ttm_chain", None)
    if chain is not None:
        steps = list(enumerate(factors))
        if not steps:
            return core
        return chain(core, steps, order="auto")
    y = core
    for mode, factor in enumerate(factors):
        # Factors are usually already contiguous (the SVD helpers return
        # them that way); copy only when a backend actually needs it.
        if not factor.flags["C_CONTIGUOUS"] and not factor.flags["F_CONTIGUOUS"]:
            factor = np.ascontiguousarray(factor)
        y = backend(y, factor, mode)
    return y


def tucker_fit(
    x: DenseTensor, core: DenseTensor, factors: Sequence[np.ndarray]
) -> float:
    """Relative fit ``1 - ||X - X_hat|| / ||X||``.

    With orthonormal factors ``||X_hat|| = ||core||``, so the residual
    norm follows from norms alone — no reconstruction needed.
    """
    x_norm = float(np.linalg.norm(x.data))
    if x_norm == 0.0:
        return 1.0
    core_norm = float(np.linalg.norm(core.data))
    residual_sq = max(0.0, x_norm**2 - core_norm**2)
    return 1.0 - math.sqrt(residual_sq) / x_norm
