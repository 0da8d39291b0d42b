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
import operator
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


def _as_rank(rank, ranks) -> int:
    if isinstance(rank, (bool, np.bool_)):
        raise TypeError(f"Tucker ranks must be ints, got bool in {ranks!r}")
    try:
        return operator.index(rank)
    except TypeError:
        raise TypeError(
            f"Tucker ranks must be ints, got {type(rank).__name__} in {ranks!r}"
        ) from None


def _check_ranks(shape: Sequence[int], ranks: Sequence[int] | int) -> tuple[int, ...]:
    """Validate Tucker *ranks* for *shape*; returns one Python int per mode.

    One integer applies to every mode, clipped to each extent; a sequence
    names one rank per mode.  Ranks must be integers — NumPy integers pass
    via :func:`operator.index`; bools and floats raise :class:`TypeError`
    instead of being truncated — and lie in ``[1, I_n]``
    (:class:`ShapeError`).  Shared by the dense and sparse Tucker entry
    points.
    """
    shape_t = tuple(int(s) for s in shape)
    try:
        items = tuple(ranks)
    except TypeError:
        rank = _as_rank(ranks, ranks)
        if rank < 1:
            raise ShapeError(f"Tucker rank must be >= 1, got {rank}") from None
        return tuple(min(rank, s) for s in shape_t)
    ranks_t = tuple(_as_rank(r, ranks) for r in items)
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


#: Row count above which ``"auto"`` switches to the randomized solver.
_GRAM_MAX_ROWS = 512


def _check_svd_method(method: str) -> None:
    if method not in ("auto", "gram", "randomized"):
        raise ShapeError(
            f"unknown SVD method {method!r}; use gram|randomized|auto"
        )


def _use_randomized(method: str, rows: int, cols: int, rank: int,
                    oversample: int = 8) -> bool:
    """Whether *method* resolves to the randomized range finder."""
    _check_svd_method(method)
    return method == "randomized" or (
        method == "auto" and rows > _GRAM_MAX_ROWS and cols > rank + oversample
    )


def _leading_left_singular_vectors(
    mat: np.ndarray,
    rank: int,
    method: str = "auto",
    oversample: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """The top-*rank* left singular basis of *mat*.

    Methods:

    * ``"gram"`` — the exact reference: a full ``eigh`` of ``A A^T`` on
      every call; cheap when the row count is modest (the usual Tucker
      factor update), ~sqrt(eps) accuracy;
    * ``"randomized"`` — Halko-Martinsson-Tropp range finder with one
      power iteration; touches A only twice, the right choice when both
      dimensions are large;
    * ``"auto"`` — randomized when the row count exceeds 512 (and the
      column count the sketch), otherwise the Gram solver of
      :func:`_gram_basis`.

    The decompositions reach this solver through :func:`_mode_basis`,
    which builds the Gram of the first and last storage modes from a view
    of the tensor instead of an unfolded copy, and under ``"auto"``
    warm-starts :func:`_gram_basis` from the factor being replaced: one
    subspace step, kept only if every Ritz pair passes the residual check
    ``||G u - l u|| <= sqrt(eps) * l_max`` and the discarded trace
    certifies the subspace as dominant; a full ``eigh`` otherwise, and
    always when ``2 * rank`` exceeds the row count.
    """
    rows, cols = mat.shape
    if not _use_randomized(method, rows, cols, rank, oversample):
        return _gram_basis(mat @ mat.T, rank)
    keep = min(rank, rows)
    counters = active_hot_counters()
    if counters is not None:
        counters.add("factor_solves")
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


def _gram_basis(gram: np.ndarray, rank: int,
                previous: np.ndarray | None = None) -> np.ndarray:
    """The top-*rank* eigenbasis of the symmetric PSD *gram*, leading first.

    Without *previous*, or when ``2 * rank`` exceeds the row count (a
    subspace step then costs about as much as the full solve), this is a
    full ``eigh``.  Otherwise it takes one warm-started subspace step from
    *previous*: ``Q = qr(G @ previous)``, then Rayleigh-Ritz through a
    rank-by-rank ``eigh``.  The step is kept only if every Ritz pair
    satisfies ``||G u_i - l_i u_i|| <= sqrt(eps) * l_max`` for the Gram's
    dtype and the discarded trace is at most the smallest Ritz value (see
    :func:`_warm_subspace_step`); otherwise the full ``eigh`` runs after
    all.  Counts ``factor_solves``, ``factor_warm_solves`` and
    ``factor_eigh_fallbacks`` into the active hot counters.
    """
    rows = gram.shape[0]
    keep = min(rank, rows)
    counters = active_hot_counters()
    if counters is not None:
        counters.add("factor_solves")
    if (previous is not None and 1 <= keep and 2 * keep <= rows
            and previous.shape == (rows, keep)):
        basis = _warm_subspace_step(gram, previous)
        if counters is not None:
            counters.add("factor_warm_solves" if basis is not None
                         else "factor_eigh_fallbacks")
        if basis is not None:
            return basis
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1][:keep]
    return np.ascontiguousarray(eigvecs[:, order])


def _warm_subspace_step(gram: np.ndarray,
                        previous: np.ndarray) -> np.ndarray | None:
    """One subspace-iteration step plus Rayleigh-Ritz; None if unconverged.

    Two checks certify the result.  Every Ritz pair must have a small
    residual, so the basis spans an (almost) invariant subspace.  The
    residual alone accepts *any* invariant subspace, though, e.g. one
    spanned by a start orthogonal to the dominant eigenvectors; so the
    spectral mass the step leaves out, ``trace(G) - sum(ritz)``, must
    not exceed the smallest kept Ritz value.  The Gram is positive
    semidefinite, so then no discarded eigenvalue can outrank a kept one.
    """
    q, _ = np.linalg.qr(gram @ previous)
    gq = gram @ q
    ritz, w = np.linalg.eigh(q.T @ gq)
    ritz, w = ritz[::-1], w[:, ::-1]
    basis = q @ w
    residual = np.linalg.norm(gq @ w - basis * ritz, axis=0)
    bound = math.sqrt(np.finfo(gram.dtype).eps) * ritz[0]
    leftover = np.trace(gram) - ritz.sum()
    # ``not (...)`` also rejects NaNs and an all-zero Gram.
    if not (ritz[0] > 0 and np.all(residual <= bound)
            and leftover <= ritz[-1]):
        return None
    return np.ascontiguousarray(basis)


def _mode_gram(x: DenseTensor, mode: int) -> np.ndarray:
    """The Gram matrix ``X_(mode) X_(mode)^T``, read in place where possible.

    The Gram does not depend on the order of the unfolding's columns.  When
    *mode* is the first or last storage mode (axis 0 or axis N-1, in either
    layout), a reshape of the storage is a column permutation of
    ``X_(mode)`` and a view, so the product reads X without copying it.
    Middle modes keep the physical :func:`unfold`: a Gram over batched
    views measured slower there than the copy plus one GEMM.
    """
    data = np.asarray(x.data)
    extent = x.shape[mode]
    rest = math.prod(s for i, s in enumerate(x.shape) if i != mode)
    order = x.layout.numpy_order
    if mode == 0:
        mat = data.reshape((extent, rest), order=order)
        return mat @ mat.T
    if mode == x.order - 1:
        mat = data.reshape((rest, extent), order=order)
        return mat.T @ mat
    mat = unfold(x, mode)
    return mat @ mat.T


def _mode_basis(x: DenseTensor, mode: int, rank: int, method: str = "auto",
                previous: np.ndarray | None = None) -> np.ndarray:
    """The top-*rank* left singular basis of ``X_(mode)``.

    :func:`_leading_left_singular_vectors` on the mode-*mode* unfolding,
    except that the Gram solvers build the Gram with :func:`_mode_gram`;
    only the randomized solver unfolds X physically.
    """
    rows = x.shape[mode]
    cols = math.prod(s for i, s in enumerate(x.shape) if i != mode)
    if _use_randomized(method, rows, cols, rank):
        return _leading_left_singular_vectors(unfold(x, mode), rank,
                                              method="randomized")
    return _gram_basis(_mode_gram(x, mode), rank,
                       previous if method == "auto" else None)


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
    """Truncated higher-order SVD (the classic start, ``hooi(init=...)``).

    Factor *n* is the top-``R_n`` left singular vectors of the mode-n
    unfolding; the core is the full projection of X onto those bases.
    *svd_method* selects the factor solver (``auto``/``gram``/
    ``randomized``; see :func:`_leading_left_singular_vectors`).  With
    no previous factor to warm-start from, ``"auto"`` runs a full
    ``eigh`` of each mode's Gram, and builds the Gram of the first and
    last storage modes from a view of X rather than an unfolded copy.
    """
    backend = ttm_backend or _default_backend()
    ranks_t = _check_ranks(x.shape, ranks)
    factors = [
        _mode_basis(x, mode, rank, method=svd_method)
        for mode, rank in enumerate(ranks_t)
    ]
    core = _project_all_but(x, factors, skip=None, backend=backend)
    fit = tucker_fit(x, core, factors)
    return TuckerResult(core=core, factors=factors, fit=fit,
                        fit_history=[fit], iterations=0)


def _sequential_start(
    x: DenseTensor,
    ranks: Sequence[int],
    backend: TtmBackend,
    svd_method: str,
) -> tuple[list[np.ndarray], DenseTensor]:
    """Sequentially truncated HOSVD (Vannieuwenhoven, Vandebril and
    Meerbergen, 2012): HOOI's start, as ``(factors, core)``.

    Modes are visited in ascending ``R_n / I_n`` order, ties by mode index.
    Each factor is the top-``R_n`` basis of X already projected onto the
    factors before it, and the tensor is projected onto each new factor at
    once, so only the first Gram reads all of X and the last projection is
    the core.
    """
    factors: list[np.ndarray] = [None] * x.order
    y = x
    for mode in sorted(range(x.order),
                       key=lambda m: (ranks[m] / x.shape[m], m)):
        factors[mode] = _mode_basis(y, mode, ranks[mode], method=svd_method)
        y = backend(y, factors[mode].T, mode)
    return factors, y


def _hooi_converged(history: Sequence[float], tolerance: float) -> bool:
    """Whether the last sweep improved the fit by less than *tolerance*.

    A pure function of the fit history so a resumed run replays the
    exact stopping decision an uninterrupted run would have made.
    """
    return len(history) >= 2 and history[-1] - history[-2] < tolerance


def _hooi_state(factors, core: DenseTensor,
                history: Sequence[float]) -> dict[str, np.ndarray]:
    """One sweep's full state (factors, core, fit history) as ``.npz``
    members, row-major so a resumed run replays the same bits."""
    payload = {
        f"factor_{m}": np.ascontiguousarray(f)
        for m, f in enumerate(factors)
    }
    payload["core"] = np.ascontiguousarray(core.data)
    payload["fit_history"] = np.asarray(history, dtype=np.float64)
    return payload


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

    Without *init*, HOOI starts from a sequentially truncated HOSVD (see
    :func:`_sequential_start`): factors are found in ascending
    ``R_n / I_n`` order, each from X already projected onto the factors
    before it, so only the first Gram reads all of X.
    ``init=hosvd(x, ranks)`` starts from the classic truncated HOSVD
    instead.

    *svd_method* ``"auto"`` (the default) picks each factor's solver per
    call: a full ``eigh`` of the mode's Gram on the start and when
    ``2 * R_n > I_n``, and otherwise one subspace step warm-started from
    the factor it replaces, kept only if every Ritz pair passes the
    residual check ``||G u - l u|| <= sqrt(eps) * l_max`` and the trace
    the step discards is at most its smallest Ritz value (a full ``eigh``
    otherwise).  The Grams of the first and last storage modes are read
    from a view of the projected tensor, not an unfolded copy.
    ``"gram"`` runs a full ``eigh`` on every solve; ``"randomized"`` is
    the range finder (see :func:`_leading_left_singular_vectors`).
    ``||X||`` is computed once per call.

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
    _check_svd_method(svd_method)
    header = state_path = None
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
    with recovery._journaled(checkpoint_path, header, "sweep",
                             key="sweep") as run:
        committed = run.committed
        # The sidecar is trusted only if it matches its last commit
        # record byte-for-byte; anything else restarts from scratch.
        if committed and recovery._resume_sidecar(state_path, committed,
                                                  max(committed) + 1):
            with np.load(state_path) as state:
                factors = [
                    np.ascontiguousarray(state[f"factor_{m}"])
                    for m in range(len(ranks_t))
                ]
                core = DenseTensor(np.ascontiguousarray(state["core"]),
                                   x.layout)
                history = [float(f) for f in state["fit_history"]]
            tracer = active_tracer()
            if tracer.enabled:
                with tracer.span("recover-resume", kind="hooi",
                                 sweeps=len(history),
                                 fit=history[-1] if history else None):
                    pass
        else:
            history = []
            if init is None:
                factors, core = _sequential_start(x, ranks_t, backend,
                                                  svd_method)
            else:
                factors = [f.copy() for f in init.factors]
                core = init.core
        x_norm = float(np.linalg.norm(x.data))
        for sweep in range(len(history), max_iterations):
            if _hooi_converged(history, tolerance):
                break
            for mode, rank in enumerate(ranks_t):
                y = _project_all_but(x, factors, skip=mode, backend=backend)
                # The factor being replaced is the warm start; on a resumed
                # run it is the checkpointed factor, so the bits match.
                factors[mode] = _mode_basis(y, mode, rank, method=svd_method,
                                            previous=factors[mode])
            core = _project_all_but(x, factors, skip=None, backend=backend)
            fit = _fit_from_norms(x_norm, core)
            history.append(fit)
            if run.journal is not None:
                faults = active_faults()
                if faults is not None:
                    # Sweep computed, nothing checkpointed: the crash
                    # window that must cost exactly one recomputed sweep.
                    faults.check("crash", site="sweep-end", sweep=sweep)
                payload = _hooi_state(factors, core, history)
                crc = recovery._land_sidecar(
                    state_path, lambda fh: np.savez(fh, **payload),
                    run.journal,
                )
                run.journal.append({"type": "sweep", "sweep": sweep,
                                    "fit": fit, "crc": crc})
        run.final = {"type": "done", "sweeps": len(history)}
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
    return _fit_from_norms(float(np.linalg.norm(x.data)), core)


def _fit_from_norms(x_norm: float, core: DenseTensor) -> float:
    """:func:`tucker_fit` given ``||X||`` (computed once per decomposition)."""
    if x_norm == 0.0:
        return 1.0
    core_norm = float(np.linalg.norm(core.data))
    residual_sq = max(0.0, x_norm**2 - core_norm**2)
    return 1.0 - math.sqrt(residual_sq) / x_norm
