"""Randomized end-to-end fuzzing: composite pipelines vs NumPy.

Each fuzz case builds a random pipeline of library operations (TTM along
random modes, unfold/fold round-trips, layout conversions, sparsify/
densify) and shadows every step with plain NumPy.  The pipelines cross
module boundaries the unit tests exercise separately, hunting for
interaction bugs (layout leaks, stale views, convention mismatches).
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.core.inttm import default_plan, ttm_inplace
from repro.obs import assert_spans_well_nested, tracing
from repro.sparse import SparseTensor
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.tensor.unfold import fold, unfold
from repro.testing import DTYPE_TOLERANCES
from repro.util.errors import PlanError
from tests.helpers import ttm_oracle


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    n_steps=st.integers(1, 5),
    data=st.data(),
)
def test_fuzz_ttm_pipelines(shape, n_steps, data):
    """A chain of random TTMs through random backends equals the oracle."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    x = DenseTensor(rng.standard_normal(shape), layout)
    shadow = x.data.copy()
    current = x
    for _ in range(n_steps):
        mode = data.draw(st.integers(0, current.order - 1))
        j = data.draw(st.integers(1, 5))
        u = rng.standard_normal((j, current.shape[mode]))
        backend = data.draw(
            st.sampled_from(["inplace", "copy", "facade"])
        )
        if backend == "inplace":
            current = ttm_inplace(current, u, mode)
        elif backend == "copy":
            current = repro.ttm_copy(current, u, mode)
        else:
            current = repro.ttm(current, u, mode)
        shadow = ttm_oracle(shadow, u, mode)
        assert current.shape == shadow.shape
    assert np.allclose(current.data, shadow, atol=1e-9 * max(1.0, np.abs(shadow).max()))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    data=st.data(),
)
def test_fuzz_dtype_and_degenerate_geometry(shape, data):
    """Random element types (incl. float16's blocked-kernel fallback) and
    zero-extent shapes preserve dtype and match the float64 oracle."""
    dtype = data.draw(st.sampled_from(["float64", "float32", "float16"]))
    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    mode = data.draw(st.integers(0, len(shape) - 1))
    j = data.draw(st.integers(1, 5))
    x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    y = ttm_inplace(x, u, mode)
    assert y.dtype == np.dtype(dtype)
    expect = ttm_oracle(x.data.astype(np.float64), u.astype(np.float64), mode)
    assert y.shape == expect.shape
    rtol, atol = DTYPE_TOLERANCES[dtype]
    scale = max(1.0, float(np.abs(expect).max())) if expect.size else 1.0
    assert np.allclose(
        y.data.astype(np.float64), expect, rtol=rtol, atol=atol * scale
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    data=st.data(),
)
def test_fuzz_unfold_fold_layout_roundtrips(shape, data):
    """Random sequences of unfold/fold and layout flips preserve values."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    x = DenseTensor(rng.standard_normal(shape), layout)
    reference = x.data.copy()
    current = x
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["roundtrip", "relayout", "copy"]))
        if op == "roundtrip":
            mode = data.draw(st.integers(0, current.order - 1))
            current = fold(
                unfold(current, mode), mode, current.shape, current.layout
            )
        elif op == "relayout":
            target = (
                COL_MAJOR if current.layout is ROW_MAJOR else ROW_MAJOR
            )
            current = current.with_layout(target)
        else:
            current = current.copy()
    assert np.allclose(current.data, reference)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    data=st.data(),
)
def test_fuzz_sparse_dense_ttm_agree(shape, data):
    """Sparsify -> sparse TTM -> densify equals dense TTM on the same data."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    density = data.draw(st.floats(0.05, 0.6))
    dense = np.where(
        rng.random(shape) < density, rng.standard_normal(shape), 0.0
    )
    mode = data.draw(st.integers(0, len(shape) - 1))
    j = data.draw(st.integers(1, 4))
    u = rng.standard_normal((j, shape[mode]))
    from repro.sparse import ttm_sparse

    sparse_result = ttm_sparse(SparseTensor.from_dense(dense), u, mode)
    dense_result = ttm_inplace(DenseTensor(dense), u, mode)
    assert np.allclose(sparse_result.to_dense().data, dense_result.data)


def _draw_batched_plan(shape, data):
    """A random legal plan with a randomized degree and batch run.

    Draws the degree from the plan space and then retargets the batch to
    a random suffix of the loop modes; combinations the plan validator
    rejects (non-consecutive or unstackable runs) are discarded via
    ``assume`` so Hypothesis keeps exploring the legal space.
    """
    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    mode = data.draw(st.integers(0, len(shape) - 1))
    j = data.draw(st.integers(1, 5))
    base = default_plan(shape, mode, j, layout, batched=True)
    max_degree = max(base.degree, 1)
    degree = data.draw(st.integers(1, max_degree)) if base.degree else None
    plan = default_plan(shape, mode, j, layout, degree=degree, batched=True)
    batch_len = data.draw(st.integers(0, len(plan.loop_modes)))
    batch = tuple(sorted(plan.loop_modes[len(plan.loop_modes) - batch_len:]))
    if batch != plan.batch_modes:
        try:
            plan = dataclasses.replace(plan, batch_modes=batch)
        except PlanError:
            assume(False)  # not a consecutive/stackable run: skip
    return plan


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    data=st.data(),
)
def test_fuzz_batched_plans_match_unbatched_and_oracle(shape, data):
    """Random batched plans = the per-iteration interpreter = equation 1."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    plan = _draw_batched_plan(shape, data)
    x = DenseTensor(rng.standard_normal(shape), plan.layout)
    u = rng.standard_normal((plan.j, shape[plan.mode]))

    batched = ttm_inplace(x, u, plan=plan)
    unbatched_plan = dataclasses.replace(plan, batch_modes=())
    unbatched = ttm_inplace(x, u, plan=unbatched_plan)
    expect = ttm_oracle(x.data, u, plan.mode)
    tol = 1e-9 * max(1.0, float(np.abs(expect).max()))
    assert np.allclose(batched.data, unbatched.data, atol=tol)
    assert np.allclose(batched.data, expect, atol=tol)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(2, 4), min_size=2, max_size=4),
    data=st.data(),
)
def test_fuzz_traced_execution_emits_well_nested_spans(shape, data):
    """Any random plan, traced, yields a clean span tree (no orphans or
    partial overlaps) containing one execute -> gemm-kernel chain."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    plan = _draw_batched_plan(shape, data)
    x = DenseTensor(rng.standard_normal(shape), plan.layout)
    u = rng.standard_normal((plan.j, shape[plan.mode]))
    threads = data.draw(st.sampled_from([1, 2]))
    plan = dataclasses.replace(plan, loop_threads=threads)

    with tracing() as tracer:
        y = ttm_inplace(x, u, plan=plan)
    assert y.shape == plan.out_shape
    spans = tracer.collector.spans()
    assert_spans_well_nested(spans)
    by_id = {s.span_id: s for s in spans}
    kernels = [s for s in spans if s.name == "gemm-kernel"]
    # One compiled call, one kernel span, directly under execute.
    assert len(kernels) == 1
    assert by_id[kernels[0].parent_id].name == "execute"
    # Nothing may leak outside the tracing block.
    from repro.obs import active_tracer, NULL_TRACER

    assert active_tracer() is NULL_TRACER


@settings(max_examples=25, deadline=None)
@given(
    shape=st.lists(st.integers(2, 4), min_size=2, max_size=4),
    data=st.data(),
)
def test_fuzz_views_never_alias_wrong_elements(shape, data):
    """Writing through a random merged view changes exactly the selected
    elements of the base tensor and nothing else."""
    from repro.tensor.views import merged_matrix_view

    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    x = DenseTensor.zeros(shape, layout)
    ndim = len(shape)
    mode = data.draw(st.integers(0, ndim - 1))
    # Natural-side merge for the layout.
    if layout is ROW_MAJOR:
        comp = tuple(range(mode + 1, ndim))
    else:
        comp = tuple(range(0, mode))
    if not comp:
        return
    loops = [m for m in range(ndim) if m != mode and m not in comp]
    fixed = {m: data.draw(st.integers(0, shape[m] - 1)) for m in loops}
    view = (
        merged_matrix_view(x, (mode,), comp, fixed)
        if layout is ROW_MAJOR
        else merged_matrix_view(x, comp, (mode,), fixed)
    )
    view[...] = 1.0
    touched = int(np.count_nonzero(x.data))
    assert touched == view.size
    # Every touched element carries the loop modes' fixed indices.
    nz = np.argwhere(x.data == 1.0)
    for m, idx in fixed.items():
        assert np.all(nz[:, m] == idx)
