"""Fused chain planning and execution: the whole-chain contract.

Three equivalence legs anchor everything: the fused executor, the legacy
step-at-a-time path, and the NumPy oracle must agree elementwise for any
chain, in any order, in either layout, at either float width.  On top of
that the suite pins the *resource* contract — at most two intermediate
allocations per chain, zero once the pool is warm — and the planner's
decisions via a golden fixture (regenerate with ``--regen-golden``).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import PlanCache, PlanKey
from repro.core import InTensLi
from repro.core.chain import (
    MAX_OPTIMAL_STEPS,
    ChainPlan,
    ChainStep,
    ScratchPool,
    chain_cost,
    chain_flops,
    chain_intermediate_bytes,
    execute_chain,
    greedy_order,
    optimal_order,
    plan_chain,
    ttm_chain,
)
from repro.core.explain import explain_chain
from repro.core.inttm import ttm_inplace
from repro.core.serialize import save_plans
from repro.perf import track_hot_path
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.util.errors import DtypeError, PlanError, ShapeError
from tests.helpers import ttm_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"
CHAIN_GOLDEN = GOLDEN_DIR / "chain_plans.json"

#: Chain signatures pinned by the golden fixture: (shape, ((mode, J), ...)).
GOLDEN_CHAINS = [
    ((40, 40, 40, 40), ((0, 8), (1, 8), (2, 8), (3, 8))),
    ((40, 40, 40, 40), ((0, 8), (1, 8), (2, 16), (3, 4))),
    ((40, 40, 40, 40), ((1, 8), (2, 8), (3, 8))),  # HOOI skip-one chain
    ((64, 48, 32), ((0, 16), (1, 16), (2, 16))),
    ((8, 8, 8), ((0, 32), (1, 32), (2, 32))),  # expanding chain (reconstruct)
    ((100, 100, 100), ((0, 10), (2, 10))),
    ((20, 20, 20, 20, 20), ((0, 4), (1, 4), (2, 4), (3, 4), (4, 4))),
]


def chain_key(shape, sig, layout) -> str:
    dims = "x".join(str(s) for s in shape)
    steps = ",".join(f"{m}:{j}" for m, j in sig)
    return f"{dims}|{steps}|{layout.name}"


def oracle_chain(x: np.ndarray, steps) -> np.ndarray:
    y = x
    for step in steps:
        y = ttm_oracle(y, step.matrix, step.mode)
    return y


def make_steps(shape, sig, rng, dtype="float64"):
    return [
        ChainStep(mode, rng.standard_normal((j, shape[mode])).astype(dtype))
        for mode, j in sig
    ]


# -- equivalence ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
    data=st.data(),
)
def test_fuzz_fused_equals_stepwise_equals_oracle(shape, data):
    """Fused == legacy step-at-a-time == NumPy, everywhere it can differ.

    Random geometry, random subset of modes, random Js, both layouts,
    both float widths, every ordering policy plus a random explicit
    permutation — the chain planner must never change the numbers, only
    the cost of producing them.
    """
    shape = tuple(shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    dtype = data.draw(st.sampled_from(["float64", "float32"]))
    modes = data.draw(
        st.lists(
            st.integers(0, len(shape) - 1),
            min_size=1,
            max_size=len(shape),
            unique=True,
        )
    )
    sig = [(m, data.draw(st.integers(1, 6))) for m in modes]
    order = data.draw(
        st.sampled_from(["auto", "greedy", "optimal", "given", "perm"])
    )
    if order == "perm":
        order = data.draw(st.permutations(range(len(sig))))

    x = DenseTensor(rng.standard_normal(shape).astype(dtype), layout)
    steps = make_steps(shape, sig, rng, dtype)
    want = oracle_chain(x.data, steps)

    fused = ttm_chain(x, steps, order=order)
    stepwise = ttm_chain(x, steps, backend=ttm_inplace, order=order)

    tol = 1e-9 if dtype == "float64" else 1e-4
    scale = max(1.0, float(np.abs(want).max()))
    assert fused.data.dtype == np.dtype(dtype)
    assert stepwise.data.dtype == np.dtype(dtype)
    assert np.allclose(fused.data, want, atol=tol * scale)
    assert np.allclose(stepwise.data, want, atol=tol * scale)


def test_facade_chain_matches_oracle():
    rng = np.random.default_rng(7)
    lib = InTensLi(max_threads=1)
    x = DenseTensor(rng.standard_normal((9, 8, 7, 6)))
    steps = make_steps(x.shape, [(0, 3), (1, 4), (2, 2), (3, 5)], rng)
    got = lib.ttm_chain(x, steps, order="auto")
    assert np.allclose(got.data, oracle_chain(x.data, steps), atol=1e-9)


def test_facade_chain_transpose_matches_projection():
    """transpose=True applies each (I_n x J) matrix transposed (Tucker)."""
    rng = np.random.default_rng(8)
    lib = InTensLi(max_threads=1)
    x = DenseTensor(rng.standard_normal((8, 7, 6)))
    factors = [rng.standard_normal((x.shape[m], 3)) for m in range(3)]
    got = lib.ttm_chain(x, list(enumerate(factors)), transpose=True)
    want = oracle_chain(
        x.data, [ChainStep(m, f.T) for m, f in enumerate(factors)]
    )
    assert np.allclose(got.data, want, atol=1e-9)


# -- the resource contract -----------------------------------------------------


@pytest.mark.parametrize("n_steps", [3, 4, 5])
def test_chain_makes_at_most_two_intermediate_allocations(n_steps):
    """An N-step chain allocates <= 2 scratch buffers, 0 when warm."""
    rng = np.random.default_rng(0)
    shape = (6,) * n_steps
    sig = [(m, 4) for m in range(n_steps)]
    x = DenseTensor(rng.standard_normal(shape))
    steps = make_steps(shape, sig, rng)
    plan = plan_chain(shape, sig, order="auto")
    pool = ScratchPool()

    execute_chain(x, steps, plan, pool=pool)
    assert pool.allocations <= 2
    assert len(plan.scratch_elements) <= 2

    # A warm pool serves every intermediate without a single allocation.
    before = pool.allocations
    execute_chain(x, steps, plan, pool=pool)
    assert pool.allocations == before
    assert pool.reuses >= n_steps - 1


def test_scratch_pool_grows_monotonically_and_releases():
    pool = ScratchPool()
    small = pool.request(0, (4, 4), ROW_MAJOR, "float64")
    assert small.shape == (4, 4)
    assert pool.allocations == 1
    big = pool.request(0, (8, 8), ROW_MAJOR, "float64")
    assert big.shape == (8, 8)
    assert pool.allocations == 2  # had to grow
    again = pool.request(0, (3, 5), ROW_MAJOR, "float64")
    assert again.shape == (3, 5)
    assert pool.allocations == 2 and pool.reuses == 1
    assert pool.release() > 0 and pool.nbytes == 0


def test_scratch_views_are_copy_free_in_both_layouts():
    """Pool views alias the backing buffer (writes land in the buffer)."""
    pool = ScratchPool()
    for layout in (ROW_MAJOR, COL_MAJOR):
        view = pool.request(0, (3, 4, 5), layout, "float64")
        assert view.layout is layout
        assert not view.data.flags["OWNDATA"]


def test_out_receives_the_final_product():
    rng = np.random.default_rng(1)
    shape = (7, 6, 5)
    sig = [(0, 3), (1, 3), (2, 3)]
    x = DenseTensor(rng.standard_normal(shape))
    steps = make_steps(shape, sig, rng)
    out = DenseTensor.empty((3, 3, 3))
    result = ttm_chain(x, steps, out=out)
    assert result is out
    assert np.allclose(out.data, oracle_chain(x.data, steps), atol=1e-9)


def test_out_shape_and_dtype_are_validated():
    rng = np.random.default_rng(2)
    shape = (6, 5)
    x = DenseTensor(rng.standard_normal(shape))
    steps = make_steps(shape, [(0, 2), (1, 2)], rng)
    with pytest.raises(PlanError):
        ttm_chain(x, steps, out=DenseTensor.empty((9, 9)))
    with pytest.raises(DtypeError):
        ttm_chain(x, steps, out=DenseTensor.empty((2, 2), dtype="float32"))


def test_backend_path_rejects_fused_only_arguments():
    rng = np.random.default_rng(3)
    shape = (5, 4)
    x = DenseTensor(rng.standard_normal(shape))
    steps = make_steps(shape, [(0, 2)], rng)
    with pytest.raises(PlanError):
        ttm_chain(x, steps, backend=ttm_inplace,
                  out=DenseTensor.empty((2, 4)))
    with pytest.raises(PlanError):
        ttm_chain(x, steps, backend=ttm_inplace,
                  plan=plan_chain(shape, [(0, 2)]))


# -- dtype fidelity (the regression this PR fixes) -----------------------------


def test_float32_chain_stays_float32_on_both_paths():
    """The fused and legacy paths both preserve single precision.

    The pre-PR coercion materialized every step matrix in float64,
    silently upcasting float32 chains — exactly the upcast-and-copy bug
    the library exists to avoid.
    """
    rng = np.random.default_rng(4)
    shape = (6, 5, 4)
    x = DenseTensor(rng.standard_normal(shape).astype(np.float32))
    steps = make_steps(shape, [(0, 2), (1, 3), (2, 2)], rng, "float32")
    assert ttm_chain(x, steps).data.dtype == np.float32
    assert (
        ttm_chain(x, steps, backend=ttm_inplace).data.dtype == np.float32
    )


def test_mixed_float_widths_raise():
    rng = np.random.default_rng(5)
    shape = (6, 5)
    x = DenseTensor(rng.standard_normal(shape).astype(np.float32))
    steps = [
        ChainStep(0, rng.standard_normal((2, 6)).astype(np.float32)),
        ChainStep(1, rng.standard_normal((2, 5))),  # float64: mismatch
    ]
    with pytest.raises(DtypeError):
        ttm_chain(x, steps)


def test_integer_matrices_are_materialized_in_the_chain_dtype():
    x = DenseTensor(np.ones((4, 3), dtype=np.float32))
    y = ttm_chain(x, [(0, np.ones((2, 4), dtype=np.int64))])
    assert y.data.dtype == np.float32
    assert np.allclose(y.data, 4.0)


# -- ordering and cost models --------------------------------------------------


def test_optimal_order_refuses_oversized_chains():
    shape = (2,) * (MAX_OPTIMAL_STEPS + 1)
    steps = [
        ChainStep(m, np.zeros((2, 2))) for m in range(MAX_OPTIMAL_STEPS + 1)
    ]
    with pytest.raises(ValueError):
        optimal_order(shape, steps)
    # The entry points degrade to greedy instead of refusing.
    rng = np.random.default_rng(6)
    x = DenseTensor(rng.standard_normal(shape))
    live = make_steps(shape, [(m, 2) for m in range(len(shape))], rng)
    y = ttm_chain(x, live, order="auto")
    assert np.allclose(y.data, oracle_chain(x.data, live), atol=1e-9)


def test_auto_order_never_costs_more_than_given():
    rng = np.random.default_rng(9)
    shape = (30, 20, 10, 5)
    sig = [(0, 25), (1, 2), (2, 8), (3, 3)]
    steps = make_steps(shape, sig, rng)
    auto = optimal_order(shape, steps, cost="roofline")
    assert chain_cost(shape, steps, auto) <= chain_cost(shape, steps)
    flops_best = optimal_order(shape, steps)
    assert chain_flops(shape, steps, flops_best) <= chain_flops(shape, steps)


def test_chain_intermediate_bytes_tracks_order():
    shape = (10, 10)
    rng = np.random.default_rng(10)
    steps = make_steps(shape, [(0, 2), (1, 20)], rng)
    shrink_first, _ = chain_intermediate_bytes(shape, steps, (0, 1))
    grow_first, _ = chain_intermediate_bytes(shape, steps, (1, 0))
    assert shrink_first < grow_first


# -- ChainPlan validation ------------------------------------------------------


def test_chain_plan_validates_order_and_shape_chaining():
    plan = plan_chain((6, 5, 4), [(0, 2), (1, 3)])
    with pytest.raises(PlanError):
        ChainPlan(
            shape=plan.shape,
            layout=plan.layout,
            dtype=plan.dtype,
            order=(0, 0),  # not a permutation
            step_plans=plan.step_plans,
        )
    with pytest.raises(PlanError):
        ChainPlan(
            shape=plan.shape,
            layout=plan.layout,
            dtype=plan.dtype,
            order=plan.order,
            step_plans=tuple(reversed(plan.step_plans)),  # broken chaining
        )


def test_chain_plan_describe_and_explain_render():
    plan = plan_chain((12, 10, 8), [(0, 4), (1, 4), (2, 4)], order="auto")
    assert "ChainPlan[" in plan.describe()
    text = explain_chain(plan)
    assert "order:" in text and "scratch:" in text
    assert "per-step plans" in text


def test_facade_chain_plans_are_cached_per_signature():
    lib = InTensLi(max_threads=1)
    before = lib.cached_chain_plans
    a = lib.plan_chain((10, 9, 8), [(0, 2), (1, 2)])
    again = lib.plan_chain((10, 9, 8), [(0, 2), (1, 2)])
    assert a is again
    assert lib.cached_chain_plans == before + 1
    lib.plan_chain((10, 9, 8), [(0, 2), (2, 2)])  # different signature
    assert lib.cached_chain_plans == before + 2


# -- golden chain-plan fixtures ------------------------------------------------


def chain_decision(plan: ChainPlan) -> dict:
    return {
        "order": list(plan.order),
        "out_shape": list(plan.out_shape),
        "scratch_elements": list(plan.scratch_elements),
        "total_flops": plan.total_flops,
        "peak_intermediate_bytes": plan.peak_intermediate_bytes,
        "step_kernels": [p.kernel for p in plan.step_plans],
        "step_degrees": [p.degree for p in plan.step_plans],
    }


def compute_chain_decisions() -> dict[str, dict]:
    """Deterministic: geometry-only planning, no measurement involved."""
    decisions: dict[str, dict] = {}
    for layout in (ROW_MAJOR, COL_MAJOR):
        for shape, sig in GOLDEN_CHAINS:
            plan = plan_chain(shape, sig, layout, order="auto")
            decisions[chain_key(shape, sig, layout)] = chain_decision(plan)
    return decisions


def test_golden_chain_plans_match_fixture(request):
    decisions = compute_chain_decisions()
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        CHAIN_GOLDEN.write_text(
            json.dumps(decisions, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {CHAIN_GOLDEN}")
    assert CHAIN_GOLDEN.exists(), (
        f"golden fixture {CHAIN_GOLDEN} is missing; generate it with "
        f"`python -m pytest {__file__} --regen-golden` and commit it"
    )
    golden = json.loads(CHAIN_GOLDEN.read_text())
    diffs: list[str] = []
    for key in sorted(set(golden) | set(decisions)):
        if golden.get(key) != decisions.get(key):
            diffs.append(
                f"{key}: {golden.get(key)!r} -> {decisions.get(key)!r}"
            )
    if diffs:
        detail = "\n  ".join(diffs)
        pytest.fail(
            f"{len(diffs)} chain-plan decision(s) drifted from "
            f"{CHAIN_GOLDEN.name}:\n  {detail}\n"
            "If intentional, regenerate with `python -m pytest "
            "tests/test_chain_plan.py --regen-golden` and commit the diff."
        )


def test_golden_chain_fixture_is_executable():
    """Each pinned chain still plans and runs against the oracle."""
    rng = np.random.default_rng(11)
    shape, sig = GOLDEN_CHAINS[4]  # the expanding (reconstruct) chain
    x = DenseTensor(rng.standard_normal(shape))
    steps = make_steps(shape, sig, rng)
    y = ttm_chain(x, steps, order="auto")
    assert np.allclose(y.data, oracle_chain(x.data, steps), atol=1e-9)


# -- cached chain plans follow the one plan cache ------------------------------


STALE_SHAPE, STALE_SIG = (12, 10, 8), [(0, 4), (1, 3)]


def _pin_by_load(lib, plan, tmp_path):
    path = str(tmp_path / "pinned.json")
    save_plans([plan], path)
    lib.load_plan_cache(path)


def _pin_by_attach(lib, plan, tmp_path):
    cache = PlanCache.in_memory()
    cache.keep(plan, lib.max_threads, source="tuned")
    lib.attach_plan_cache(cache)


def _pin_by_promote(lib, plan, tmp_path):
    key = PlanKey.make(
        plan.shape, plan.mode, plan.j, plan.layout, lib.max_threads, plan.dtype
    )
    lib.plan_cache.promote(key, plan, 1e-3)


def _pin_by_keep(lib, plan, tmp_path):
    lib.plan_cache.keep(plan, lib.max_threads, source="tuned")


@pytest.mark.parametrize(
    "pin",
    [_pin_by_load, _pin_by_attach, _pin_by_promote, _pin_by_keep],
    ids=["load_plan_cache", "attach_plan_cache", "promote", "keep"],
)
def test_facade_chain_plans_follow_a_pinned_step_plan(pin, tmp_path):
    """A pin replaces a step plan for the chain as it does for plan()."""
    rng = np.random.default_rng(12)
    lib = InTensLi(max_threads=1)
    stale = lib.plan_chain(STALE_SHAPE, STALE_SIG)
    first = stale.step_plans[0]
    assert first.kernel == "blas"
    blocked = replace(first, kernel="blocked")

    pin(lib, blocked, tmp_path)

    assert lib.plan(first.shape, first.mode, first.j) == blocked
    fresh = lib.plan_chain(STALE_SHAPE, STALE_SIG)
    assert fresh is not stale
    assert fresh.step_plans[0] == blocked
    assert lib.plan_chain(STALE_SHAPE, STALE_SIG) is fresh
    x = DenseTensor(rng.standard_normal(STALE_SHAPE))
    steps = make_steps(STALE_SHAPE, STALE_SIG, rng)
    y = lib.ttm_chain(x, steps)
    assert np.allclose(y.data, oracle_chain(x.data, steps), atol=1e-9)


def test_estimator_misses_keep_cached_chain_plans():
    """Planning new signatures only fills misses: no chain plan drops."""
    lib = InTensLi(max_threads=1)
    a = lib.plan_chain(STALE_SHAPE, STALE_SIG)
    lib.plan((30, 20, 10), 2, 5)
    lib.plan_chain((9, 8, 7), [(0, 2), (2, 3)])
    assert lib.plan_chain(STALE_SHAPE, STALE_SIG) is a
    assert lib.cached_chain_plans == 2


# -- both entry points reject a bad chain alike, before any product ------------


BAD_X_SHAPE = (6, 7, 8)

#: name -> (steps on BAD_X_SHAPE, exception type, exact message).  Every
#: chain has one defect, on the step executed second under order="given".
BAD_CHAINS = {
    "late-width": (
        [(0, np.ones((2, 6))), (1, np.ones((2, 9)))],
        ShapeError,
        "chain step at mode 1 has matrix shape (2, 9), expected (J, 7)",
    ),
    "1-d": (
        [(0, np.ones((2, 6))), (1, np.ones(7))],
        ShapeError,
        "chain step at mode 1 has matrix shape (7,), expected (J, 7)",
    ),
    "float32": (
        [(0, np.ones((2, 6))), (1, np.ones((2, 7), dtype=np.float32))],
        DtypeError,
        "the matrix of chain step at mode 1 has dtype float32 but x is "
        "float64; cast the matrix of chain step at mode 1 explicitly — "
        "mixing float widths would silently change the result's precision",
    ),
    "complex": (
        [(0, np.ones((2, 6))), (1, np.ones((2, 7), dtype=np.complex128))],
        DtypeError,
        "the matrix of chain step at mode 1 is complex (complex128); TTM "
        "operands must be real — casting would drop the imaginary part",
    ),
    "duplicate-mode": (
        [(0, np.ones((2, 6))), (0, np.ones((2, 6)))],
        ShapeError,
        "mode 0 appears twice in the chain; fold repeated products into "
        "one matrix first",
    ),
    "mode-out-of-range": (
        [(0, np.ones((2, 6))), (3, np.ones((2, 5)))],
        ShapeError,
        "mode 3 out of range for order-3 tensor",
    ),
    "j-zero": (
        [(0, np.ones((2, 6))), (1, np.ones((0, 7)))],
        ValueError,
        "j must be >= 1, got 0",
    ),
}

CHAIN_ENTRY_POINTS = {
    "ttm_chain": lambda x, steps, out: ttm_chain(
        x, steps, order="given", out=out
    ),
    "InTensLi.ttm_chain": lambda x, steps, out: InTensLi(
        max_threads=1
    ).ttm_chain(x, steps, order="given", out=out),
}


@pytest.mark.parametrize("entry", sorted(CHAIN_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_CHAINS))
def test_chain_entry_points_reject_a_bad_chain_alike(entry, case):
    """Same type, same message, nothing dispatched, out= untouched."""
    steps, error, message = BAD_CHAINS[case]
    x = DenseTensor(np.ones(BAD_X_SHAPE))
    out = DenseTensor(np.full((2, 2, 8), 7.0))
    with track_hot_path() as counters:
        with pytest.raises(error) as info:
            CHAIN_ENTRY_POINTS[entry](x, steps, out)
    assert type(info.value) is error
    assert str(info.value) == message
    assert counters.dispatches == 0
    assert np.all(out.data == 7.0)
