"""Tests for TTM chain planning and execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import (
    ChainPlan,
    ChainStep,
    chain_flops,
    greedy_order,
    optimal_order,
    ttm_chain,
)
from repro.core.inttm import ttm_inplace
from repro.tensor.dense import DenseTensor
from repro.util.errors import ShapeError
from tests.helpers import ttm_oracle


def make_steps(shape, js, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ChainStep(mode, rng.standard_normal((j, shape[mode])))
        for mode, j in enumerate(js)
        if j is not None
    ]


class TestChainFlops:
    def test_single_step(self):
        steps = make_steps((10, 20), (4, None))
        assert chain_flops((10, 20), steps) == 2 * 4 * 200

    def test_sequential_shrinking(self):
        steps = make_steps((10, 20), (4, 5))
        # Step 0 first: 2*4*200 + 2*5*(4*20) = 1600 + 800.
        assert chain_flops((10, 20), steps, (0, 1)) == 1600 + 800
        # Step 1 first: 2*5*200 + 2*4*(10*5) = 2000 + 400.
        assert chain_flops((10, 20), steps, (1, 0)) == 2000 + 400

    def test_duplicate_mode_rejected(self):
        steps = [
            ChainStep(0, np.zeros((2, 5))),
            ChainStep(0, np.zeros((2, 5))),
        ]
        with pytest.raises(ShapeError):
            chain_flops((5, 5), steps)

    def test_matrix_shape_validated(self):
        with pytest.raises(ShapeError):
            chain_flops((5, 5), [ChainStep(0, np.zeros((2, 4)))])


class TestOrdering:
    def test_greedy_prefers_larger_reduction(self):
        shape = (100, 100)
        steps = make_steps(shape, (50, 2))  # ratios 2 and 50
        assert greedy_order(shape, steps) == (1, 0)

    def test_greedy_matches_optimal_on_tucker_chains(self):
        """For uniform-J Tucker projections the greedy order is optimal."""
        shape = (12, 30, 8, 20)
        steps = make_steps(shape, (4, 4, 4, 4))
        greedy = greedy_order(shape, steps)
        best = optimal_order(shape, steps)
        assert chain_flops(shape, steps, greedy) == chain_flops(
            shape, steps, best
        )

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 20), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_property_greedy_close_to_optimal(self, shape, data):
        js = [data.draw(st.integers(1, s)) for s in shape]
        steps = make_steps(tuple(shape), tuple(js))
        greedy_cost = chain_flops(shape, steps, greedy_order(shape, steps))
        best_cost = chain_flops(shape, steps, optimal_order(shape, steps))
        # Greedy-by-ratio is optimal for this cost structure (each step's
        # multiplier is independent of position); assert it exactly.
        assert greedy_cost == best_cost

    def test_optimal_never_worse_than_given(self):
        shape = (16, 4, 32)
        steps = make_steps(shape, (2, 2, 2))
        best = chain_flops(shape, steps, optimal_order(shape, steps))
        assert best <= chain_flops(shape, steps)


class TestExecution:
    def oracle_chain(self, x, steps):
        y = x
        for step in steps:
            y = ttm_oracle(y, step.matrix, step.mode)
        return y

    @pytest.mark.parametrize("order", ["greedy", "given", "optimal"])
    def test_all_orders_agree_with_oracle(self, order):
        rng = np.random.default_rng(1)
        shape = (6, 7, 8)
        x = DenseTensor(rng.standard_normal(shape))
        steps = make_steps(shape, (2, 3, 4), seed=2)
        y = ttm_chain(x, steps, backend=ttm_inplace, order=order)
        assert np.allclose(y.data, self.oracle_chain(x.data, steps))

    def test_accepts_plain_tuples(self):
        rng = np.random.default_rng(3)
        x = DenseTensor(rng.standard_normal((5, 6)))
        u = rng.standard_normal((2, 5))
        y = ttm_chain(x, [(0, u)], backend=ttm_inplace)
        assert np.allclose(y.data, ttm_oracle(x.data, u, 0))

    def test_explicit_order_sequence(self):
        rng = np.random.default_rng(4)
        shape = (5, 6, 7)
        x = DenseTensor(rng.standard_normal(shape))
        steps = make_steps(shape, (2, 2, 2), seed=5)
        y = ttm_chain(x, steps, backend=ttm_inplace, order=[2, 0, 1])
        assert np.allclose(y.data, self.oracle_chain(x.data, steps))

    def test_bad_explicit_order_rejected(self):
        x = DenseTensor.zeros((5, 6))
        steps = make_steps((5, 6), (2, 2))
        with pytest.raises(ShapeError):
            ttm_chain(x, steps, backend=ttm_inplace, order=[0, 0])

    def test_empty_chain_returns_input(self):
        x = DenseTensor.zeros((3, 3))
        y = ttm_chain(x, [], backend=ttm_inplace)
        assert y is x

    def test_default_backend_is_intensli(self):
        rng = np.random.default_rng(6)
        x = DenseTensor(rng.standard_normal((6, 7, 8)))
        steps = make_steps((6, 7, 8), (2, None, 3), seed=7)
        y = ttm_chain(x, steps)
        assert np.allclose(y.data, self.oracle_chain(x.data, steps))

    @pytest.mark.parametrize("order", ["greedy", [1, 0]])
    def test_repeated_fused_chain_plans_once(self, order, monkeypatch):
        """The standalone fused path memoizes its chain plan: a second
        identical call builds no new ChainPlan."""
        built = []
        post_init = ChainPlan.__post_init__

        def counting(plan):
            built.append(plan)
            post_init(plan)

        monkeypatch.setattr(ChainPlan, "__post_init__", counting)
        rng = np.random.default_rng(8)
        shape = (9, 7, 5)
        x = DenseTensor(rng.standard_normal(shape))
        steps = make_steps(shape, (4, None, 3), seed=9)
        first = ttm_chain(x, steps, order=order)
        n_built = len(built)
        second = ttm_chain(x, steps, order=order)
        assert len(built) == n_built
        assert np.array_equal(first.data, second.data)
        assert np.allclose(second.data, self.oracle_chain(x.data, steps))


class TestModeCommutativity:
    """Mode-n products along distinct modes commute — the property that
    makes chain reordering legal at all."""

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_property_two_products_commute(self, shape, data):
        ndim = len(shape)
        m1 = data.draw(st.integers(0, ndim - 1))
        m2 = data.draw(st.integers(0, ndim - 1).filter(lambda m: m != m1))
        rng = np.random.default_rng(8)
        x = DenseTensor(rng.standard_normal(shape))
        u1 = rng.standard_normal((2, shape[m1]))
        u2 = rng.standard_normal((3, shape[m2]))
        a = ttm_inplace(ttm_inplace(x, u1, m1), u2, m2)
        b = ttm_inplace(ttm_inplace(x, u2, m2), u1, m1)
        assert np.allclose(a.data, b.data)
