"""Tests for semi-sparse TTM and memory-efficient sparse Tucker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp import hooi, hosvd
from repro.sparse import (
    SparseTensor,
    hooi_sparse,
    hosvd_sparse,
    random_sparse,
    ttm_semisparse,
    ttm_sparse,
)
from repro.sparse.tucker import project_all_but
from repro.util.errors import ShapeError
from tests.helpers import ttm_oracle


class TestTtmSemisparse:
    def setup_semi(self, shape=(5, 6, 7), density=0.2, mode=1, j=3, seed=0):
        x = random_sparse(shape, density, seed=seed)
        u = np.random.default_rng(seed + 1).standard_normal((j, shape[mode]))
        return x, ttm_sparse(x, u, mode), u

    @pytest.mark.parametrize("second_mode", [0, 2])
    def test_product_on_sparse_mode_matches_oracle(self, second_mode):
        x, semi, _u1 = self.setup_semi()
        rng = np.random.default_rng(2)
        u2 = rng.standard_normal((2, semi.shape[second_mode]))
        result = ttm_semisparse(semi, u2, second_mode)
        expect = ttm_oracle(semi.to_dense().data, u2, second_mode)
        assert np.allclose(result.to_dense().data, expect)
        assert result.dense_mode == semi.dense_mode

    def test_product_on_dense_mode_matches_oracle(self):
        _x, semi, _u1 = self.setup_semi(mode=1, j=4)
        rng = np.random.default_rng(3)
        u2 = rng.standard_normal((2, 4))
        result = ttm_semisparse(semi, u2, 1)
        expect = ttm_oracle(semi.to_dense().data, u2, 1)
        assert np.allclose(result.to_dense().data, expect)
        # Fibers unchanged when transforming the dense mode.
        assert result.n_fibers == semi.n_fibers

    def test_chain_over_all_modes_matches_dense_chain(self):
        shape = (4, 5, 6)
        x = random_sparse(shape, 0.3, seed=4)
        rng = np.random.default_rng(5)
        us = [rng.standard_normal((2, s)) for s in shape]
        semi = ttm_sparse(x, us[0], 0)
        semi = ttm_semisparse(semi, us[1], 1)
        semi = ttm_semisparse(semi, us[2], 2)
        expect = x.to_dense().data
        for mode, u in enumerate(us):
            expect = ttm_oracle(expect, u, mode)
        assert np.allclose(semi.to_dense().data, expect)

    def test_order2_semisparse(self):
        x = random_sparse((6, 5), 0.4, seed=6)
        u1 = np.random.default_rng(7).standard_normal((3, 6))
        semi = ttm_sparse(x, u1, 0)
        u2 = np.random.default_rng(8).standard_normal((2, 5))
        result = ttm_semisparse(semi, u2, 1)
        expect = ttm_oracle(ttm_oracle(x.to_dense().data, u1, 0), u2, 1)
        assert np.allclose(result.to_dense().data, expect)

    def test_empty_semisparse(self):
        x = SparseTensor.empty((4, 5, 6))
        semi = ttm_sparse(x, np.ones((2, 5)), 1)
        result = ttm_semisparse(semi, np.ones((3, 4)), 0)
        assert result.n_fibers == 0
        assert np.all(result.to_dense().data == 0.0)

    def test_validation(self):
        _x, semi, _u = self.setup_semi()
        with pytest.raises(TypeError):
            ttm_semisparse(np.zeros((2, 2)), np.ones((2, 2)), 0)
        with pytest.raises(ShapeError):
            ttm_semisparse(semi, np.ones((2, 99)), 0)

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_property_semisparse_chain_matches_oracle(self, shape, data):
        first = data.draw(st.integers(0, len(shape) - 1))
        second = data.draw(
            st.integers(0, len(shape) - 1).filter(lambda m: m != first)
        )
        x = random_sparse(shape, 0.3, seed=9)
        rng = np.random.default_rng(10)
        u1 = rng.standard_normal((2, shape[first]))
        u2 = rng.standard_normal((3, shape[second]))
        semi = ttm_semisparse(ttm_sparse(x, u1, first), u2, second)
        expect = ttm_oracle(
            ttm_oracle(x.to_dense().data, u1, first), u2, second
        )
        assert np.allclose(semi.to_dense().data, expect)


class TestProjectAllBut:
    def test_matches_dense_projection(self):
        shape = (5, 6, 7)
        x = random_sparse(shape, 0.25, seed=11)
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((s, 2)) for s in shape]
        got = project_all_but(x, factors, skip=1)
        expect = x.to_dense().data
        for mode in (0, 2):
            expect = ttm_oracle(expect, factors[mode].T, mode)
        assert np.allclose(got.data, expect)

    def test_skip_none_projects_everything(self):
        shape = (4, 5, 6)
        x = random_sparse(shape, 0.25, seed=13)
        rng = np.random.default_rng(14)
        factors = [rng.standard_normal((s, 2)) for s in shape]
        got = project_all_but(x, factors, skip=None)
        assert got.shape == (2, 2, 2)


def sparse_low_rank(shape, ranks, density=0.15, seed=0):
    """A sparse tensor that *is* exactly low rank after sparsification is
    impossible in general; instead build a dense low-rank tensor and keep
    it fully (density=1) or threshold it for approximate tests."""
    from repro.tensor.generate import low_rank_tensor

    dense = low_rank_tensor(shape, ranks, seed=seed)
    return SparseTensor.from_dense(dense), dense


class TestSparseTucker:
    def test_hosvd_sparse_matches_dense_hosvd(self):
        shape, ranks = (7, 6, 5), (2, 2, 2)
        x_sp, x_dense = sparse_low_rank(shape, ranks, seed=15)
        sparse_result = hosvd_sparse(x_sp, ranks)
        dense_result = hosvd(x_dense, ranks)
        assert sparse_result.fit == pytest.approx(dense_result.fit, abs=1e-8)
        assert np.allclose(
            np.abs(sparse_result.core.data),
            np.abs(dense_result.core.data),
            atol=1e-7,
        )

    def test_hosvd_recovers_planted_rank(self):
        shape, ranks = (8, 7, 6), (2, 3, 2)
        x_sp, _ = sparse_low_rank(shape, ranks, seed=16)
        result = hosvd_sparse(x_sp, ranks)
        assert result.fit == pytest.approx(1.0, abs=1e-6)

    def test_hooi_sparse_on_genuinely_sparse_input(self):
        x = random_sparse((10, 9, 8), 0.1, seed=17)
        sparse_result = hooi_sparse(x, (3, 3, 3), max_iterations=3,
                                    tolerance=0.0)
        # hooi_sparse starts from hosvd_sparse; give dense HOOI the same
        # start, so the check is that both run identical sweeps from it.
        dense = x.to_dense()
        dense_result = hooi(dense, (3, 3, 3), max_iterations=3,
                            tolerance=0.0, init=hosvd(dense, (3, 3, 3)))
        assert sparse_result.fit == pytest.approx(dense_result.fit, abs=1e-8)

    def test_hooi_fit_non_decreasing(self):
        x = random_sparse((8, 8, 8), 0.15, seed=18)
        result = hooi_sparse(x, 2, max_iterations=5, tolerance=0.0)
        fits = result.fit_history
        assert all(b >= a - 1e-9 for a, b in zip(fits, fits[1:]))

    def test_integer_rank_broadcasts(self):
        x = random_sparse((6, 6, 6), 0.2, seed=19)
        result = hosvd_sparse(x, 2)
        assert result.core.shape == (2, 2, 2)

    def test_validation(self):
        x = random_sparse((4, 4), 0.5, seed=20)
        with pytest.raises(TypeError):
            hosvd_sparse(np.zeros((4, 4)), 2)
        with pytest.raises(ShapeError):
            hosvd_sparse(x, (2,))
        with pytest.raises(ShapeError):
            hooi_sparse(x, 2, max_iterations=0)

    def test_cp_als_sparse_matches_dense(self):
        from repro.decomp.cp import CpResult, cp_als, cp_reconstruct
        from repro.sparse import cp_als_sparse

        rng = np.random.default_rng(22)
        factors = [rng.standard_normal((s, 2)) for s in (8, 7, 6)]
        dense = cp_reconstruct(
            CpResult(weights=np.ones(2), factors=factors, fit=1.0)
        )
        sparse = SparseTensor.from_dense(dense)
        a = cp_als_sparse(sparse, 2, max_iterations=20, tolerance=0.0)
        b = cp_als(dense, 2, max_iterations=20, tolerance=0.0)
        # Different MTTKRP accumulation orders: agreement to fp tolerance.
        assert a.fit == pytest.approx(b.fit, abs=1e-6)

    def test_cp_als_sparse_never_densifies(self):
        """The proxy hands cp_als only the sparse values for the norm; a
        genuinely sparse large-shape tensor must work without dense
        allocation (would be 10^9 elements here)."""
        from repro.sparse import cp_als_sparse

        x = random_sparse((1000, 1000, 1000), density=2e-7, seed=23)
        assert 0 < x.nnz < 500
        result = cp_als_sparse(x, 1, max_iterations=2, tolerance=0.0)
        assert len(result.factors) == 3
        assert result.factors[0].shape == (1000, 1)

    def test_cp_als_sparse_validation(self):
        from repro.sparse import cp_als_sparse

        with pytest.raises(TypeError):
            cp_als_sparse(np.zeros((3, 3)), 2)

    def test_order4_sparse_tucker(self):
        x = random_sparse((5, 4, 5, 4), 0.15, seed=21)
        result = hooi_sparse(x, 2, max_iterations=2, tolerance=0.0)
        x_dense = x.to_dense()
        dense = hooi(x_dense, 2, max_iterations=2, tolerance=0.0,
                     init=hosvd(x_dense, 2))
        assert result.fit == pytest.approx(dense.fit, abs=1e-8)
