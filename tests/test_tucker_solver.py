"""The Tucker factor solver: view Grams, warm subspace steps, rank checks."""

import numpy as np
import pytest

import repro.decomp.tucker as tucker
from repro.decomp import hooi, hosvd
from repro.decomp.tucker import _gram_basis, _mode_gram
from repro.perf import track_hot_path
from repro.sparse import SparseTensor, hooi_sparse, hosvd_sparse
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import low_rank_tensor
from repro.tensor.unfold import unfold
from repro.util.errors import ShapeError

#: The ``tucker`` benchmark workload's input: 64^3, rank 16, 5% noise.
SHAPE, RANK, NOISE = (64, 64, 64), 16, 0.05


def low_rank_plus_noise(rng, shape, rank, noise):
    """A rank-(R, R, R) Tucker tensor plus Gaussian noise of relative size
    *noise*, built exactly as the ``tucker`` workload builds it."""
    data = rng.standard_normal((rank,) * len(shape))
    for mode, extent in enumerate(shape):
        factor, _ = np.linalg.qr(rng.standard_normal((extent, rank)))
        data = np.moveaxis(np.tensordot(factor, data, axes=(1, mode)), 0, mode)
    scale = noise * np.linalg.norm(data) / np.sqrt(data.size)
    return np.ascontiguousarray(data + scale * rng.standard_normal(shape))


def _projector(basis):
    return basis @ basis.T


def _gapped_gram(n, rank, seed=0):
    """A PSD Gram with a wide gap after eigenvalue *rank*, and its
    dominant eigenvectors."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigvals = np.concatenate([np.linspace(10.0, 5.0, rank),
                              np.linspace(1e-3, 0.0, n - rank)])
    return (q * eigvals) @ q.T, q[:, :rank], q[:, rank:]


class TestViewGram:
    SHAPES = [
        (64, 64, 64),
        (1, 5, 7),
        (6, 1, 1),
        (0, 4, 5),
        (4, 0, 5),
        (3, 4, 0),
        (3, 4, 5, 6),
    ]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("layout", ["row", "col"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_unfold_gram(self, shape, layout, dtype):
        rng = np.random.default_rng(0)
        x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
        tol = 50 * np.finfo(dtype).eps
        for mode in range(len(shape)):
            mat = unfold(x, mode).astype(np.float64)
            expect = mat @ mat.T
            got = _mode_gram(x, mode)
            assert got.shape == expect.shape
            assert got.dtype == np.dtype(dtype)
            scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
            np.testing.assert_allclose(got, expect, rtol=0, atol=tol * scale)

    @pytest.mark.parametrize("layout", ["row", "col"])
    def test_end_modes_never_unfold(self, layout, monkeypatch):
        x = DenseTensor(np.random.default_rng(1).standard_normal((5, 6, 7)),
                        layout)
        calls = []
        real_unfold = tucker.unfold
        monkeypatch.setattr(
            tucker, "unfold",
            lambda t, mode: calls.append(mode) or real_unfold(t, mode),
        )
        for mode in range(3):
            _mode_gram(x, mode)
        assert calls == [1]


class TestWarmStep:
    def test_warm_projector_matches_eigh(self):
        n, rank = 40, 4
        gram, dominant, _rest = _gapped_gram(n, rank)
        rng = np.random.default_rng(1)
        start, _ = np.linalg.qr(dominant + 1e-6 * rng.standard_normal((n, rank)))
        with track_hot_path() as counters:
            warm = _gram_basis(gram, rank, previous=start)
        assert counters.factor_warm_solves == 1
        assert counters.factor_eigh_fallbacks == 0
        full = _gram_basis(gram, rank)
        assert np.allclose(warm.T @ warm, np.eye(rank), atol=1e-12)
        assert (np.linalg.norm(_projector(warm) - _projector(full))
                <= np.sqrt(np.finfo(np.float64).eps))

    def test_orthogonal_start_falls_back_to_eigh(self):
        n, rank = 40, 4
        gram, _dominant, rest = _gapped_gram(n, rank, seed=2)
        # An invariant subspace orthogonal to the dominant one: its Ritz
        # pairs have tiny residuals, so only the trace check rejects it.
        start = rest[:, :rank]
        with track_hot_path() as counters:
            got = _gram_basis(gram, rank, previous=start)
        assert counters.factor_warm_solves == 0
        assert counters.factor_eigh_fallbacks == 1
        full = _gram_basis(gram, rank)
        np.testing.assert_array_equal(got, full)

    def test_high_rank_always_takes_eigh(self):
        n, rank = 9, 5  # 2 * rank > n
        gram, dominant, _rest = _gapped_gram(n, rank, seed=3)
        with track_hot_path() as counters:
            got = _gram_basis(gram, rank, previous=dominant)
        assert counters.factor_solves == 1
        assert counters.factor_warm_solves == 0
        assert counters.factor_eigh_fallbacks == 0
        np.testing.assert_array_equal(got, _gram_basis(gram, rank))

    def test_gram_method_never_warm_starts(self):
        x = DenseTensor(low_rank_plus_noise(np.random.default_rng(4),
                                            (24, 24, 24), 4, NOISE))
        with track_hot_path() as counters:
            hooi(x, 4, max_iterations=2, tolerance=0.0, svd_method="gram")
        assert counters.factor_solves == 9
        assert counters.factor_warm_solves == 0


class TestAutoMatchesGram:
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_tucker_workload(self, seed):
        x = DenseTensor(low_rank_plus_noise(np.random.default_rng(seed),
                                            SHAPE, RANK, NOISE))
        with track_hot_path() as counters:
            auto = hooi(x, RANK, max_iterations=8, tolerance=1e-8)
        gram = hooi(x, RANK, max_iterations=8, tolerance=1e-8,
                    svd_method="gram")
        assert auto.iterations == gram.iterations == 2
        assert auto.fit == pytest.approx(gram.fit, abs=1e-10)
        # 3 HOSVD solves take the full eigh; 2 sweeps x 3 modes warm-start.
        assert counters.factor_solves == 9
        assert counters.factor_warm_solves == 6
        assert counters.factor_eigh_fallbacks == 0


_SOLVERS = {
    "hosvd": lambda x, ranks: hosvd(x, ranks),
    "hooi": lambda x, ranks: hooi(x, ranks, max_iterations=2),
    "hosvd_sparse": lambda x, ranks: hosvd_sparse(SparseTensor.from_dense(x),
                                                  ranks),
    "hooi_sparse": lambda x, ranks: hooi_sparse(SparseTensor.from_dense(x),
                                                ranks, max_iterations=2),
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
class TestRankValidation:
    x = low_rank_tensor((6, 5, 4), 2, seed=5)

    def test_numpy_integers_pass(self, solver):
        result = _SOLVERS[solver](self.x, np.int64(2))
        assert result.core.shape == (2, 2, 2)
        result = _SOLVERS[solver](self.x, (np.int32(2), 2, np.int64(1)))
        assert result.core.shape == (2, 2, 1)

    @pytest.mark.parametrize("ranks", [True, 2.5, (2, 2, 2.7), (2, False, 2)])
    def test_bools_and_floats_raise_type_error(self, solver, ranks):
        with pytest.raises(TypeError):
            _SOLVERS[solver](self.x, ranks)

    @pytest.mark.parametrize("ranks", [0, (2, 2), (2, 6, 2), (0, 2, 2)])
    def test_out_of_range_raises_shape_error(self, solver, ranks):
        with pytest.raises(ShapeError):
            _SOLVERS[solver](self.x, ranks)
