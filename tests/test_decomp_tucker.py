"""Tests for the Tucker decomposition (HOSVD / HOOI) over TTM backends."""

import numpy as np
import pytest

from repro.baselines import ttm_copy
from repro.core.inttm import ttm_inplace
from repro.decomp import TuckerResult, hooi, hosvd, tucker_reconstruct
from repro.decomp.tucker import tucker_fit
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import low_rank_tensor, random_tensor
from repro.util.errors import ShapeError


def inplace_backend(x, u, mode):
    return ttm_inplace(x, u, mode)


class TestHosvd:
    def test_exact_recovery_of_low_rank_tensor(self):
        ranks = (2, 3, 2)
        x = low_rank_tensor((8, 9, 7), ranks, seed=0)
        result = hosvd(x, ranks, ttm_backend=inplace_backend)
        assert result.fit == pytest.approx(1.0, abs=1e-6)
        recon = tucker_reconstruct(result.core, result.factors,
                                   ttm_backend=inplace_backend)
        assert np.allclose(recon.data, x.data, atol=1e-8)

    def test_core_shape_is_ranks(self):
        x = random_tensor((6, 7, 8), seed=1)
        result = hosvd(x, (2, 3, 4), ttm_backend=inplace_backend)
        assert result.core.shape == (2, 3, 4)
        assert result.ranks == (2, 3, 4)

    def test_factors_are_orthonormal(self):
        x = random_tensor((6, 7, 8), seed=2)
        result = hosvd(x, (3, 3, 3), ttm_backend=inplace_backend)
        for factor in result.factors:
            gram = factor.T @ factor
            assert np.allclose(gram, np.eye(factor.shape[1]), atol=1e-10)

    def test_integer_rank_broadcasts(self):
        x = random_tensor((6, 7, 8), seed=3)
        result = hosvd(x, 2, ttm_backend=inplace_backend)
        assert result.core.shape == (2, 2, 2)

    def test_rank_validation(self):
        x = random_tensor((4, 4), seed=4)
        with pytest.raises(ShapeError):
            hosvd(x, (2, 5), ttm_backend=inplace_backend)
        with pytest.raises(ShapeError):
            hosvd(x, (2,), ttm_backend=inplace_backend)


class TestHooi:
    def test_recovers_planted_structure(self):
        ranks = (2, 2, 2)
        x = low_rank_tensor((10, 9, 8), ranks, seed=5)
        result = hooi(x, ranks, ttm_backend=inplace_backend)
        assert result.fit == pytest.approx(1.0, abs=1e-6)

    def test_fit_never_decreases(self):
        x = random_tensor((8, 8, 8), seed=6)
        result = hooi(x, (3, 3, 3), ttm_backend=inplace_backend,
                      max_iterations=6, tolerance=0.0)
        fits = result.fit_history
        assert all(b >= a - 1e-10 for a, b in zip(fits, fits[1:]))

    def test_hooi_at_least_as_good_as_hosvd(self):
        x = random_tensor((8, 8, 8), seed=7)
        start = hosvd(x, (2, 2, 2), ttm_backend=inplace_backend)
        refined = hooi(x, (2, 2, 2), ttm_backend=inplace_backend, init=start)
        assert refined.fit >= start.fit - 1e-10

    def test_early_stop_on_tolerance(self):
        x = low_rank_tensor((8, 8, 8), 2, seed=8)
        result = hooi(x, 2, ttm_backend=inplace_backend,
                      max_iterations=50, tolerance=1e-6)
        assert result.iterations < 50

    def test_backends_agree(self):
        x = random_tensor((6, 7, 5), seed=9)
        a = hooi(x, (2, 2, 2), ttm_backend=inplace_backend,
                 max_iterations=3, tolerance=0.0)
        b = hooi(x, (2, 2, 2), ttm_backend=ttm_copy,
                 max_iterations=3, tolerance=0.0)
        assert a.fit == pytest.approx(b.fit, abs=1e-10)
        assert np.allclose(np.abs(a.core.data), np.abs(b.core.data),
                           atol=1e-8)

    def test_default_backend_is_intensli(self):
        x = low_rank_tensor((6, 6, 6), 2, seed=10)
        result = hooi(x, 2)
        assert result.fit == pytest.approx(1.0, abs=1e-6)

    def test_max_iterations_validated(self):
        x = random_tensor((4, 4), seed=11)
        with pytest.raises(ShapeError):
            hooi(x, 2, max_iterations=0)

    def test_order4_decomposition(self):
        x = low_rank_tensor((5, 6, 4, 5), (2, 2, 2, 2), seed=12)
        result = hooi(x, (2, 2, 2, 2), ttm_backend=inplace_backend)
        assert result.fit == pytest.approx(1.0, abs=1e-7)


SEQUENTIAL_START_CASES = [
    pytest.param(shape, ranks, layout, method,
                 id=f"{'x'.join(map(str, shape))}-{layout}-{method}")
    for shape, ranks in (((24, 20, 16), (4, 6, 3)),
                         ((12, 10, 9, 8), (3, 2, 4, 2)))
    for layout in ("C", "F")
    for method in ("auto", "gram")
]


class TestSequentialStart:
    """HOOI's default start, a sequentially truncated HOSVD, must reach
    the result of HOOI from the classic HOSVD start."""

    @pytest.mark.parametrize("shape,ranks,layout,method",
                             SEQUENTIAL_START_CASES)
    def test_agrees_with_hosvd_start(self, shape, ranks, layout, method):
        x = low_rank_tensor(shape, ranks, layout=layout, noise=0.05, seed=31)
        sequential = hooi(x, ranks, svd_method=method, tolerance=1e-8)
        classic = hooi(x, ranks, svd_method=method, tolerance=1e-8,
                       init=hosvd(x, ranks, svd_method=method))
        assert sequential.iterations == classic.iterations
        assert np.allclose(sequential.fit_history, classic.fit_history,
                           rtol=0.0, atol=1e-6)

    def test_only_the_first_gram_reads_all_of_x(self, monkeypatch):
        from repro.core.intensli import default_intensli
        from repro.decomp import tucker
        from repro.testing import DTYPE_TOLERANCES

        x = low_rank_tensor((24, 20, 16), (4, 6, 3), noise=0.05, seed=32)
        ranks = (4, 6, 3)
        seen = []
        gram = tucker._mode_gram

        def spy(y, mode):
            seen.append((y.shape, mode))
            return gram(y, mode)

        monkeypatch.setattr(tucker, "_mode_gram", spy)
        backend = default_intensli()
        hosvd(x, ranks, ttm_backend=backend)
        assert [m for s, m in seen if s == x.shape] == [0, 1, 2]

        seen.clear()
        factors, core = tucker._sequential_start(x, ranks, backend, "auto")
        # Ascending R_n / I_n: 4/24 < 3/16 < 6/20.
        assert [m for _, m in seen] == [0, 2, 1]
        assert [s for s, _ in seen] == [(24, 20, 16), (4, 20, 16),
                                        (4, 20, 3)]
        rtol, atol = DTYPE_TOLERANCES["float64"]
        expected = tucker._project_all_but(x, factors, None, backend)
        assert core.shape == ranks
        assert np.allclose(core.data, expected.data, rtol=rtol, atol=atol)

        seen.clear()
        hooi(x, ranks, ttm_backend=backend, max_iterations=1)
        assert sum(s == x.shape for s, _ in seen) == 1


class TestSvdMethods:
    def test_randomized_matches_gram_on_low_rank(self):
        from repro.decomp.tucker import _leading_left_singular_vectors
        from repro.tensor.unfold import unfold

        x = low_rank_tensor((30, 20, 20), 3, seed=20)
        mat = unfold(x, 0)
        exact = _leading_left_singular_vectors(mat, 3, method="gram")
        randomized = _leading_left_singular_vectors(mat, 3,
                                                    method="randomized")
        # Same subspace: projector difference is tiny.
        p_exact = exact @ exact.T
        p_rand = randomized @ randomized.T
        assert np.linalg.norm(p_exact - p_rand) < 1e-6

    def test_hooi_randomized_reaches_same_fit(self):
        x = low_rank_tensor((16, 14, 12), 2, seed=21)
        exact = hooi(x, 2, ttm_backend=inplace_backend, svd_method="gram")
        randomized = hooi(x, 2, ttm_backend=inplace_backend,
                          svd_method="randomized")
        assert randomized.fit == pytest.approx(exact.fit, abs=1e-6)

    def test_unknown_method_rejected(self):
        from repro.decomp.tucker import _leading_left_singular_vectors

        with pytest.raises(ShapeError):
            _leading_left_singular_vectors(np.eye(4), 2, method="magic")

    def test_unknown_method_leaves_no_checkpoint(self, tmp_path):
        x = low_rank_tensor((6, 5, 4), 2, seed=22)
        path = tmp_path / "hooi.json"
        with pytest.raises(ShapeError):
            hooi(x, 2, svd_method="bogus", checkpoint_path=str(path))
        assert list(tmp_path.iterdir()) == []
        result = hooi(x, 2, svd_method="auto", checkpoint_path=str(path))
        assert result.fit == pytest.approx(1.0, abs=1e-6)

    def test_randomized_is_orthonormal(self):
        from repro.decomp.tucker import _leading_left_singular_vectors

        rng = np.random.default_rng(22)
        mat = rng.standard_normal((40, 60))
        u = _leading_left_singular_vectors(mat, 5, method="randomized")
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-10)


class TestResultProperties:
    def test_compression_ratio(self):
        x = low_rank_tensor((10, 10, 10), 2, seed=13)
        result = hosvd(x, 2, ttm_backend=inplace_backend)
        # 1000 elements vs 8 + 3*20 = 68 parameters.
        assert result.compression == pytest.approx(1000 / 68)

    def test_fit_of_zero_tensor_is_one(self):
        x = DenseTensor.zeros((4, 4, 4))
        core = DenseTensor.zeros((2, 2, 2))
        factors = [np.eye(4)[:, :2] for _ in range(3)]
        assert tucker_fit(x, core, factors) == 1.0

    def test_result_dataclass_fields(self):
        x = low_rank_tensor((5, 5, 5), 2, seed=14)
        result = hooi(x, 2, ttm_backend=inplace_backend)
        assert isinstance(result, TuckerResult)
        assert len(result.factors) == 3
        assert result.iterations >= 1
        assert len(result.fit_history) == result.iterations
