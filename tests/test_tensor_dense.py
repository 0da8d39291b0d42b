"""Unit tests for repro.tensor.dense.DenseTensor."""

import numpy as np
import pytest

from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, element_strides
from repro.util.errors import DtypeError, ShapeError


class TestConstruction:
    def test_wraps_c_contiguous_without_copy(self):
        arr = np.zeros((3, 4))
        t = DenseTensor(arr, ROW_MAJOR)
        assert t.data is arr or t.data.base is arr

    def test_copies_when_layout_mismatch(self):
        arr = np.zeros((3, 4), order="F")
        t = DenseTensor(arr, ROW_MAJOR)
        assert t.data.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(t.data, arr)

    def test_forced_copy(self):
        arr = np.zeros((3, 4))
        t = DenseTensor(arr, ROW_MAJOR, copy=True)
        assert not np.shares_memory(t.data, arr)

    def test_coerces_to_float64(self):
        t = DenseTensor(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert t.dtype == np.float64

    def test_zeros_and_empty_shapes(self):
        z = DenseTensor.zeros((2, 3, 4))
        assert z.shape == (2, 3, 4)
        assert np.all(z.data == 0.0)
        e = DenseTensor.empty((2, 2), COL_MAJOR)
        assert e.shape == (2, 2)
        assert e.data.flags["F_CONTIGUOUS"]

    @pytest.mark.parametrize("dtype", [None, "float32", np.float32, np.dtype("float16")])
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_empty_is_in_memory_with_its_layouts_strides(self, layout, dtype):
        e = DenseTensor.empty((2, 3, 4), layout, dtype=dtype)
        want = np.dtype("float64" if dtype is None else dtype)
        assert e.dtype == want and e.is_inmem and e.layout is layout
        assert e.strides == tuple(s // want.itemsize for s in e.data.strides)

    def test_wrap_derives_strides_only_when_read(self):
        arr = np.empty((2, 3, 4), order="F")
        t = DenseTensor._wrap(arr, COL_MAJOR, fresh=True)
        assert t.is_inmem and t.data is arr
        assert t.strides == (1, 2, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_conforming_array_is_wrapped_as_is(self, layout, dtype):
        arr = np.empty((2, 3, 4), dtype=dtype, order=layout.numpy_order)
        t = DenseTensor(arr, layout)
        assert t.data is arr and t.is_inmem and t.layout is layout
        assert t.strides == element_strides(arr.shape, layout)
        assert t.strides == tuple(s // arr.itemsize for s in arr.strides)

    def test_nonconforming_dtypes_still_convert(self):
        swapped = np.arange(6, dtype=">f8").reshape(2, 3)
        t = DenseTensor(swapped)
        assert t.dtype == np.float64 and t.dtype.isnative
        assert np.array_equal(t.data, swapped)
        assert DenseTensor(np.arange(6)).dtype == np.float64
        with pytest.raises(DtypeError):
            DenseTensor(np.zeros(3, dtype=np.complex128))

    def test_random_is_deterministic_per_seed(self):
        a = DenseTensor.random((3, 3), seed=42)
        b = DenseTensor.random((3, 3), seed=42)
        assert np.array_equal(a.data, b.data)

    def test_layout_string_accepted(self):
        t = DenseTensor.zeros((2, 2), "F")
        assert t.layout is COL_MAJOR


class TestProperties:
    def test_order_size_nbytes(self):
        t = DenseTensor.zeros((2, 3, 4))
        assert t.order == 3
        assert t.ndim == 3
        assert t.size == 24
        assert t.nbytes == 24 * 8

    def test_strides_row_major(self):
        t = DenseTensor.zeros((2, 3, 4), ROW_MAJOR)
        assert t.strides == (12, 4, 1)
        assert t.leading_mode == 2

    def test_strides_col_major(self):
        t = DenseTensor.zeros((2, 3, 4), COL_MAJOR)
        assert t.strides == (1, 2, 6)
        assert t.leading_mode == 0

    def test_repr_mentions_shape_and_layout(self):
        r = repr(DenseTensor.zeros((2, 3)))
        assert "2x3" in r and "ROW_MAJOR" in r


class TestIndexingAndConversion:
    def test_getitem_returns_views(self):
        t = DenseTensor.zeros((3, 4))
        view = t[1]
        view[:] = 7.0
        assert np.all(t.data[1] == 7.0)

    def test_setitem(self):
        t = DenseTensor.zeros((2, 2))
        t[0, 1] = 5.0
        assert t.data[0, 1] == 5.0

    def test_asarray_protocol(self):
        t = DenseTensor.zeros((2, 2))
        assert np.asarray(t).shape == (2, 2)

    def test_to_numpy_is_no_copy(self):
        t = DenseTensor.zeros((2, 2))
        assert t.to_numpy() is t.data


class TestStructuralOps:
    def test_copy_is_deep(self):
        t = DenseTensor.zeros((2, 2))
        c = t.copy()
        c[0, 0] = 1.0
        assert t.data[0, 0] == 0.0

    def test_with_layout_roundtrip_values(self):
        t = DenseTensor.random((3, 4, 5), seed=1)
        f = t.with_layout(COL_MAJOR)
        assert f.layout is COL_MAJOR
        assert np.array_equal(f.data, t.data)
        assert f.data.flags["F_CONTIGUOUS"]

    def test_permute_is_physical_copy(self):
        t = DenseTensor.random((3, 4, 5), seed=2)
        p = t.permute((2, 0, 1))
        assert p.shape == (5, 3, 4)
        assert not np.shares_memory(p.data, t.data)
        assert np.array_equal(p.data, np.transpose(t.data, (2, 0, 1)))

    def test_permute_validates(self):
        t = DenseTensor.zeros((2, 3))
        with pytest.raises(ShapeError):
            t.permute((0, 0))

    def test_reshape_copyfree_merges_trailing_modes(self):
        t = DenseTensor.random((2, 3, 4), seed=3)
        m = t.reshape_copyfree((2, 12))
        assert np.shares_memory(m, t.data)
        assert np.array_equal(m, t.data.reshape(2, 12))

    def test_reshape_copyfree_wrong_size_raises(self):
        t = DenseTensor.zeros((2, 3))
        with pytest.raises(ShapeError):
            t.reshape_copyfree((4, 2))


class TestAllclose:
    def test_allclose_true(self):
        t = DenseTensor.random((3, 3), seed=4)
        assert t.allclose(t.data.copy())

    def test_allclose_shape_mismatch_false(self):
        t = DenseTensor.zeros((2, 2))
        assert not t.allclose(np.zeros((2, 3)))

    def test_allclose_value_mismatch_false(self):
        t = DenseTensor.zeros((2, 2))
        assert not t.allclose(np.ones((2, 2)))
