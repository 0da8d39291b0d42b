"""Tests for repro.util helpers."""

import numpy as np
import pytest

from repro.util import (
    check_axis,
    check_mode,
    check_positive_int,
    check_probability,
    default_rng,
    format_bytes,
    format_gflops,
    format_shape,
    format_table,
    normalized_order,
)
from repro.util.validation import check_shape
from repro.util.errors import (
    LayoutError,
    PlanError,
    ReproError,
    ShapeError,
    StrideError,
)


class TestErrors:
    @pytest.mark.parametrize(
        "exc", [ShapeError, StrideError, LayoutError, PlanError]
    )
    def test_hierarchy(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, ValueError)


class TestValidation:
    def test_check_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3

    def test_check_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_check_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "x")

    def test_check_mode(self):
        assert check_mode(2, 3) == 2
        with pytest.raises(ShapeError):
            check_mode(3, 3)
        with pytest.raises(TypeError):
            check_mode("1", 3)

    def test_check_axis_negative(self):
        assert check_axis(-1, 3) == 2
        with pytest.raises(ShapeError):
            check_axis(3, 3)

    def test_check_shape(self):
        assert check_shape((np.int64(4), 0, 2)) == (4, 0, 2)
        with pytest.raises(TypeError):
            check_shape((4, 2.0))
        with pytest.raises(ShapeError):
            check_shape((4, -1))

    def test_check_shape_gives_python_ints_and_rejects_bools(self):
        assert check_shape((4, 0, 2)) == (4, 0, 2)
        assert all(type(s) is int for s in check_shape((np.int64(4), 2)))
        with pytest.raises(TypeError):
            check_shape((4, True))
        with pytest.raises(ShapeError):
            check_shape([4, -1])

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_normalized_order(self):
        assert normalized_order([2, 0, 1], 3) == (2, 0, 1)
        with pytest.raises(ShapeError):
            normalized_order([0, 0, 1], 3)


class TestRng:
    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert default_rng(g) is g

    def test_seed_determinism(self):
        assert default_rng(5).random() == default_rng(5).random()

    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)


class TestFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512.00 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(5 * 1024**2) == "5.00 MiB"
        assert format_bytes(3 * 1024**3) == "3.00 GiB"

    def test_format_gflops(self):
        assert format_gflops(12.345) == "12.35 GFLOP/s"

    def test_format_shape(self):
        assert format_shape((3, 4, 5)) == "3 x 4 x 5"

    def test_format_table_alignment(self):
        out = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
