"""Bit-identity of the vectorized array reductions behind
``mpi_reduce_array`` / ``mpi_allreduce_array``.

``fold_rows`` folds the ranks' arrays row by row in numpy and must equal
the scalar left fold ``fold()`` on every column, compared by ``repr`` so
that ``-0.0`` vs ``0.0``, NaN, and ``int`` vs ``float`` all count.  Where
numpy cannot be exact it must decline (return ``None``) so the caller
takes the scalar fold.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import DEFAULT_MACHINE, run_mpi
from repro.runtime.mpi import fold_rows
from repro.runtime.runtimes import fold

from .helpers import compiled, iarr

OPS = ("sum", "prod", "min", "max")

SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  1e308, -1e308, 5e-324, 1.0, -1.0]
NEAR_2_62 = [2 ** 62, 2 ** 62 - 1, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    SPECIAL_FLOATS)
ints = (st.integers(-1000, 1000) | st.sampled_from(NEAR_2_62)
        | st.integers(-(2 ** 64), 2 ** 64))


def scalar(op, rows, elem):
    return [fold(op, column, as_int=elem == "int") for column in zip(*rows)]


def combined(op, rows, elem):
    """What the collective returns: the numpy fold, else the scalar one."""
    out = fold_rows(op, rows, elem)
    return scalar(op, rows, elem) if out is None else out


def matrix(elements):
    return st.integers(1, 6).flatmap(lambda n: st.integers(0, 6).flatmap(
        lambda k: st.lists(st.lists(elements, min_size=k, max_size=k),
                           min_size=n, max_size=n)))


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(OPS), rows=matrix(floats))
    def test_float_arrays(self, op, rows):
        assert repr(combined(op, rows, "float")) == repr(scalar(op, rows, "float"))

    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(OPS), rows=matrix(ints))
    def test_int_arrays(self, op, rows):
        assert repr(combined(op, rows, "int")) == repr(scalar(op, rows, "int"))

    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(OPS), rows=matrix(floats | ints),
           elem=st.sampled_from(["float", "int"]))
    def test_mixed_elements(self, op, rows, elem):
        assert repr(combined(op, rows, elem)) == repr(scalar(op, rows, elem))

    @settings(max_examples=100, deadline=None)
    @given(op=st.sampled_from(("sum", "min", "max")),
           rows=matrix(st.integers(-(2 ** 40), 2 ** 40)))
    def test_small_ints_take_the_numpy_path(self, op, rows):
        out = fold_rows(op, rows, "int")
        assert out is not None
        assert repr(out) == repr(scalar(op, rows, "int"))


class TestEdgeCases:
    def test_signed_zero_survives(self):
        assert repr(fold_rows("sum", [[-0.0], [-0.0]], "float")) == "[-0.0]"
        assert repr(fold_rows("sum", [[-0.0], [0.0]], "float")) == "[0.0]"
        # a < b is False for equal zeros, so the fold keeps the later one
        assert repr(fold_rows("min", [[0.0], [-0.0]], "float")) == "[-0.0]"
        assert repr(fold_rows("max", [[-0.0], [0.0]], "float")) == "[0.0]"

    def test_nan_ordering_matches_the_scalar_fold(self):
        rows = [[math.nan, 1.0], [1.0, math.nan], [2.0, 0.5]]
        for op in ("min", "max"):
            assert repr(fold_rows(op, rows, "float")) == \
                repr(scalar(op, rows, "float"))

    def test_infinities(self):
        rows = [[math.inf, -math.inf], [-math.inf, 1.0]]
        for op in OPS:
            assert repr(fold_rows(op, rows, "float")) == \
                repr(scalar(op, rows, "float"))

    def test_int_sum_near_2_62_falls_back(self):
        rows = [[2 ** 62], [2 ** 62]]
        assert fold_rows("sum", rows, "int") is None
        assert combined("sum", rows, "int") == [2 ** 63]    # exact, unbounded

    def test_ints_beyond_int64_fall_back(self):
        assert fold_rows("max", [[2 ** 64], [1]], "int") is None

    def test_int_product_always_falls_back(self):
        assert fold_rows("prod", [[2], [3]], "int") is None

    def test_int_held_in_a_float_array_falls_back(self):
        rows = [[1, 2.5], [2, 0.5]]
        assert fold_rows("sum", rows, "float") is None
        out = combined("sum", rows, "float")
        assert repr(out) == "[3, 3.0]"
        assert type(out[0]) is int

    def test_bools_fall_back(self):
        assert fold_rows("sum", [[True], [False]], "int") is None
        assert fold_rows("sum", [[True], [True]], "bool") is None

    def test_empty_rows(self):
        assert fold_rows("sum", [[], []], "float") == []


class TestThroughTheRuntime:
    def test_allreduce_array_of_large_ints_is_exact(self):
        src = """
        kernel f(x: array<int>) -> int {
            mpi_allreduce_array(x, "sum");
            return x[0];
        }
        """
        res = run_mpi(compiled(src), "f", [iarr([2 ** 62, 1])], 4,
                      DEFAULT_MACHINE)
        assert res.error is None
        assert res.ret == 2 ** 64
        assert res.args[0].data == [2 ** 64, 4]
