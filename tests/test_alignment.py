"""Cache-line alignment of the arrays the grids stream.

A float array from the heap starts on any 16-byte boundary, and a vector
load from one that starts mid cache line straddles two lines, so the grid
products at n = 400 ran at a speed set by where the heap put each array.
``aligned`` copies a large array to a cache line without changing its
strides, so the products keep their bits.
"""

import numpy as np
import pytest

from stopgap.instances import make_iidg
from stopgap.linalg import ALIGN_MIN_BYTES, CACHE_LINE, aligned, empty_aligned, rowwise


def misaligned(shape, order="C", seed=0):
    """A float array of ``shape`` whose data starts 8 bytes past a cache line."""
    size = int(np.prod(shape))
    buf = np.empty(size + CACHE_LINE)
    start = (-buf.ctypes.data % CACHE_LINE + 8) // 8
    a = buf[start:start + size].reshape(shape, order=order)
    a[...] = np.random.default_rng(seed).standard_normal(shape)
    assert a.ctypes.data % CACHE_LINE == 8
    return a


@pytest.mark.parametrize("order", ["C", "F"])
def test_aligned_copy_keeps_values_and_strides(order):
    a = misaligned((128, 96), order)
    out = aligned(a)
    assert out is not a
    assert out.ctypes.data % CACHE_LINE == 0
    assert out.strides == a.strides
    assert np.array_equal(out, a)


def test_small_aligned_and_strided_arrays_are_returned_as_they_are():
    small = misaligned((8, 8))
    assert small.nbytes < ALIGN_MIN_BYTES and aligned(small) is small
    done = aligned(misaligned((128, 96)))
    assert aligned(done) is done
    strided = misaligned((128, 192))[:, ::2]
    assert aligned(strided) is strided


@pytest.mark.parametrize("order", ["C", "F"])
def test_empty_aligned_starts_on_a_cache_line(order):
    for shape in ((3, 5), (128, 96)):
        a = empty_aligned(shape, order=order)
        assert a.shape == shape and a.ctypes.data % CACHE_LINE == 0
        assert a.flags.c_contiguous if order == "C" else a.flags.f_contiguous


@pytest.mark.parametrize("transpose", [False, True])
def test_rowwise_rows_carry_the_bits_of_the_vector_call(transpose):
    M = misaligned((400, 400), seed=1)
    M = M.T if transpose else M
    X = misaligned((41, 400), seed=2)
    out = rowwise(M, X)
    assert out.shape == (41, 400) and out.flags.c_contiguous
    assert out.ctypes.data % CACHE_LINE == 0
    for row, x in zip(out, X):
        assert np.array_equal(row, M @ x)


def test_the_streamed_matrices_of_a_large_instance_start_on_a_cache_line():
    problem = make_iidg(n=400, m=200, seed=7)
    obj = problem.objective
    for a in (problem.constraint.matrix, obj.design, obj.V):
        assert a.ctypes.data % CACHE_LINE == 0
