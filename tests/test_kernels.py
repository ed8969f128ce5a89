"""Tests for the float kernels: the normal distribution function and the
short-row reductions, against scalar oracles and summation bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtformer import kernels as K

PROPERTY = settings(max_examples=60, deadline=None, database=None)
DTYPES = st.sampled_from([np.float64, np.float32])


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape, (got.dtype, got.shape,
                                                                 want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), np.abs(got - want).max()


# ------------------------------------------------------------- erf kernels
# gelu's Phi comes from ndtr: s_erf.c's first range folded into Phi for
# |x| < 0.84375 sqrt 2, and the outer ranges, _erf_outer, beyond

def _ulps(got, want):
    """Distance in units in the last place, per element, of same-dtype arrays."""
    ints = np.int64 if got.dtype == np.float64 else np.int32
    def ordered(v):  # IEEE bit patterns as integers that sort like the values
        i = v.view(ints).astype(np.int64)
        return np.where(i < 0, np.iinfo(ints).min - i, i)
    return np.abs(ordered(got) - ordered(want))


def _erf_outer_in(x):
    """``_erf_outer`` on ``x`` in float64, rounded back to ``x``'s dtype, as
    ``ndtr`` runs it on float32 input."""
    with np.errstate(all="raise"):
        return K._erf_outer(x.astype(np.float64)).astype(x.dtype)


def _math_erf(x, dtype):
    """Oracle: math.erf of each element of ``x``, rounded to ``dtype``."""
    return np.array([math.erf(v) for v in x.tolist()]).astype(dtype)


# measured: 1 ulp at most in float64; float32 rounds the float64 value exactly
ULPS = {np.float64: 1, np.float32: 0}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_erf_within_one_ulp_of_math_erf_on_a_dense_grid(dtype):
    # 2 M points cover the three outer ranges of s_erf.c and both signs
    mags = np.linspace(0.84375, 8.0, 1_000_001).astype(dtype)
    x = np.concatenate([mags, -mags])
    got = _erf_outer_in(x)
    assert got.dtype == dtype
    assert _ulps(got, _math_erf(x, dtype)).max() <= ULPS[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_erf_within_one_ulp_of_math_erf_over_magnitudes(dtype):
    # log-spaced from the first outer range to far past the saturation at 6
    mags = np.geomspace(0.84375, 1e3, 20_001).astype(dtype)
    x = np.concatenate([mags, -mags])
    assert _ulps(_erf_outer_in(x), _math_erf(x, dtype)).max() <= ULPS[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_erf_special_values_raise_no_floating_point_error(dtype):
    # NaN never reaches _erf_outer: ndtr's first range carries it through
    x = np.array([np.inf, -np.inf, 6.0, -6.0, np.finfo(dtype).max, -np.finfo(dtype).max],
                 dtype=dtype)
    _assert_bitwise(_erf_outer_in(x), np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ndtr_is_the_normal_distribution_function(dtype):
    # Phi(x) = erfc(-x / sqrt 2) / 2, accurate in both tails; the folded
    # kernel stays within one epsilon of it
    x = np.linspace(-12.0, 12.0, 200_001).astype(dtype)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    with np.errstate(all="raise"):
        got = K.ndtr(x)
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= np.finfo(dtype).eps
    _assert_bitwise(K.ndtr(np.array([np.inf, -np.inf, np.nan], dtype)),
                    np.array([1.0, 0.0, np.nan], dtype))


def test_ndtr_keeps_shape_across_chunks():
    x = np.linspace(-6.0, 6.0, 40_000).reshape(8, 5000)  # every range
    want = K.ndtr(x)
    assert want.shape == x.shape
    _assert_bitwise(K.ndtr(x.T), want.T)  # a non-contiguous input
    # elementwise: how the input is split does not change a value
    pieces = [K.ndtr(part) for part in np.array_split(x.reshape(-1), 7)]
    _assert_bitwise(np.concatenate(pieces), want.reshape(-1))


# ------------------------------------------------- short-row reductions
# the row kernels the ops reduce with: the row max is exact, so bitwise
# numpy's; the sums add in BLAS's order, so they are held to the classic
# bound of any summation order, n eps sum|x| over n terms

@st.composite
def _rows_of(draw):
    """A float32 or float64 array of 0-3 leading axes and a last axis of
    1-600, contiguous or a strided view of a wider one."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    n = draw(st.integers(1, 600))
    dtype = draw(DTYPES)
    strided = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = (rng.normal(size=lead + (2 * n if strided else n,)) * 4.0).astype(dtype)
    return x[..., ::2] if strided else x


@PROPERTY
@given(_rows_of(), st.integers(0, 2 ** 16))
def test_row_max_is_numpy_max_bitwise(x, seed):
    rng = np.random.default_rng(seed)
    for value in (-1e9, np.inf, -np.inf, np.nan):  # masked logits, overflow, NaN
        x[rng.uniform(size=x.shape) < 0.1] = value
    _assert_bitwise(K.row_max(x), x.max(axis=-1, keepdims=True))


def _within_summation_bound(got, terms, axis):
    """``got`` is within n eps sum|x| of the sum of ``terms`` over ``axis``."""
    n = math.prod(terms.shape[a] for a in axis)
    wide = terms.astype(np.float64)
    exact = wide.sum(axis=axis, keepdims=True)
    bound = n * np.finfo(terms.dtype).eps * np.abs(wide).sum(axis=axis, keepdims=True)
    assert got.dtype == terms.dtype and got.size == exact.size, (got.shape, exact.shape)
    assert np.all(np.abs(got.reshape(exact.shape) - exact) <= bound)


@PROPERTY
@given(_rows_of())
def test_row_sums_are_within_the_summation_bound(x):
    last = (x.ndim - 1,)
    _within_summation_bound(K.row_sum(x), x, last)
    _within_summation_bound(K.row_mean(x) * x.dtype.type(x.shape[-1]), x, last)
