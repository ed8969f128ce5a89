"""Float kernels under the tensor ops: short-row reductions and the
standard normal distribution function GELU uses.

Arrays in, arrays out: nothing here records on a tape or imports from the
package, so each kernel can be changed and tested on its own.
"""

from __future__ import annotations

import math

import numpy as np


def row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keepdims: one matrix-vector product
    ``x.reshape(-1, n) @ ones(n)``.  numpy's reduction pays a loop per row,
    which costs more than the adds on rows as short as attention's 16
    tokens or a decoder stage's 16 channels; BLAS adds in its own order."""
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n) @ np.ones(n, x.dtype)
    return rows.reshape(*x.shape[:-1], 1)


def row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keepdims: :func:`row_sum` over the width."""
    m = row_sum(x)
    m /= x.shape[-1]
    return m


def row_max(x: np.ndarray) -> np.ndarray:
    """Exact max over the last axis, keepdims: one ``np.maximum`` per column,
    each over every row at once.  ``x.max(axis=-1)`` pays a loop per row,
    slow on the short rows of window attention; the column passes cost one
    call per column, so this suits short rows only.  A max does not round,
    so the result is bitwise ``x.max(axis=-1, keepdims=True)``."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


# erf by the rational approximations of FreeBSD msun s_erf.c (Sun
# Microsystems, 1993), one per range of |x|:
#   [0, 0.84375)     x + x P(x^2) / Q(x^2)
#   [0.84375, 1.25)  erx + P(s) / Q(s) with s = |x| - 1
#   [1.25, 6)        1 - exp(-z^2 - 0.5625) exp((z - x)(z + x) + R(s) / S(s)) / x
#                    with s = 1 / x^2 and z = x with its low 32 bits cleared,
#                    so z^2 is exact; R/S has one set below 1/0.35, one above
#   [6, inf]         1
# and erf(-x) = -erf(x).  Coefficients are s_erf.c's, lowest degree first.
_ERX = 8.45062911510467529297e-01
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
       1.32494738004321644526e-04, -3.96022827877536812320e-06)
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
       -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
       6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
       -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
       3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
# Phi(x) = 1/2 + erf(x / sqrt 2) / 2 over the first range: with u = x / sqrt 2,
# u^2 = x^2 / 2 goes into P and Q as the factor 2^-i on coefficient i, and
# u / 2 = c x with c = 1 / (2 sqrt 2), so Phi(x) = 1/2 + x (c + c P(x^2/2) / Q(x^2/2))
_C = 0.5 / math.sqrt(2.0)
_PP_NDTR = tuple(_C * p / 2 ** i for i, p in enumerate(_PP))
_QQ_NDTR = tuple(q / 2 ** i for i, q in enumerate(_QQ))
_SMALL = 0.84375 ** 2  # x^2 bound of the first range, exact in binary


def _poly(coefs, z, out=None):
    """sum(coefs[i] * z**i) by Horner's rule, in ``z``'s dtype."""
    out = np.multiply(z, coefs[-1], out=out)
    out += coefs[-2]
    for c in coefs[-3::-1]:
        out *= z
        out += c
    return out


def _erf_outer(x: np.ndarray) -> np.ndarray:
    """erf of float64 ``x`` by the three ranges of |x| >= 0.84375 (a value a
    rounding below 0.84375 takes the second range's form, still accurate)."""
    a = np.abs(x)
    y = np.ones_like(a)
    mid = a < 1.25
    s = a[mid] - 1.0
    y[mid] = _ERX + _poly(_PA, s) / _poly(_QA, s)
    for lo, hi, r, q in ((1.25, 1 / 0.35, _RA, _SA), (1 / 0.35, 6.0, _RB, _SB)):
        sel = (lo <= a) & (a < hi)
        t = a[sel]
        s = 1.0 / (t * t)
        z = (t.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
        y[sel] = 1.0 - np.exp(-z * z - 0.5625) * np.exp((z - t) * (z + t) + _poly(r, s) / _poly(q, s)) / t
    return np.copysign(y, x)


def ndtr(x) -> np.ndarray:
    """The standard normal distribution function Phi(x) = (1 + erf(x /
    sqrt 2)) / 2, elementwise, within 2 ** -52 (float64) of the exact value.

    float32 is computed in float32 (the outer ranges, rarely met, in
    float64); anything else in float64.  The first range's form runs on
    every element and overflows or turns invalid far outside that range,
    where the exact form replaces it, so floating-point error reporting is
    off inside.
    """
    shape = np.shape(x)
    x = np.asarray(x).reshape(-1)  # a C-ordered result, whatever the input's layout
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    with np.errstate(all="ignore"):
        z = x * x
        # the elements past the first range; NaN is in neither, the first
        # range's form carries it through
        far = None if z.max() < 2.0 * _SMALL else z >= 2.0 * _SMALL
        p = _poly(_PP_NDTR, z)
        p /= _poly(_QQ_NDTR, z)
        p += _C
        p *= x
        p += 0.5
        if far is not None:
            phi = _erf_outer(x[far].astype(np.float64, copy=False) / math.sqrt(2.0))
            phi += 1.0
            phi *= 0.5
            p[far] = phi
    return p.reshape(shape)
