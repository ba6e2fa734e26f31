"""Elementary functions that give the same bits on every host.

`np.log`, `np.exp` and `np.power` have SIMD kernels that numpy picks by
CPU, and libm (`math.exp`, `np.sin`, `np.cos`, complex `np.exp`) picks its
own by whether the CPU has FMA; their last bits differ between the
kernels. The functions here use only exactly rounded float64 arithmetic
(+, -, *, /, `rint`, `frexp`, `ldexp`) in a fixed order, so the scores and
the ETDRK4 coefficients that use them are the same on any x86-64 CPU. Each
is within 2 ulp of libm on the ranges its callers use.
"""

from __future__ import annotations

import math

import numpy as np

#: ln 2 split so that `k * _LN2_HI` is exact for every |k| < 2**20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
#: pi/2 split the same way (fdlibm's pio2_1 and pio2_1t).
_PIO2_HI = 1.57079632673412561417e+00
_PIO2_LO = 6.07710050650619224932e-11
_INV_PIO2 = 6.36619772367581382433e-01
_SQRT_HALF = math.sqrt(0.5)
#: 2/3, 2/5, ..., 2/23: the odd series 2*atanh(s) = 2s + 2s^3/3 + ... after
#: its first term; the first term left out is below 2**-60 of the result.
_ATANH_SERIES = tuple(2.0 / (2 * j + 1) for j in range(1, 12))
#: 1/j! for j = 0..14: exp on |r| <= ln2/2 to below 2**-60.
_EXP_SERIES = tuple(1.0 / math.factorial(j) for j in range(15))
#: (-1)^j/(2j+1)! and (-1)^j/(2j)! for j = 1..10: sin and cos on |r| <= pi/4.
_SIN_SERIES = tuple((-1) ** j / math.factorial(2 * j + 1) for j in range(1, 11))
_COS_SERIES = tuple((-1) ** j / math.factorial(2 * j) for j in range(1, 11))


def _horner(z: np.ndarray, coeffs: tuple) -> np.ndarray:
    """coeffs[0] + z*coeffs[1] + z^2*coeffs[2] + ..., summed from the
    highest power down."""
    p = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        p *= z
        p += c
    return p


def log(x: np.ndarray) -> np.ndarray:
    """Natural log of positive finite float64 values; exactly 0.0 at 1.0.

    x = m * 2**e with m in [sqrt(1/2), sqrt(2)); with f = m - 1 and
    s = f/(2 + f), ln m = 2*atanh(s), summed as f - (f*f/2 - s*(f*f/2 + R))
    with R the series of `_ATANH_SERIES` in s*s, as fdlibm sums it.
    """
    f, e = np.frexp(x)
    low = f < _SQRT_HALF
    np.multiply(f, 2.0, out=f, where=low)
    e -= low
    f -= 1.0
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    r = _horner(z, _ATANH_SERIES)
    r *= z
    half_f2 = np.multiply(f, f, out=z)
    half_f2 *= 0.5
    r += half_f2
    r *= s
    k = e.astype(np.float64)
    r += np.multiply(k, _LN2_LO, out=s)
    r -= half_f2
    r += f
    k *= _LN2_HI
    k += r
    return k


def exp(x: np.ndarray) -> np.ndarray:
    """e**x of finite float64 values: 0.0 below about -745, inf above 709.78.

    x = k*ln2 + r with |r| <= ln2/2; e**r is the series of `_EXP_SERIES`,
    scaled by 2**k.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -746.0, 710.0)
    k = np.rint(x * _INV_LN2)
    r = x - k * _LN2_HI
    r -= k * _LN2_LO
    return np.ldexp(_horner(r, _EXP_SERIES), k.astype(np.int32))


def sincos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) of float64 values with |x| < 2**20.

    x = q*pi/2 + r with |r| <= pi/4; the series of `_SIN_SERIES` and
    `_COS_SERIES` give sin r and cos r, which q mod 4 rotates.
    """
    x = np.asarray(x, dtype=np.float64)
    q = np.rint(x * _INV_PIO2)
    r = x - q * _PIO2_HI
    r -= q * _PIO2_LO
    z = r * r
    s = r + r * (z * _horner(z, _SIN_SERIES))
    c = 1.0 + z * _horner(z, _COS_SERIES)
    quadrant = q.astype(np.int64) % 4
    sin = np.choose(quadrant, (s, c, -s, -c))
    cos = np.choose(quadrant, (c, -s, -c, s))
    return sin, cos


def cexp(z: np.ndarray) -> np.ndarray:
    """e**z of complex values, as e**re * (cos im + i sin im)."""
    sin, cos = sincos(z.imag)
    scale = exp(z.real)
    out = np.empty(z.shape, dtype=complex)
    out.real = scale * cos
    out.imag = scale * sin
    return out
