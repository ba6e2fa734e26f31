import cmath
import math

import numpy as np

from ctfbench import elementary


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def test_log_is_within_2_ulp_of_libm():
    rng = np.random.default_rng(2)
    x = np.concatenate([
        np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 200_000)),
        1.0 + rng.uniform(-1e-3, 1e-3, 20_000),
        [1e-300, 1e300, 0.5, 2.0, np.sqrt(0.5), np.sqrt(2.0),
         np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
    ])
    assert _ulps(elementary.log(x), np.log(x)).max() <= 2
    one = elementary.log(np.array([1.0]))[0]
    assert one == 0.0 and not np.signbit(one)


def test_exp_is_within_2_ulp_of_libm():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-708.0, 709.0, 100_000), rng.uniform(-1.0, 1.0, 10_000),
                        [0.0, 1.0, -1.0, 709.7, -708.0]])
    ref = np.array([math.exp(v) for v in x])
    assert _ulps(elementary.exp(x), ref).max() <= 2
    assert elementary.exp(np.array([0.0]))[0] == 1.0
    # Underflow to subnormals and to zero, overflow to inf, as libm.
    edge = np.array([-740.0, -745.2, -1e5, 709.79])
    with np.errstate(over="ignore"):
        assert np.array_equal(elementary.exp(edge), [math.exp(-740.0), 0.0, 0.0, np.inf])


def test_sincos_is_within_an_ulp_of_one_of_libm():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(-60.0, 60.0, 100_000), [0.0, np.pi / 2, np.pi, 3.0]])
    sin, cos = elementary.sincos(x)
    assert np.abs(sin - np.array([math.sin(v) for v in x])).max() <= 2.0**-52
    assert np.abs(cos - np.array([math.cos(v) for v in x])).max() <= 2.0**-52
    # Relative to the value, away from the zeros, as the KS contour uses it.
    theta = np.pi * (np.arange(1, 33) - 0.5) / 32
    sin, cos = elementary.sincos(theta)
    assert _ulps(sin, np.sin(theta)).max() <= 2 and _ulps(cos, np.cos(theta)).max() <= 2


def test_cexp_is_libm_cexp_to_rounding():
    rng = np.random.default_rng(5)
    z = rng.uniform(-50.0, 2.0, 1000) + 1j * rng.uniform(0.0, 1.0, 1000)
    ref = np.array([cmath.exp(v) for v in z])
    assert (np.abs(elementary.cexp(z) - ref) / np.abs(ref)).max() <= 1e-15
