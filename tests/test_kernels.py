"""Float64 kernels against explicit per-point loop references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from sharmonic import _kernels


def _workload():
    ts = np.array([2.0, 2.5, 3.0, 1.0, 4.0])
    cs = np.array([1.5, -2.0, 0.75, 3.0, -0.25])
    rs = np.array([1.0, 1.0, 0.5, 2.0, 1e-3])
    x = np.linspace(-3.0, 3.0, 257)
    return ts, cs, rs, x


def _derivatives(ts, cs, rs, s, x, order):
    return _kernels.combo_derivatives(ts, _kernels.block_coefficients(cs, rs, s, order), rs,
                                      s - order, x)


def _series(coefs, x, order):
    return _kernels.power_series_eval(_kernels.series_derivative(coefs, order), x)


def _loop_derivatives(ts, cs, rs, s, x, order):
    fall = 1.0
    for l in range(order):
        fall *= s - l
    out = np.zeros(x.size)
    for i, xi in enumerate(x):
        for t, c, r in zip(ts, cs, rs):
            arg = r * xi + t
            if arg > 0.0:
                out[i] += c * r**order * fall * arg ** (s - order)
    return out


def _loop_power_series(exps, coefs, x, order):
    out = np.zeros(x.size)
    for e, b in zip(exps, coefs):
        if e >= order:
            fall = float(np.prod(np.arange(e - order + 1, e + 1)))
            out += b * fall * x ** (e - order)
    return out


def test_combo_values_matches_reference():
    ts, cs, rs, x = _workload()
    got = _derivatives(ts, cs, rs, 0.5, x, 0)
    want = _loop_derivatives(ts, cs, rs, 0.5, x, 0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_combo_derivatives_matches_reference():
    ts, cs, rs, x = _workload()
    for order in range(4):
        got = _derivatives(ts, cs, rs, 0.35, x, order)
        want = _loop_derivatives(ts, cs, rs, 0.35, x, order)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_power_series_eval_matches_reference_and_horner():
    coefs = np.array([1.0, 0.0, -0.5, 0.0, 0.0, 0.125, 0.0, 0.0, 0.0, -3e-4])
    exps = np.arange(coefs.size)
    x = np.linspace(-2.0, 2.0, 101)
    for order in range(3):
        got = _series(coefs, x, order)
        want = _loop_power_series(exps, coefs, x, order)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
    # independent check at order 0 against numpy polynomial evaluation
    assert np.allclose(_series(coefs, x, 0),
                       np.polynomial.polynomial.polyval(x, coefs), rtol=1e-12)
    # an empty series, and orders above its degree, are the zero function
    assert np.all(_series([], x, 0) == 0.0)
    assert np.all(_series(coefs, x, 10) == 0.0)


def _points(kind: str, lo: float, hi: float, seed: int):
    """x as the series route receives it: a Python float, a 0-d array, one
    point or the 10001-point grid."""
    if kind == "float":
        return lo
    if kind == "0-d":
        return np.array(lo)
    if kind == "one":
        return np.array([lo])
    return np.random.default_rng(seed).uniform(min(lo, hi), max(lo, hi), 10001)


def _bits(value) -> tuple:
    return type(value), np.shape(value), np.asarray(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e30, 1e30), max_size=40), st.integers(0, 4), st.integers(0, 3),
       st.sampled_from(["float", "0-d", "one", "grid"]), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_power_series_eval_is_polyval_of_polyder_bit_for_bit(coefs, order, past, kind, lo,
                                                             hi, seed):
    # orders 0-4, and with past > 0 an order at or beyond the series length
    if past:
        order = len(coefs) + past - 1
    # the derivative's coefficients are polyder's, and Horner's rule over
    # them is polyval's, bit for bit; a Python float gives a Python float
    x = _points(kind, lo, hi, seed)
    der = P.polyder(np.asarray(coefs or [0.0], dtype=np.float64), order)
    assert _bits(np.array(_kernels.series_derivative(coefs, order))) == _bits(der)
    want = P.polyval(np.asarray(x, dtype=np.float64), der)
    if kind == "float":
        want = float(want)
    assert _bits(_series(coefs, x, order)) == _bits(want)


def test_power_series_eval_rejects_a_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        _kernels.series_derivative([1.0, 2.0], -1)


def test_blocks_are_zero_on_dead_side():
    ts = np.array([1.0])
    cs = np.array([5.0])
    rs = np.array([1.0])
    x = np.array([-3.0, -1.0, -1.0000001])
    out = _derivatives(ts, cs, rs, 0.5, x, 0)
    assert np.all(out == 0.0)
    der = _derivatives(ts, cs, rs, 0.5, x, 1)
    assert np.all(der == 0.0)
