"""Float64 kernels against explicit per-point loop references."""

from __future__ import annotations

import numpy as np

from sharmonic import _kernels


def _workload():
    ts = np.array([2.0, 2.5, 3.0, 1.0, 4.0])
    cs = np.array([1.5, -2.0, 0.75, 3.0, -0.25])
    rs = np.array([1.0, 1.0, 0.5, 2.0, 1e-3])
    x = np.linspace(-3.0, 3.0, 257)
    return ts, cs, rs, x


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
    got = _kernels.combo_values(ts, cs, rs, 0.5, x)
    want = _loop_derivatives(ts, cs, rs, 0.5, x, 0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_combo_derivatives_matches_reference():
    ts, cs, rs, x = _workload()
    for order in range(4):
        got = _kernels.combo_derivatives(ts, cs, rs, 0.35, x, order)
        want = _loop_derivatives(ts, cs, rs, 0.35, x, order)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_power_series_eval_matches_reference_and_horner():
    exps = np.array([0, 2, 5, 9], dtype=np.int64)
    coefs = np.array([1.0, -0.5, 0.125, -3e-4])
    x = np.linspace(-2.0, 2.0, 101)
    for order in range(3):
        got = _kernels.power_series_eval(exps, coefs, x, order)
        want = _loop_power_series(exps, coefs, x, order)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
    # independent check at order 0 against numpy polynomial evaluation
    dense = np.zeros(10)
    dense[exps] = coefs
    assert np.allclose(_kernels.power_series_eval(exps, coefs, x, 0),
                       np.polynomial.polynomial.polyval(x, dense), rtol=1e-12)
    # an empty series, and orders above its degree, are the zero function
    assert np.all(_kernels.power_series_eval([], [], x, 0) == 0.0)
    assert np.all(_kernels.power_series_eval(exps, coefs, x, 10) == 0.0)


def test_blocks_are_zero_on_dead_side():
    ts = np.array([1.0])
    cs = np.array([5.0])
    rs = np.array([1.0])
    x = np.array([-3.0, -1.0, -1.0000001])
    out = _kernels.combo_values(ts, cs, rs, 0.5, x)
    assert np.all(out == 0.0)
    der = _kernels.combo_derivatives(ts, cs, rs, 0.5, x, 1)
    assert np.all(der == 0.0)
