"""Hot numerical kernels, vectorized with numpy.

All kernels operate on plain float64 arrays; the power series kernel runs
Horner's rule in place, and on Python floats, the same IEEE operations,
for a single point.  Extended-precision paths live elsewhere and never
call into this module.
"""

from __future__ import annotations

import numpy as np


def _truncated_powers(ts: np.ndarray, rs: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """(rs[k]*x + ts[k])_+^p for every block k and point; 0 on the dead side.

    The power is only taken where the argument is positive, so a point on
    a kink with p < 0 gives 0 instead of a division by zero.
    """
    arg = rs[:, None] * x[None, :] + ts[:, None]
    return np.power(arg, p, out=np.zeros_like(arg), where=arg > 0.0)


def combo_derivatives(ts, cs, rs, s, x, order):
    """Order-th derivative of sum_k cs[k] * (rs[k]*x + ts[k])_+^s on an array of points."""
    ts, cs, rs, x = (np.asarray(a, dtype=np.float64) for a in (ts, cs, rs, x))
    fall = 1.0
    for l in range(order):
        fall *= s - l
    coef = cs * rs**order * fall
    return (coef[:, None] * _truncated_powers(ts, rs, x, float(s) - order)).sum(axis=0)


def power_series_eval(coefs, x, order):
    """Evaluate the order-th derivative of the power series sum_i coefs[i] x^i
    by Horner's rule, with the bits of numpy.polynomial's
    polyval(x, polyder(coefs, order)).

    The derivative's coefficient of x^(i - order) is coefs[i] multiplied by
    i, i - 1, ..., i - order + 1 in that order (polyder's order); past the
    series it is coefs[0] * 0.  Horner's rule runs in place on one array
    (acc *= x; acc += d), starting from d_last + x * 0 as polyval does.  A
    single point runs the same IEEE operations on Python floats.
    """
    coefs = np.asarray(coefs, dtype=np.float64)
    if coefs.size == 0:
        coefs = np.zeros(1)
    order = int(order)
    if order < 0:
        raise ValueError("The order of derivation must be non-negative")
    if order >= coefs.size:
        der = coefs[:1] * 0.0
    else:
        der = coefs[order:]
        powers = np.arange(order, coefs.size, dtype=np.float64)
        for l in range(order):
            der = der * (powers - l)
    der = der.tolist()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 1:
        xf = x.item()
        acc = der[-1] + xf * 0.0
        for d in der[-2::-1]:
            acc = d + acc * xf
        return np.float64(acc) if x.ndim == 0 else np.full(x.shape, acc)
    acc = x * 0.0
    acc += der[-1]
    for d in der[-2::-1]:
        acc *= x
        acc += d
    return acc
