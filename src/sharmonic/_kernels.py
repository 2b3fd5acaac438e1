"""Hot numerical kernels, vectorized with numpy.

All kernels operate on plain float64 arrays.  Each derivative is split
into its point-independent coefficients, built once per combination and
order (block_coefficients, series_derivative), and the per-point step
that consumes them (combo_derivatives, power_series_eval).  The power
series step runs Horner's rule in place, and on Python floats, the same
IEEE operations, for a single point.  The exact work lives elsewhere;
a combination with extended-precision coefficients comes here through
its derived float64 power series (series_derivative, power_series_eval).
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


def block_coefficients(cs: np.ndarray, rs: np.ndarray, s: float, order: int) -> np.ndarray:
    """Coefficient of each block's order-th derivative, cs * rs**order *
    s (s - 1) ... (s - order + 1), the falling factorial multiplied in
    that order."""
    fall = 1.0
    for l in range(order):
        fall *= s - l
    return cs * rs**order * fall


def combo_derivatives(ts: np.ndarray, coef: np.ndarray, rs: np.ndarray, p: float,
                      x) -> np.ndarray:
    """sum_k coef[k] * (rs[k]*x + ts[k])_+^p on an array of points: with coef
    from block_coefficients and p = s - order, the order-th derivative of
    sum_k cs[k] * (rs[k]*x + ts[k])_+^s."""
    return (coef[:, None] * _truncated_powers(ts, rs, np.asarray(x, dtype=np.float64), p)
            ).sum(axis=0)


def series_derivative(coefs, order: int) -> list[float]:
    """Coefficients of the order-th derivative of the power series sum_i
    coefs[i] x^i, lowest first, as Python floats, with the bits of
    numpy.polynomial's polyder(coefs, order).

    The coefficient of x^(i - order) is coefs[i] multiplied by i, i - 1,
    ..., i - order + 1 in that order (polyder's order); past the series
    the derivative is the one coefficient coefs[0] * 0, and an empty
    series is [0.0].
    """
    coefs = np.asarray(coefs, dtype=np.float64).tolist() or [0.0]
    order = int(order)
    if order < 0:
        raise ValueError("The order of derivation must be non-negative")
    if order >= len(coefs):
        return [coefs[0] * 0.0]
    der = coefs[order:]
    for l in range(order):
        der = [d * (i - l) for i, d in enumerate(der, order)]
    return der


def power_series_eval(coefs: list[float], x):
    """sum_i coefs[i] x^i by Horner's rule, with the bits of numpy.polynomial's
    polyval(x, coefs) for a non-empty list of Python floats.

    Horner's rule runs in place on one array (acc *= x; acc += c), starting
    from c_last + x * 0 as polyval does.  A Python float x runs the same
    IEEE operations on Python floats and returns a Python float; any other
    single point does the same and returns a float64 of x's shape.
    """
    if isinstance(x, float):
        acc = coefs[-1] + x * 0.0
        for c in coefs[-2::-1]:
            acc = c + acc * x
        return acc
    x = np.asarray(x, dtype=np.float64)
    if x.size == 1:
        acc = power_series_eval(coefs, x.item())
        return np.float64(acc) if x.ndim == 0 else np.full(x.shape, acc)
    acc = x * 0.0
    acc += coefs[-1]
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc
