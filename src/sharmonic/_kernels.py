"""Hot numerical kernels, vectorized with numpy.

All kernels operate on plain float64 arrays.  Extended-precision paths
live elsewhere and never call into this module.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P


def _truncated_powers(ts: np.ndarray, rs: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """(rs[k]*x + ts[k])_+^p for every block k and point; 0 on the dead side.

    The power is only taken where the argument is positive, so a point on
    a kink with p < 0 gives 0 instead of a division by zero.
    """
    arg = rs[:, None] * x[None, :] + ts[:, None]
    return np.power(arg, p, out=np.zeros_like(arg), where=arg > 0.0)


def combo_values(ts, cs, rs, s, x):
    """Evaluate sum_k cs[k] * (rs[k]*x + ts[k])_+^s on an array of points."""
    ts, cs, rs, x = (np.asarray(a, dtype=np.float64) for a in (ts, cs, rs, x))
    return (cs[:, None] * _truncated_powers(ts, rs, x, float(s))).sum(axis=0)


def combo_derivatives(ts, cs, rs, s, x, order):
    """Evaluate the order-th derivative of the block sum on an array of points."""
    ts, cs, rs, x = (np.asarray(a, dtype=np.float64) for a in (ts, cs, rs, x))
    fall = 1.0
    for l in range(order):
        fall *= s - l
    coef = cs * rs**order * fall
    return (coef[:, None] * _truncated_powers(ts, rs, x, float(s) - order)).sum(axis=0)


def power_series_eval(exps, coefs, x, order):
    """Evaluate the order-th derivative of a sparse integer-exponent power
    series by Horner's rule on its dense coefficient vector."""
    exps = np.asarray(exps, dtype=np.int64)
    dense = np.zeros(int(exps.max()) + 1 if exps.size else 1)
    np.add.at(dense, exps, np.asarray(coefs, dtype=np.float64))
    return P.polyval(np.asarray(x, dtype=np.float64), P.polyder(dense, int(order)))
