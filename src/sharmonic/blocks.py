"""Truncated power blocks and their finite combinations.

A block is c * (r*x + t)_+^s with offset t > 0 and scale r in (0, 1].  On
the half line where its argument is positive the block solves the 1D
fractional Laplace equation of order s, which makes linear combinations of
blocks the building material for every construction in this package.

Matching the derivatives of a combination at the origin is, after scaling
rows and columns, a Vandermonde system in the reciprocal offsets 1/t_k.
Offsets and exponents are floats, hence exact dyadic rationals, so the
system is solved in integers over one denominator, with no gcd: one cached
integer inverse per node tuple, the values' right-hand sides as integer
numerators over one denominator, and the matched weights merged at the
chosen scale the same way; extended precision enters only where a
coefficient is rounded for storage.  The exact remainders of x^i modulo
the node polynomial bound a group's moments past its matched orders; that
bound is grouped by power of the scale r once per group, so the scale
search evaluates it in float arithmetic from a short table.

Combinations produced by the derivative-matching pipeline carry extended
precision coefficients: the raw block coefficients grow so large that
summing them in float64 loses all significant digits inside the working
interval.  The blocks are the only stored form.  Their power series at the
origin, a cancellation-free form of the same function, is derived from
them in extended precision when first needed and cached; it is the
float64-safe way to evaluate such combinations near the origin, used
wherever a bound on the terms it omits lies below its float64 rounding.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._dyadic import (MAGNITUDE_BITS, Dyadic, dps_to_prec, exact_sum, fixed_pow, from_str,
                      log10, parts, round_bits, rounded_pow, rounded_ratio, to_float, to_str)
from .errors import ApproximationError, DomainError

_EPS64 = 2.0**-52
_SERIES_CAP = 128  # most terms a derived group series keeps
_GUARD_BITS = 64  # working bits past the longest stored mantissa


def _finite(value) -> bool:
    # math.isfinite would raise OverflowError on an int too large for float64
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


@dataclass(frozen=True)
class SHBlock:
    """One truncated power block c * (r*x + t)_+^s.

    c is a python float or, where float64 cannot carry the coefficient
    without destroying the combination's interior cancellation, an exact
    binary fraction (_dyadic.Dyadic).  Any value with mpmath's raw tuple
    _mpf_, an mpmath.mpf among them, is stored as the Dyadic of that tuple,
    refused past _dyadic.MAGNITUDE_BITS = 2^17 in binary magnitude |exponent
    + bit length|, as exact decimal I/O needs.  No build comes near: a built
    coefficient is Y_k t_k^-s, t_k in [2, 3], Y_k = sum_j y_k^(j) r^-j, j <=
    N <= 64, r >= 2^-1022 (match_polynomial).  Above, |Y_k| < 2^68218: r^-j
    <= 2^65408 times an inverse Vandermonde entry (< 2^349), j! c_j (<
    2^1321) and 1 / |fall(s, j)| <= 1 / (s (1 - s)) <= 2^1127, in 65^2 terms.
    Below, |Y_k| > 2^-74191, one over _merge's denominator for s = p / q and
    r = u / 2^a: 2^605 2^1074 prod_(l<N) |p - l q| u^N < 2^(605 + 1074 +
    64 1080 + 64 53).
    """

    t: float
    c: object
    r: float = 1.0

    def __post_init__(self):
        if not isinstance(self.t, (int, float, np.floating)):
            raise DomainError(f"block offset must be a float, got {type(self.t)}")
        if not (self.t > 0) or not _finite(self.t):
            raise DomainError(f"block offset must be positive and finite, "
                              f"got t={reprlib.repr(self.t)}")
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"block scale must lie in (0, 1], got r={self.r}")
        if isinstance(self.c, (int, float)):
            if not _finite(self.c):
                raise DomainError(f"block coefficient must be finite, "
                                  f"got c={reprlib.repr(self.c)}")
            object.__setattr__(self, "c", float(self.c))
        elif not hasattr(self.c, "_mpf_"):
            raise DomainError(f"block coefficient must be float or mpf, got {type(self.c)}")
        else:
            sign, man, exp, bc = self.c._mpf_
            if not man and exp:  # mpmath's inf and nan
                raise DomainError("block coefficient must be finite")
            if man and abs(exp + bc) > MAGNITUDE_BITS:
                raise DomainError(f"block coefficient of binary magnitude {exp + bc} lies past "
                                  f"2^+-{MAGNITUDE_BITS} (_dyadic.MAGNITUDE_BITS); rescale it")
            object.__setattr__(self, "c", Dyadic((sign, int(man), exp, bc)))

    @property
    def kink(self) -> float:
        """Location -t/r where the block stops being smooth."""
        return -self.t / self.r


@dataclass(frozen=True)
class SHCombo:
    """Finite combination of blocks sharing one exponent s.

    interval is the working interval for approximation statements; the
    combination itself is defined and smooth on (max_k kink_k, +inf).
    """

    s: float
    blocks: tuple[SHBlock, ...]
    interval: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"exponent must lie in (0, 1), got s={self.s}")
        # the empty combination is allowed: it is the exact zero function
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.interval) != 2:
            raise DomainError(f"working interval must be a pair (a, b), got {self.interval}")
        a, b = self.interval
        if not (a < b) or not (np.isfinite(a) and np.isfinite(b)):
            raise DomainError(f"invalid interval {self.interval}")
        object.__setattr__(self, "interval", (float(a), float(b)))

    @functools.cached_property
    def kinks(self) -> tuple[float, ...]:
        return tuple(sorted({b.kink for b in self.blocks}))

    @functools.cached_property
    def has_mp_coefficients(self) -> bool:
        return any(isinstance(b.c, Dyadic) for b in self.blocks)

    @functools.cached_property
    def radius(self) -> float:
        """Smallest 0.5 * t / r over the blocks: the power series is used
        only for |x| below it."""
        return min((0.5 * b.t / b.r for b in self.blocks), default=math.inf)

    @functools.cached_property
    def groups(self) -> tuple[tuple[SHBlock, ...], ...]:
        """The blocks grouped by scale r, in order of first appearance."""
        groups = {}
        for b in self.blocks:
            groups.setdefault(b.r, []).append(b)
        return tuple(tuple(g) for g in groups.values())

    @functools.cached_property
    def _group_series(self) -> tuple[tuple[np.ndarray, float, float], ...]:
        """(coefficients, log10(|binom(s, m)| W), r / t_min) of each group's
        derived series of m terms (see _group_taylor)."""
        return tuple(_group_taylor(self.s, g) + (g[0].r / min(b.t for b in g),)
                     for g in self.groups)

    @functools.cached_property
    def taylor(self) -> np.ndarray:
        """Power series coefficients at the origin, summed over the groups."""
        out = np.zeros(max((c.size for c, _, _ in self._group_series), default=0))
        for coefs, _, _ in self._group_series:
            out[:coefs.size] += coefs
        return out

    def series_error(self, xmax: float, order: int) -> float:
        """Bound on the terms omitted by the derived series of each group,
        of the order-th derivative for |x| <= xmax (see _omitted_bound)."""
        return sum(_omitted_bound(self.s, c.size, log_lead, p, xmax, order)
                   for c, log_lead, p in self._group_series)

    @functools.cached_property
    def float_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, c, r) float64 arrays; raises if coefficients need extended precision."""
        cs = np.array([float(b.c) for b in self.blocks])
        if not np.all(np.isfinite(cs)):
            raise DomainError("block coefficients overflow float64")
        ts = np.array([b.t for b in self.blocks])
        rs = np.array([b.r for b in self.blocks])
        for a in (ts, cs, rs):
            a.flags.writeable = False
        return ts, cs, rs

    @functools.cached_property
    def _derivative_tables(self) -> dict:
        return {}

    def derivative_table(self, order: int):
        """What the order-th derivative needs that does not depend on the
        point, built on first use and kept by this combination.

        With extended-precision coefficients: the derivative's series
        coefficients (_kernels.series_derivative of taylor) and their
        absolute values |c_i| i!/(i - order)!, both as lists of Python
        floats.  Otherwise: each block's coefficient cs * rs**order *
        s (s - 1) ... (s - order + 1) (_kernels.block_coefficients).
        """
        table = self._derivative_tables.get(order)
        if table is None:
            if self.has_mp_coefficients:
                der = _kernels.series_derivative(self.taylor, order)
                table = der, [abs(d) for d in der]
            else:
                _, cs, rs = self.float_arrays
                table = _kernels.block_coefficients(cs, rs, self.s, order)
            self._derivative_tables[order] = table
        return table


# ---------------------------------------------------------------------------
# evaluation


def _omitted_bound(s: float, m: int, log_lead: float, p: float, xmax: float,
                   order: int) -> float:
    """Bound on the terms i >= m of the order-th derivative of a group's
    series for |x| <= xmax, with log_lead = log10(|binom(s, m)| W).

    With W = sum_k |c_k| t_k^s and p = r / t_min, term i is at most
    |binom(s, i)| (i)_order W p^order q^(i-order), q = p xmax; from i = m on
    consecutive terms shrink at least by rho q, rho = max(1, (m - s) / (m +
    1 - order)), so the tail is at most the first term over 1 - rho q.
    """
    q = p * xmax
    if order >= m:
        return math.inf
    if q == 0.0 or log_lead == -math.inf:
        return 0.0
    rho_q = max(1.0, (m - s) / (m + 1 - order)) * q
    if rho_q >= 1.0:
        return math.inf
    log_bound = (log_lead + math.log10(math.perm(m, order)) + order * math.log10(p)
                 + (m - order) * math.log10(q) - math.log10(1.0 - rho_q))
    return 10.0 ** log_bound if log_bound < 300.0 else math.inf


@functools.lru_cache(maxsize=256)
def _group_taylor(s: float, blocks: tuple[SHBlock, ...]) -> tuple[np.ndarray, float]:
    """Coefficients of x^0 .. x^(m - 1) for blocks sharing one scale r,
    binom(s, i) r^i sum_k c_k t_k^(s-i), and log10(|binom(s, m)| W) with W
    = sum_k |c_k| t_k^s.  Each coefficient is computed in integers at the
    precision of the longest stored mantissa plus guard bits and rounded
    once to float64: c_k t_k^s from _dyadic.fixed_pow, divided by t_k = n_k
    2^e_k once per order, floored, as (D 2^b / n_k) 2^-(b + e_k) with b the
    bit length of the odd n_k, the blocks summed exactly, and binom(s, i)
    r^i kept to the same bits plus 64.  The series stops at the first m at
    which, for each order 0..4, the bound on the omitted terms at |x| = 1
    (see _omitted_bound) lies below 2^-52 times that order's own absolute
    series sum_i |c_i| i!/(i-order)!, or at _SERIES_CAP terms."""
    p = blocks[0].r / min(b.t for b in blocks)
    # the longest stored mantissa, 53 bits for float64, plus guard bits
    w = max(b.c._mpf_[3] if isinstance(b.c, Dyadic) else 53 for b in blocks) + _GUARD_BITS
    sn, sd = s.as_integer_ratio()
    rn, re = parts(blocks[0].r)
    terms, steps = [], []  # c_k t_k^(s-i) = d_k 2^f_k; per block (n_k, b_k, b_k + e_k)
    for b in blocks:
        (cm, ce), (tm, te) = parts(b.c), parts(b.t)
        x, _, f = fixed_pow(tm, te, sn, sd, w)
        terms.append((cm * x, ce + f))
        steps.append((tm, tm.bit_length(), tm.bit_length() + te))
    mass, low = exact_sum((abs(d), f) for d, f in terms)
    log_lead = log10(mass, low) if mass else -math.inf  # at m = 0
    bm, be = 1 << (w + 64), -w - 64  # binom(s, i) r^i = bm 2^be
    coefs, abs_series = [], [0.0] * 5
    for i in range(_SERIES_CAP):
        total, low = exact_sum(terms)
        coefs.append(to_float(bm * total, be + low))
        for order in range(5):
            abs_series[order] += abs(coefs[i]) * math.perm(i, order)
        terms = [((d << bits) // tm, f - shift)
                 for (d, f), (tm, bits, shift) in zip(terms, steps)]
        bm, be = bm * (sn - i * sd) * rn // (i + 1), be + re + 1 - sd.bit_length()
        cut = max(0, abs(bm).bit_length() - w - 64)
        bm, be = bm >> cut, be + cut
        log_lead += math.log10(abs(s - i) / (i + 1))
        if all(_omitted_bound(s, i + 1, log_lead, p, 1.0, order)
               <= _EPS64 * abs_series[order] for order in range(5)):
            break
    out = np.array(coefs)
    out.flags.writeable = False  # shared by every combination holding the group
    return out, log_lead


def _combo_eval_mp(combo: SHCombo, xs: np.ndarray, order: int) -> np.ndarray:
    """Per-point sum of the blocks' order-th derivatives c_k r_k^order
    s (s-1) ... (s-order+1) (r_k x + t_k)^(s-order), in integers: r_k x +
    t_k exact, each power from _dyadic.fixed_pow at 28 digits (plus 32
    bits) past the digits of sum_k |c_k| (t_k + r_k max|x|)^s, the terms
    summed exactly and rounded once to float64."""
    s = combo.s
    xmax = float(np.max(np.abs(xs))) if xs.size else 1.0
    logs = []
    for b in combo.blocks:
        if b.c:
            cm, ce = parts(b.c)
            logs.append(log10(abs(cm), ce) + s * math.log10(b.t + b.r * xmax))
    digits = 0
    if logs:
        top = max(logs)
        digits = max(0, math.ceil(top + math.log10(sum(10.0 ** (v - top) for v in logs))))
    w = dps_to_prec(28 + digits) + 32
    sn, sd = s.as_integer_ratio()
    fall = math.prod(sn - j * sd for j in range(order))  # s (s-1) ... over sd^order
    shift = order * (sd.bit_length() - 1)
    blocks = []  # (c r^order fall as m 2^e, r, t as integer pairs)
    for b in combo.blocks:
        (cm, ce), (rm, re), (tm, te) = parts(b.c), parts(b.r), parts(b.t)
        blocks.append((cm * rm**order * fall, ce + re * order - shift, rm, re, tm, te))
    out = np.empty(xs.shape)
    for i, x in enumerate(xs):
        xm, xe = parts(float(x))
        acc = []
        for c, ce, rm, re, tm, te in blocks:
            arg, low = exact_sum(((rm * xm, re + xe), (tm, te)))
            if arg > 0 and c:
                v, _, f = fixed_pow(arg, low, sn - order * sd, sd, w)
                acc.append((c * v, ce + f))
        out[i] = to_float(*exact_sum(acc))
    return out


def _nonfinite_points(xs) -> DomainError:
    """The error naming the first point of a float or an array that is not finite."""
    bad = xs if isinstance(xs, float) else xs[~np.isfinite(xs)][0]
    return DomainError(f"points must be finite, got x={bad}")


def combo_derivative(combo: SHCombo, x, order: int = 0):
    """Derivative of the combination at scalar or array x.

    Orders 0..2 are certified on the working interval; higher orders are
    computed with the same formulas but without accuracy guarantees near
    the matching scale.  At a kink the one-sided dead value 0 is used.
    Every call reads the combination's table for the order (see
    SHCombo.derivative_table), built once per combination and order.
    A combination with extended precision coefficients goes through its
    derived power series when every |x| is below its radius and the bound
    on the omitted terms is below the float64 rounding of the series
    itself, 2^-52 times the absolute series at max |x|, and through the
    per-point sum (_combo_eval_mp) otherwise.  The series route is
    _kernels.power_series_eval, Horner's rule over the table: in place on
    one array, or, like the rounding test, on Python floats for a scalar
    or 0-d x.  A point that is not finite raises DomainError.
    """
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = float(x) if scalar else np.atleast_1d(np.asarray(x, dtype=float))
    table = combo.derivative_table(order)
    if combo.has_mp_coefficients:
        der, weights = table
        xmax = abs(xs) if scalar else float(np.max(np.abs(xs), initial=0.0))
        if not math.isfinite(xmax):
            raise _nonfinite_points(xs)
        if (xmax < combo.radius and combo.series_error(xmax, order)
                <= _EPS64 * _kernels.power_series_eval(weights, xmax)):
            return _kernels.power_series_eval(der, xs)
        out = _combo_eval_mp(combo, np.atleast_1d(xs), order)
    else:
        if not (math.isfinite(xs) if scalar else np.isfinite(xs).all()):
            raise _nonfinite_points(xs)
        ts, _, rs = combo.float_arrays
        out = _kernels.combo_derivatives(ts, table, rs, float(combo.s) - order,
                                         np.atleast_1d(xs))
    return float(out[0]) if scalar else out


def combo_eval(combo: SHCombo, x):
    """Value of the combination at scalar or array x."""
    return combo_derivative(combo, x, 0)


# ---------------------------------------------------------------------------
# derivative matching


@functools.lru_cache(maxsize=64)
def _node_polynomial(nodes: tuple[float, ...]) -> tuple[int, ...]:
    """Coefficients, constant term first, of P(x) = prod_k (b_k x - a_k) for
    1/t_k = a_k / b_k in lowest terms: by Gauss's lemma (P's content is
    prod_k gcd(a_k, b_k) = 1) the least integer multiple of prod_k (x - 1/t_k)."""
    poly = [1]
    for t in nodes:
        b, a = t.as_integer_ratio()
        nxt = [0] + [b * c for c in poly]
        for i, c in enumerate(poly):
            nxt[i] -= a * c
        poly = nxt
    return tuple(poly)


@functools.lru_cache(maxsize=64)
def _vandermonde_inverse(nodes: tuple[float, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exact inverse of V[i][k] = (1/t_k)^i as an integer matrix N and one
    denominator D > 0, V^-1 = N / D.  Row k holds the Lagrange polynomial
    b_k^(n-1) Q_k(x) / E_k: Q_k = P / (b_k x - a_k) (_node_polynomial) by one
    exact synthetic division by the power of two a_k, and E_k = prod_{m != k}
    (a_k b_m - a_m b_k) = b_k^(n-1) Q_k(a_k / b_k); D = lcm_k |E_k|."""
    poly, ratios = _node_polynomial(nodes), [t.as_integer_ratio() for t in nodes]
    n = len(nodes)
    quots, lagrange = [], []
    for k, (b, a) in enumerate(ratios):
        quot = [-poly[0] // a]
        for i in range(1, n):
            quot.append((b * quot[-1] - poly[i]) // a)
        quots.append(quot)
        lagrange.append(math.prod(a * bm - am * b for m, (bm, am) in enumerate(ratios) if m != k))
    den = math.lcm(*lagrange)
    factors = [b ** (n - 1) * (den // e) for (b, _), e in zip(ratios, lagrange)]
    return tuple(tuple(c * f for c in quot) for quot, f in zip(quots, factors)), den


def _exact_match(values: Sequence, nodes: Sequence[float], s: float, denominator: int = 1):
    """Checked nodes t, a tuple, and b_i = d_i / fall(s, i) for d_i = values[i]
    / denominator (ints, or floats and Fractions by as_integer_ratio, over a
    positive int) as (t, [u_0 .. u_J], v), b_i = u_i / v, with no gcd: s = p /
    q, fall(s, i) = F_i / q^i, F_i = prod_(l<i) (p - l q), each F_i divides F_J.
    The column y^(j) = V^-1 e_j b_j, V[i][k] = (1/t_k)^i, matches degree j alone."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    for d in values:  # numpy integers have no as_integer_ratio
        if not hasattr(d, "as_integer_ratio") and not isinstance(d, np.integer):
            raise DomainError(f"derivative values must be int, float or Fraction, got {type(d)}")
    try:  # an int's, a float's or a Fraction's ratio takes no gcd
        ratios = [(int(d), 1) if isinstance(d, np.integer) else d.as_integer_ratio()
                  for d in values]
    except (OverflowError, ValueError):
        ratios = []
    if not ratios:
        raise DomainError("derivative values must be finite and at least one")
    if type(denominator) is not int or denominator <= 0:
        raise DomainError(f"denominator must be a positive int, got {reprlib.repr(denominator)}")
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size != len(values):
        raise DomainError(f"need exactly {len(values)} nodes for {len(values)} derivative "
                          f"values, got {t.size}")
    t = tuple(t.tolist())
    if not all(0.0 < tk < math.inf for tk in t):
        raise DomainError("matching nodes must be positive and finite")
    if len(set(t)) != len(t):
        raise DomainError("matching nodes must be distinct")
    p, q = s.as_integer_ratio()
    falls = [1]
    for i in range(len(t) - 1):
        falls.append(falls[-1] * (p - i * q))
    common, whole, shift = math.lcm(*(v for _, v in ratios)), abs(falls[-1]), q.bit_length() - 1
    rhs = [u * (common // v) * (whole // f) << shift * i
           for i, ((u, v), f) in enumerate(zip(ratios, falls))]
    return t, rhs, common * denominator * whole


def _merge(t: tuple[float, ...], rhs: list[int], den: int, r: float) -> tuple[list[int], int]:
    """Y_k = sum_j y_k^(j) r^-j for b_j = rhs[j] / den as numerators over one
    denominator: with V^-1 = N / D (_vandermonde_inverse), r = p / 2^a and
    J the top degree, Y_k = sum_j N_kj u_j 2^(a j) p^(J-j) / (D v p^J), by
    Horner's rule in p: each step multiplies the sum by p alone."""
    inverse, inv_den = _vandermonde_inverse(t)
    p, q = r.as_integer_ratio()
    shift, top = q.bit_length() - 1, max(j for j, u in enumerate(rhs) if u)
    merged = []
    for row in inverse:
        acc = 0
        for j in range(top + 1):
            acc = acc * p + (row[j] * rhs[j] << shift * j)
        merged.append(acc)
    return merged, inv_den * den * p**top


@functools.lru_cache(maxsize=4096)
def _inverse_power(t: float, s: float, dps: int) -> Dyadic:
    """t^-s rounded to nearest at dps digits (_dyadic.rounded_pow)."""
    return rounded_pow(t, -s, dps_to_prec(dps))


def _block_coefficients(nums: list[int], den: int, t: np.ndarray, s: float,
                        dps: int) -> list[Dyadic]:
    """Coefficients y_k t_k^-s at dps digits, y_k = nums[k] / den, den > 0: y_k
    is rounded once, correctly, as libmp.from_rational would, so the result
    depends on its value alone, not on its terms; its product with t_k^-s
    (_inverse_power) is rounded once more, to nearest."""
    prec = dps_to_prec(dps)
    out = []
    for num, tk in zip(nums, t):
        sign, ym, ye, _ = rounded_ratio(num, den, prec)
        _, pm, pe, _ = _inverse_power(float(tk), s, dps)._mpf_
        man, exp = round_bits(ym * pm, ye + pe, prec)
        out.append(Dyadic((sign, man, exp, man.bit_length())))
    return out


@functools.lru_cache(maxsize=32)
def _bound_tables(t: tuple[float, ...], s: float) -> tuple:
    """_defect_model's tables for n = N + 1 degrees j, I = 2N + 14 and one
    column per power of r: terms (n, 3N + 14), log10 |binom(s, i) R_ij| at
    r^(i-j) for i = N+1 .. 2N+13 and log10(|binom(s, I)| t_min^-I sum_k
    |N_kj| / D) at the tail's r^(I-j), else -inf; weights (4, n, 3N + 14),
    i!/(i-m)! at the rows' places for m <= 2 and 1 at the tail's; the
    powers; I!/(I-m)! and rho_m = max(1, (I - s) / (I + 1 - m)).

    R_ij, the x^j coefficient of x^i mod P(x) = prod_k (x - 1/t_k), so that
    x_k^i = sum_j R_ij x_k^j at x_k = 1/t_k, is V_ij / L^(i-n+1) for Q = L P
    the least integer multiple of P (_node_polynomial): V_n = -(Q_0 ..
    Q_(n-1)) and V_(i+1),l = L V_i,(l-1) - V_i,(n-1) Q_l."""
    master = _node_polynomial(t)
    n, first, lead = len(t), 2 * len(t) + 12, master[-1]
    row, log_rows = [-c for c in master[:-1]], np.empty((n + 12, n))
    for e in range(n + 12):
        log_rows[e] = [math.log10(abs(v)) - (e + 1) * math.log10(lead) if v else -math.inf
                       for v in row]
        row = [lead * v - row[-1] * c for v, c in zip([0] + row[:-1], master)]
    steps = np.arange(first)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log10(np.abs(s - steps) / (steps + 1)))))
    j = np.arange(n)[:, None]
    i = j + np.arange(1, first)  # the row of degree j that carries r^e, e = column + 1
    reached = (i >= n) & (i < first)
    i = np.where(reached, i, n)
    inverse, den = _vandermonde_inverse(t)
    tail = float(log_binom[first]) - first * math.log10(min(t)) - math.log10(den)
    leads = [tail + math.log10(sum(abs(v[k]) for v in inverse)) for k in range(n)]
    terms = np.hstack((np.where(reached, log_binom[i] + log_rows[i - n, j], -np.inf),
                       np.where(np.eye(n, dtype=bool), np.array(leads)[:, None], -np.inf)))
    weights = np.zeros((4, n, terms.shape[1]))
    weights[:3, :, :first - 1] = np.where(reached, np.array([i**0, i, i * (i - 1)]), 0)
    weights[3, :, first - 1:] = np.eye(n)
    powers = np.concatenate((np.arange(1, first), first - np.arange(n)))
    return (terms, weights, powers, tuple(float(math.perm(first, m)) for m in range(3)),
            tuple(max(1.0, (first - s) / (first + 1 - m)) for m in range(3)))


def _defect_model(values: Sequence, nodes: Sequence[float], s: float, eps: float,
                  dropped: float = 0.0, denominator: int = 1):
    """_exact_match's (t, (rhs, v)) and the function r -> (B_0, B_1, B_2)
    bounding on [-1, 1] the m-th derivative of the deviation from p(x) =
    sum_j d_j x^j / j!, d_j = values[j] / denominator, of the group
    match_polynomial stores at scale r for budget eps, plus dropped.

    Column j alone gives sum_k a_k (r x + t_k)^s, a_k = y_k^(j) t_k^-s r^-j,
    which expands to sum_i binom(s, i) r^(i-j) M_i x^i with M_i = sum_k
    y_k^(j) (1/t_k)^i.  The matching makes M_i = b_j delta_ij for i <= N;
    past N, M_i = R_ij b_j (see _bound_tables).  Unrounded, the group is
    the sum of the columns' terms, so with q = r / t_min <= 1/16, B_m bounds
    sum_j sum_{i>N} |beta_i| i!/(i-m)! by three parts:

    * rows: those terms, exactly, for i = N+1 .. 2N+13;
    * tail: from I = 2N+14 on, |M_i| <= Y_j t_min^-i with Y_j = sum_k
      |y_k^(j)| = |b_j| sum_k |N_kj| / D, so those terms are what
      _omitted_bound bounds for m = I, W = sum_j Y_j r^-j, p = q and xmax
      = 1: I!/(I-m)! T / (1 - rho_m q), T = sum_j |binom(s, I)| Y_j
      t_min^-I r^(I-j);
    * storage: each stored a_k = Y_k t_k^-s, Y_k = sum_j y_k^(j) r^-j, is
      rounded by a relative delta with delta Y <= 1e-32 eps, Y = sum_k
      |Y_k|, which moves order i, matched ones included, by at most
      |binom(s, i)| r^i t_min^-i delta Y <= 1e-32 eps q^i; with i!/(i-m)!
      that sums to 1e-32 eps m! q^m / (1-q)^(m+1), once for all columns.

    The rows and T are grouped once per model by power of r: the terms of
    one power add to 10^top S_m, top their largest log10 and S_m the sum
    of i!/(i-m)! 10^(x - top), so a bound call is one power of ten per
    power of r and one product with S.  Rounding: log10 |b_j| and T's
    leads are math.log10 of the integers, and every exponent stays below
    3e4 in magnitude, so each power of ten, in S or in a call, is
    within 1e-10 relative, and a term within 2e-10 + 2^-52 with the exact
    weights and the product.  Sums of fewer than 2^11 terms add 2^-42
    twice, and terms that underflow lose less than 2^-1000.  So B_m is the
    sum, dropped included, times 1 + 1e-9, plus 2^-1000.
    """
    t, rhs, den = _exact_match(values, nodes, s, denominator)
    if len(t) == 1 or not any(rhs):
        raise DomainError(f"need matching order N >= 1 and a nonzero value, got N={len(t) - 1}")
    if not (eps > 0) or not math.isfinite(eps):
        raise DomainError(f"tolerance must be positive and finite, got {eps}")
    terms, weights, powers, falls, rhos = _bound_tables(t, s)
    log_b = np.array([math.log10(abs(u)) if u else -math.inf for u in rhs]) - math.log10(den)
    x = terms + log_b[:, None]
    top = x.max(axis=0)
    top[top == -np.inf] = 0.0  # a power no kept degree reaches: its S stays 0
    table = np.einsum("mjc,jc->mc", weights, 10.0 ** (x - top))
    t_min = min(t)

    def bound(r: float) -> np.ndarray:
        q = r / t_min
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (table @ 10.0 ** (top + powers * math.log10(r))).tolist()
        # a power of ten past float64 is inf, or NaN where it meets a 0 of the table
        *rows, tail = [v if v == v else math.inf for v in sums]
        return np.array([(rows[m] + falls[m] * tail / (1.0 - rhos[m] * q)
                          + 1e-32 * eps * (1.0, q, 2.0 * q * q)[m] / (1.0 - q) ** (m + 1)
                          + dropped) * (1.0 + 1e-9) + 2.0**-1000 for m in range(3)])

    return t, (rhs, den), bound


def _bisect_scale(cap: float, passes) -> tuple[float, float]:
    """The scale bisection: on log r from sys.float_info.min to cap, with
    mid = sqrt(lo) sqrt(hi) kept as lo where passes(mid), until hi <= 1.001
    lo; the final (lo, hi)."""
    lo, hi = sys.float_info.min, cap
    while hi > lo * 1.001:
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo, hi


def _scale_bracket(worst, cap: float, top: float, eps: float,
                   slope: int) -> tuple[float, float]:
    """A pass point a, worst(a) <= eps (1 - 1e-9), and a fail point b,
    worst(b) > eps (1 + 1e-9) or b = cap, of worst(r) = max_m B_m(r) from
    at most six rounds of probes, given worst(cap) = top > eps; a = 0.0
    when no pass point turns up.

    log B is convex and nondecreasing in log r, with slope at least slope =
    N + 1 - j, j the largest matched degree, where the exact rows dominate.
    Until a pass point is found, a round probes one step of that slope down
    from b to the budget.  Then the estimate is the secant in log-log
    through the two probes nearest the budget: while the last probe is more
    than 10% off the budget the round probes the estimate, after that both
    ends of the bisection's final bracket around it (_bisect_scale), which
    leave the replay nothing to call when they hold the crossing.
    """
    log_eps = math.log(eps)
    a, b, log_b = 0.0, cap, math.log(top)
    logs = {log_b: math.log(cap)}  # log worst(r) -> log r of each probe
    last = log_b
    for _ in range(6):
        if a == 0.0:
            c = math.log(b) - (log_b - log_eps) / slope
        else:
            (l0, x0), (l1, x1) = sorted(logs.items(), key=lambda p: abs(p[0] - log_eps))[:2]
            c = x0 + (log_eps - l0) * (x1 - x0) / (l1 - l0)
        c = min(max(math.exp(min(c, 0.0)), a * 1.0001), b * 0.9999)
        near = a and abs(last - log_eps) < 0.1
        probed = False
        for x in _bisect_scale(cap, lambda mid: mid <= c) if near else (c,):
            if not max(a, sys.float_info.min) < x < b:
                continue  # known, from an earlier probe
            value, probed = worst(x), True
            if value <= eps * (1.0 - 1e-9):
                a = x
            elif value > eps * (1.0 + 1e-9):
                b, log_b = x, math.log(value)
            last = math.log(value)
            logs[last] = math.log(x)
        if not probed:
            break
    return a, b


def match_polynomial(values: Sequence, nodes: Sequence[float], s: float, eps: float,
                     dropped: float = 0.0, denominator: int = 1) -> tuple[SHCombo, np.ndarray]:
    """The group of len(nodes) blocks at one scale r matching sum_j d_j x^j
    / j!, d_j = values[j] / denominator (floats, ints or Fractions over a
    positive int), to order N = len(nodes) - 1 at the origin, at the
    largest r in (0, min(1, t_min / 16)] whose _defect_model bound is at
    most eps at every order m <= 2, and that bound (B_0, B_1, B_2) at r.

    r is the cap when the cap meets the budget, else the final lower end of
    _bisect_scale, which keeps each mid whose max_m B_m is at most eps; a
    budget that sys.float_info.min misses raises ApproximationError.  The
    bound is a positive sum of nondecreasing powers of r, so the pass point
    a and fail point b of _scale_bracket decide every mid at or below a or
    at or above b, and only the mids between them call the bound again.

    At one scale the columns' groups share their blocks (r x + t_k)^s, so
    their coefficients add: a_k = Y_k t_k^-s, Y_k = sum_j y_k^(j) r^-j,
    summed exactly over one denominator (_merge).  Each a_k is formed by
    three roundings at 25 + int(log10((1 + Y) / eps) + 8) digits, Y = sum_k
    |Y_k|, so its relative error delta is below 10^-digits and delta Y
    below 1e-32 eps, the storage allowance of the bound.
    """
    t, (rhs, den), bound = _defect_model(values, nodes, s, eps, dropped, denominator)
    seen = {}  # r -> bound(r)

    def worst(r: float) -> float:
        seen[r] = bound(r)
        return float(np.max(seen[r]))

    r = min(1.0, min(t) / 16.0)  # r <= 1; r / t_min <= 1/16 keeps the derived series short
    top = worst(r)
    if top > eps:
        degrees = [j for j, u in enumerate(rhs) if u]
        a, b = _scale_bracket(worst, r, top, eps, len(t) - degrees[-1])
        if a == 0.0 and worst(sys.float_info.min) > eps:
            raise ApproximationError(
                f"no float64 scale meets the defect budget {eps:.3e} for the monomials "
                f"of degree {', '.join(map(str, degrees))}; raise epsilon")
        r, _ = _bisect_scale(r, lambda mid: mid <= a or (mid < b and worst(mid) <= eps))
    nums, den = _merge(t, rhs, den, r)
    mass = den + sum(map(abs, nums))  # over den, reduced once; r^-j may pass float64
    g = math.gcd(mass, den)
    dps = 25 + int(math.log10(mass // g) - math.log10(den // g) - math.log10(eps) + 8)
    coeffs = _block_coefficients(nums, den, t, s, dps)
    group = SHCombo(s, tuple(SHBlock(tk, ck, r) for tk, ck in zip(t, coeffs)))
    return group, seen[r] if r in seen else bound(r)


# ---------------------------------------------------------------------------
# serialization


def _format_coefficient(value) -> str:
    """A float's shortest round-trip form, or a Dyadic with every digit its
    mantissa needs, at least 20."""
    if isinstance(value, Dyadic):
        return to_str(value._mpf_, max(20, int(value._mpf_[3] * 0.30103) + 5))
    return repr(float(value))


def combo_to_json(combo: SHCombo) -> str:
    """Deterministic JSON for a combination.

    Block coefficients carrying extended precision are written with all of
    their digits; standard floats use their shortest round-trip form.  The
    schema is a plain list of blocks: the power series is derived from the
    blocks of the loaded combination when it is first evaluated.
    """
    a, b = combo.interval
    blocks = ",\n".join(f'    {{"t": {float(blk.t)!r}, "c": {_format_coefficient(blk.c)}, '
                        f'"r": {float(blk.r)!r}}}' for blk in combo.blocks)
    return (f'{{\n  "s": {float(combo.s)!r},\n  "interval": [{float(a)!r}, {float(b)!r}],\n'
            f'  "blocks": [\n{blocks}\n  ]\n}}\n')


def combo_from_json(text: str) -> SHCombo:
    """Parse a combination, keeping extended precision coefficients intact.

    Accepts either a bare combination object or a report artifact that
    stores the combination under a "combo" key.  A coefficient of more
    than 17 significant digits is read as a Dyadic at 10 digits past its
    own, its exact value rounded once to nearest (_dyadic.from_str).
    """
    try:
        raw = json.loads(text, parse_float=str, parse_int=str)
        if isinstance(raw, dict) and "blocks" not in raw and "combo" in raw:
            raw = raw["combo"]
        s = float(raw["s"])
        interval = tuple(float(v) for v in raw["interval"])
        blocks = []
        for item in raw["blocks"]:
            t, r, cstr = float(item["t"]), float(item["r"]), str(item["c"])
            digits = len(cstr.split("e")[0].split("E")[0].replace("-", "").replace(".", "")
                         .lstrip("0"))
            c = Dyadic(from_str(cstr, dps_to_prec(digits + 10))) if digits > 17 else float(cstr)
            blocks.append(SHBlock(t, c, r))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise DomainError(f"malformed combination JSON: {exc}") from exc
    return SHCombo(s, tuple(blocks), interval)
