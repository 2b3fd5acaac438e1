"""Truncated power blocks and their finite combinations.

A block is c * (r*x + t)_+^s with offset t > 0 and scale r in (0, 1].  On
the half line where its argument is positive the block solves the 1D
fractional Laplace equation of order s, which makes linear combinations of
blocks the building material for every construction in this package.

Matching the derivatives of a combination at the origin is, after scaling
rows and columns, a Vandermonde system in the reciprocal offsets 1/t_k.
Offsets and exponents are floats, hence exact dyadic rationals, so the
system is solved exactly in integers, with no gcd per operation: one
cached integer inverse over one denominator per node tuple, solutions as
integer numerators over one shared denominator; extended precision enters
only where a coefficient is rounded for storage.  The exact remainders of
x^i modulo the same node polynomial give a matched group's moments past
its matched orders, from which its deviation is bounded and its scale r
chosen in float arithmetic.

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
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import mpf, workdps, workprec
from mpmath.libmp import dps_to_prec, from_int, from_str, mpf_div, round_nearest

from . import _kernels
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

    c may be a python float or an mpmath.mpf; extended precision is
    required when the coefficient magnitude exceeds what float64 can
    carry without destroying the combination's interior cancellation.
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
        elif not isinstance(self.c, mpf):
            raise DomainError(f"block coefficient must be float or mpf, got {type(self.c)}")
        elif not mpmath.isfinite(self.c):
            raise DomainError("block coefficient must be finite")

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
        return any(isinstance(b.c, mpf) for b in self.blocks)

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


# ---------------------------------------------------------------------------
# evaluation


def _mantissa_bits(blocks: Sequence[SHBlock]) -> int:
    """Longest stored coefficient mantissa in bits; 53 for float64."""
    return max((b.c._mpf_[3] if isinstance(b.c, mpf) else 53 for b in blocks), default=53)


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
    = sum_k |c_k| t_k^s.  Each coefficient is computed at the precision of
    the longest stored mantissa plus guard bits and rounded once to
    float64.  The series stops at the first m at which, for each order
    0..4, the bound on the omitted terms at |x| = 1 (see _omitted_bound)
    lies below 2^-52 times that order's own absolute series sum_i |c_i|
    i!/(i-order)!, or at _SERIES_CAP terms."""
    p = blocks[0].r / min(b.t for b in blocks)
    with workprec(_mantissa_bits(blocks) + _GUARD_BITS):
        sm, r = mpf(s), mpf(blocks[0].r)
        terms = [mpf(b.c) * mpf(b.t) ** sm for b in blocks]  # c_k t_k^(s-i) at i = 0
        mass = mpmath.fsum(abs(term) for term in terms)
        log_lead = float(mpmath.log10(mass)) if mass else -math.inf  # at m = 0
        inv_t = [1 / mpf(b.t) for b in blocks]
        binom_r = mpf(1)  # binom(s, i) r^i
        coefs, abs_series = [], [0.0] * 5
        for i in range(_SERIES_CAP):
            coefs.append(float(binom_r * mpmath.fsum(terms)))
            for order in range(5):
                abs_series[order] += abs(coefs[i]) * math.perm(i, order)
            terms = [term * q for term, q in zip(terms, inv_t)]
            binom_r *= (sm - i) * r / (i + 1)
            log_lead += math.log10(abs(s - i) / (i + 1))
            if all(_omitted_bound(s, i + 1, log_lead, p, 1.0, order)
                   <= _EPS64 * abs_series[order] for order in range(5)):
                break
    out = np.array(coefs)
    out.flags.writeable = False  # shared by every combination holding the group
    return out, log_lead


def _combo_eval_mp(combo: SHCombo, xs: np.ndarray, order: int) -> np.ndarray:
    xmax = float(np.max(np.abs(xs))) if xs.size else 1.0
    with workdps(30):
        tot = mpf(0)
        for b in combo.blocks:
            tot += abs(mpf(b.c)) * (mpf(b.t) + mpf(b.r) * xmax) ** mpf(combo.s)
        digits = int(mpmath.ceil(mpmath.log10(tot))) if tot > 1 else 0
    out = np.empty(xs.shape)
    with workdps(28 + digits):
        s = mpf(combo.s)
        fall = mpmath.ff(s, order)
        for i, x in enumerate(xs):
            acc = mpf(0)
            xm = mpf(float(x))
            for b in combo.blocks:
                arg = mpf(b.r) * xm + mpf(b.t)
                if arg > 0:
                    acc += mpf(b.c) * mpf(b.r) ** order * fall * arg ** (s - order)
            out[i] = float(acc)
    return out


def combo_derivative(combo: SHCombo, x, order: int = 0):
    """Derivative of the combination at scalar or array x.

    Orders 0..2 are certified on the working interval; higher orders are
    computed with the same formulas but without accuracy guarantees near
    the matching scale.  At a kink the one-sided dead value 0 is used.
    A combination with extended precision coefficients goes through its
    derived power series when every |x| is below its radius and the bound
    on the omitted terms is below the float64 rounding of the series
    itself, and through the per-point mpmath sum otherwise.  The series
    route is _kernels.power_series_eval: Horner's rule in place on one
    array, or on Python floats for a single point.
    """
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if combo.has_mp_coefficients:
        xmax = abs(xs.item()) if xs.size == 1 else float(np.max(np.abs(xs), initial=0.0))
        coefs = combo.taylor
        # the float64 rounding scale of the series: eps times its absolute sum
        powers = np.arange(order, coefs.size)
        weights = xmax ** (powers - order)
        for l in range(order):
            weights = weights * (powers - l)
        noise = _EPS64 * float(np.abs(coefs[order:]) @ weights)
        if xmax < combo.radius and combo.series_error(xmax, order) <= noise:
            out = _kernels.power_series_eval(coefs, xs, order)
        else:
            out = _combo_eval_mp(combo, xs, order)
    else:
        ts, cs, rs = combo.float_arrays
        out = _kernels.combo_derivatives(ts, cs, rs, combo.s, xs, order)
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


@functools.lru_cache(maxsize=64)
def _remainder_logs(nodes: tuple[float, ...]) -> np.ndarray:
    """log10 |R_ij| (-inf where R_ij = 0) for the rows i = n .. 2n + 11,
    n = len(nodes), where R_ij is the exact x^j coefficient of x^i mod
    P(x), P(x) = prod_k (x - 1/t_k).

    P vanishes at every x_k = 1/t_k, so x_k^i = sum_j R_ij x_k^j.  With Q =
    L P the least integer multiple of P (_node_polynomial), row i is V_i /
    L^(i-n+1) for integers V_i: V_n = -(Q_0 .. Q_(n-1)), and multiplying by
    x and reducing x^n gives V_(i+1),l = L V_i,(l-1) - V_i,(n-1) Q_l.
    """
    master = _node_polynomial(nodes)
    n, lead, log_lead = len(nodes), master[-1], math.log10(master[-1])
    row = [-c for c in master[:-1]]
    out = np.empty((n + 12, n))
    for e in range(out.shape[0]):
        out[e] = [math.log10(abs(v)) - (e + 1) * log_lead if v else -math.inf for v in row]
        top = row[-1]
        row = [lead * v - top * c for v, c in zip([0] + row[:-1], master)]
    out.flags.writeable = False
    return out


def _exact_match(values: Sequence, nodes: Sequence[float], s: float):
    """Checked nodes t, the exact right-hand sides b_i = d_i / fall(s, i) and,
    per degree j with b_j = u_j / v_j != 0, the column y_k^(j) = (V^-1)_kj b_j
    over one denominator, ([N_kj u_j for each k], D v_j) for V^-1 = N / D; the
    columns sum to y_k = t_k^s a_k solving sum_k (1/t_k)^i y_k = b_i for the
    values d_0..d_J (floats or Fractions)."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    if not values or not all(isinstance(d, Fraction) or math.isfinite(d) for d in values):
        raise DomainError("derivative values must be finite and at least one")
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size != len(values):
        raise DomainError(
            f"need exactly {len(values)} nodes for {len(values)} derivative "
            f"values, got {t.size}")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("matching nodes must be positive and finite")
    if len(set(t.tolist())) != t.size:  # np.unique would import numpy.ma
        raise DomainError("matching nodes must be distinct")
    inverse, den = _vandermonde_inverse(tuple(float(tk) for tk in t))
    sp, sq = Fraction(s).as_integer_ratio()
    rhs, fall_num, fall_den = [], 1, 1  # fall(s, i) = fall_num / fall_den
    for i, d in enumerate(values):
        u, v = Fraction(d).as_integer_ratio()
        rhs.append(Fraction(u * fall_den, v * fall_num) if u else Fraction(0))
        fall_num, fall_den = fall_num * (sp - i * sq), fall_den * sq
    return t, rhs, {j: ([row[j] * b.numerator for row in inverse], den * b.denominator)
                    for j, b in enumerate(rhs) if b}


def _merge(columns: dict, r: float, size: int) -> tuple[list[int], int]:
    """Y_k = sum_j y_k^(j) r^-j of _exact_match's columns as size numerators
    over lcm_j (D v_j) p^J, r = p / q, J the top degree: one factor per
    column, (lcm / (D v_j)) q^j p^(J-j)."""
    p, q = r.as_integer_ratio()
    top = max(columns, default=0)
    lcm = math.lcm(*(den for _, den in columns.values()))
    merged = [0] * size
    for j, (nums, den) in columns.items():
        factor = lcm // den * q**j * p ** (top - j)
        merged = [m + n * factor for m, n in zip(merged, nums)]
    return merged, lcm * p**top


@functools.lru_cache(maxsize=4096)
def _inverse_power(t: float, s: float, dps: int) -> mpf:
    """t^-s rounded at dps digits, whatever the caller's precision."""
    with workdps(dps):
        return mpf(t) ** -mpf(s)


def _block_coefficients(nums: list[int], den: int, t: np.ndarray, s: float,
                        dps: int) -> list[mpf]:
    """Coefficients y_k t_k^-s at dps digits, y_k = nums[k] / den, den > 0: y_k
    is rounded once, correctly, as libmp.from_rational would (den converted
    once), so the result depends on its value alone, not on its terms."""
    with workdps(dps):
        prec, den = mpmath.mp.prec, from_int(den)
        return [mpf(mpf_div(from_int(n), den, prec, round_nearest))
                * _inverse_power(float(tk), s, dps) for n, tk in zip(nums, t)]


def _defect_model(values: Sequence, nodes: Sequence[float], s: float, eps: float,
                  dropped: float = 0.0):
    """Checked nodes t, the exact columns y^(j) of _exact_match and the
    function r -> (B_0, B_1, B_2) bounding on [-1, 1] the m-th derivative of
    the deviation from p(x) = sum_j values[j] x^j / j! of the group
    match_polynomial stores at scale r for budget eps, plus dropped.

    Column j alone gives sum_k a_k (r x + t_k)^s, a_k = y_k^(j) t_k^-s r^-j,
    which expands to sum_i binom(s, i) r^(i-j) M_i x^i with M_i = sum_k
    y_k^(j) (1/t_k)^i.  The matching makes M_i = b_j delta_ij for i <= N;
    past N, M_i = R_ij b_j (see _remainder_logs).  Unrounded, the group is
    the sum of the columns' terms, so with q = r / t_min <= 1/16, B_m bounds
    sum_j sum_{i>N} |beta_i| i!/(i-m)! by three parts:

    * rows: those terms, exactly, for i = N+1 .. 2N+13;
    * tail: from I = 2N+14 on, |M_i| <= Y_j t_min^-i with Y_j = sum_k
      |y_k^(j)|, so those terms are what _omitted_bound bounds for m = I,
      W = sum_j Y_j r^-j, p = q and xmax = 1;
    * storage: each stored a_k = Y_k t_k^-s, Y_k = sum_j y_k^(j) r^-j, is
      rounded by a relative delta with delta Y <= 1e-32 eps, Y = sum_k
      |Y_k|, which moves order i, matched ones included, by at most
      |binom(s, i)| r^i t_min^-i delta Y <= 1e-32 eps q^i; with i!/(i-m)!
      that sums to 1e-32 eps m! q^m / (1-q)^(m+1), once for all columns.

    The parts are evaluated in float64 from logarithms of the exact values:
    exponents below 3e4 in magnitude put each term within 1e-10 relative,
    the fewer than 2^11 additions add 2^-42, and terms that underflow lose
    less than 2^-1000, so B_m is the sum, dropped included, times 1 + 1e-9,
    plus 2^-1000.
    """
    t, rhs, columns = _exact_match(values, nodes, s)
    big_n = t.size - 1
    if big_n == 0 or not columns:
        raise DomainError(f"need matching order N >= 1 and a nonzero value, got N={big_n}")
    if not (eps > 0) or not math.isfinite(eps):
        raise DomainError(f"tolerance must be positive and finite, got {eps}")
    degrees = np.array(list(columns))
    log_rows = _remainder_logs(tuple(float(tk) for tk in t))[:, degrees].T
    powers = np.arange(big_n + 1, big_n + 1 + log_rows.shape[1])
    first = int(powers[-1]) + 1
    steps = np.arange(first)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log10(np.abs(s - steps) / (steps + 1)))))
    log_b = np.array([[math.log10(abs(rhs[j].numerator)) - math.log10(rhs[j].denominator)]
                      for j in columns])
    log_beta = log_binom[powers] + log_b + log_rows
    exponents = powers - degrees[:, None]
    orders = np.arange(3)
    falling = np.array([[math.perm(i, m) for i in powers] for m in orders], dtype=float)
    log_leads = np.array([float(log_binom[first]) + math.log10(sum(abs(n) / den for n in nums))
                          for nums, den in columns.values()])
    t_min = float(np.min(t))

    def bound(r: float) -> np.ndarray:
        q, log_r = r / t_min, math.log10(r)
        with np.errstate(over="ignore"):
            rows = falling @ np.sum(10.0 ** (log_beta + exponents * log_r), axis=0)
        leads = log_leads - degrees * log_r  # log10(|binom(s, I)| Y_j r^-j)
        top = float(np.max(leads))
        log_lead = top + math.log10(float(np.sum(10.0 ** (leads - top))))
        tail = np.array([_omitted_bound(s, first, log_lead, q, 1.0, m) for m in range(3)])
        storage = 1e-32 * eps * np.array([1.0, q, 2.0 * q * q]) / (1.0 - q) ** (orders + 1)
        return (rows + tail + storage + dropped) * (1.0 + 1e-9) + 2.0**-1000

    return t, columns, bound


def _scale_cap(t: np.ndarray) -> float:
    """Largest scale of a matched group: r <= 1 for a block, and r / t_min
    <= 1/16 keeps the derived series short and its radius >= 8."""
    return min(1.0, float(np.min(t)) / 16.0)


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
                     dropped: float = 0.0) -> tuple[SHCombo, np.ndarray]:
    """The group of len(nodes) blocks at one scale r matching the polynomial
    sum_j values[j] x^j / j! to order N = len(nodes) - 1 at the origin, at
    the largest r in (0, min(1, t_min / 16)] whose _defect_model bound is at
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
    t, columns, bound = _defect_model(values, nodes, s, eps, dropped)
    seen = {}  # r -> bound(r)

    def worst(r: float) -> float:
        seen[r] = bound(r)
        return float(np.max(seen[r]))

    r = _scale_cap(t)
    top = worst(r)
    if top > eps:
        a, b = _scale_bracket(worst, r, top, eps, len(t) - max(columns))
        if a == 0.0 and worst(sys.float_info.min) > eps:
            raise ApproximationError(
                f"no float64 scale meets the defect budget {eps:.3e} for the monomials "
                f"of degree {', '.join(map(str, columns))}; raise epsilon")
        r, _ = _bisect_scale(r, lambda mid: mid <= a or (mid < b and worst(mid) <= eps))
    nums, den = _merge(columns, r, t.size)
    mass = Fraction(den + sum(map(abs, nums)), den)  # reduced once; r^-j may pass float64
    dps = 25 + int(math.log10(mass.numerator) - math.log10(mass.denominator) - math.log10(eps) + 8)
    coeffs = _block_coefficients(nums, den, t, s, dps)
    group = SHCombo(s, tuple(SHBlock(float(tk), ck, r) for tk, ck in zip(t, coeffs)))
    return group, seen[r] if r in seen else bound(r)


# ---------------------------------------------------------------------------
# serialization


def _mpf_digits(value: mpf) -> int:
    """Decimal digits needed to reproduce the stored binary mantissa."""
    _, _, _, bitcount = value._mpf_
    return max(20, int(bitcount * 0.30103) + 5)


def _format_coefficient(value) -> str:
    if isinstance(value, mpf):
        digits = _mpf_digits(value)
        with workdps(digits + 10):
            return mpmath.nstr(value, digits, strip_zeros=True, min_fixed=1, max_fixed=0)
    return repr(float(value))


def combo_to_json(combo: SHCombo) -> str:
    """Deterministic JSON for a combination.

    Block coefficients carrying extended precision are written with all of
    their digits; standard floats use their shortest round-trip form.  The
    schema is a plain list of blocks: the power series is derived from the
    blocks of the loaded combination when it is first evaluated.
    """
    lines = ["{"]
    lines.append(f'  "s": {repr(float(combo.s))},')
    a, b = combo.interval
    lines.append(f'  "interval": [{repr(float(a))}, {repr(float(b))}],')
    lines.append('  "blocks": [')
    items = []
    for blk in combo.blocks:
        cstr = _format_coefficient(blk.c)
        items.append(f'    {{"t": {repr(float(blk.t))}, "c": {cstr}, "r": {repr(float(blk.r))}}}')
    lines.append(",\n".join(items))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def combo_from_json(text: str) -> SHCombo:
    """Parse a combination, keeping extended precision coefficients intact.

    Accepts either a bare combination object or a report artifact that
    stores the combination under a "combo" key.  A coefficient of more
    than 17 significant digits is read as an mpf at 10 digits past its
    own, rounded to nearest (mpmath.libmp.from_str, without a context).
    """
    try:
        raw = json.loads(text, parse_float=str, parse_int=str)
        if isinstance(raw, dict) and "blocks" not in raw and "combo" in raw:
            raw = raw["combo"]
        s = float(raw["s"])
        interval = tuple(float(v) for v in raw["interval"])
        blocks = []
        for item in raw["blocks"]:
            t = float(item["t"])
            r = float(item["r"])
            cstr = str(item["c"])
            mantissa = cstr.split("e")[0].split("E")[0].replace("-", "").replace(".", "")
            mantissa = mantissa.lstrip("0")
            if len(mantissa) > 17:
                c = mpmath.mp.make_mpf(from_str(cstr, dps_to_prec(len(mantissa) + 10),
                                                round_nearest))
            else:
                c = float(cstr)
            blocks.append(SHBlock(t, c, r))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise DomainError(f"malformed combination JSON: {exc}") from exc
    return SHCombo(s, tuple(blocks), interval)
