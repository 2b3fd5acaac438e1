"""Truncated power blocks and their finite combinations.

A block is c * (r*x + t)_+^s with offset t > 0 and scale r in (0, 1].  On
the half line where its argument is positive the block solves the 1D
fractional Laplace equation of order s, which makes linear combinations of
blocks the building material for every construction in this package.

Matching the derivatives of a combination at the origin is, after scaling
rows and columns, a Vandermonde system in the reciprocal offsets 1/t_k.
Offsets and exponents are floats, hence exact dyadic rationals, so the
system is solved exactly in rational arithmetic with one cached inverse
per node tuple; extended precision enters only where a coefficient is
rounded for storage.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from numpy.polynomial import polynomial as P
from mpmath import mpf, workdps, workprec
from mpmath.libmp import from_rational, round_nearest

from . import _kernels
from .errors import ApproximationError, DomainError

_EPS64 = 2.0**-52
_TAIL_TERMS = 11  # series exponents kept past the matching order
_GUARD_BITS = 64  # working bits past the longest stored mantissa


def falling_factorial(s: float, order: int) -> float:
    """Product s*(s-1)*...*(s-order+1); equals 1 for order 0."""
    out = 1.0
    for l in range(order):
        out *= s - l
    return out


def _falling_factorial_mp(s, order: int):
    out = mpf(1)
    for l in range(order):
        out *= s - l
    return out


def block_derivative_at_zero(t: float, j: int, s: float) -> float:
    """j-th derivative of x -> (x + t)_+^s at x = 0, for t > 0.

    Closed form: s*(s-1)*...*(s-j+1) * t**(s-j).
    """
    if t <= 0:
        raise DomainError(f"block offset must be positive, got t={t}")
    if j < 0:
        raise DomainError(f"derivative order must be nonnegative, got {j}")
    return falling_factorial(s, j) * t ** (s - j)


def block_eval(block: "SHBlock", x, s: float):
    """Evaluate a single block at scalar or array x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _kernels.combo_values(np.array([block.t]), np.array([float(block.c)]),
                                np.array([block.r]), s, xs)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


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
        if not (self.t > 0) or not np.isfinite(self.t):
            raise DomainError(f"block offset must be positive and finite, got t={self.t}")
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"block scale must lie in (0, 1], got r={self.r}")
        if isinstance(self.c, (int, float)):
            if not np.isfinite(self.c):
                raise DomainError("block coefficient must be finite")
            object.__setattr__(self, "c", float(self.c))
        elif not isinstance(self.c, mpf):
            raise DomainError(f"block coefficient must be float or mpf, got {type(self.c)}")

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
        a, b = self.interval
        if not (a < b) or not (np.isfinite(a) and np.isfinite(b)):
            raise DomainError(f"invalid interval {self.interval}")
        object.__setattr__(self, "interval", (float(a), float(b)))

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(sorted({b.kink for b in self.blocks}))

    @property
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

    def _summed_series(self, skip_matched: bool) -> np.ndarray:
        out = np.zeros(max((len(g) + _TAIL_TERMS for g in self.groups), default=0))
        for g in self.groups:
            coefs = _group_taylor(self.s, g, len(g) + _TAIL_TERMS)[0]
            start = len(g) if skip_matched else 0
            out[start:coefs.size] += coefs[start:]
        return out

    @functools.cached_property
    def taylor(self) -> np.ndarray:
        """Power series coefficients at the origin, summed over the groups
        (see _group_taylor)."""
        return self._summed_series(skip_matched=False)

    @functools.cached_property
    def taylor_tail(self) -> np.ndarray:
        """The derived series with the orders 0..n-1 of each group of n
        blocks zeroed: for matched groups, their summed deviation from the
        monomials they reproduce."""
        return self._summed_series(skip_matched=True)

    @functools.cached_property
    def _remainder_data(self) -> tuple[tuple[int, float, float], ...]:
        """(m, log10(|binom(s, m)| W), r / t_min) per group; see series_error."""
        out = []
        for g in self.groups:
            m = len(g) + _TAIL_TERMS
            binom = abs(math.prod((self.s - i) / (i + 1) for i in range(m)))
            out.append((m, _group_taylor(self.s, g, m)[1] + math.log10(binom),
                        g[0].r / min(b.t for b in g)))
        return tuple(out)

    def series_error(self, xmax: float, order: int) -> float:
        """Bound on the terms i >= m = n + _TAIL_TERMS, omitted by the
        derived series of each group of n blocks, of the order-th derivative
        for |x| <= xmax.

        With W = sum_k |c_k| t_k^s and p = r / t_min, term i of a group is
        at most |binom(s, i)| (i)_order W p^order q^(i-order), q = p xmax;
        from i = m on consecutive terms shrink at least by rho q, rho =
        max(1, (m - s) / (m + 1 - order)), so the tail is at most the
        first term over 1 - rho q.
        """
        total = 0.0
        for m, log_lead, p in self._remainder_data:
            q = p * xmax
            if order >= m:
                return math.inf
            if q == 0.0 or log_lead == -math.inf:
                continue
            rho_q = max(1.0, (m - self.s) / (m + 1 - order)) * q
            if rho_q >= 1.0:
                return math.inf
            log_bound = (log_lead + math.log10(math.perm(m, order)) + order * math.log10(p)
                         + (m - order) * math.log10(q) - math.log10(1.0 - rho_q))
            total += 10.0 ** log_bound if log_bound < 300.0 else math.inf
        return total

    def float_arrays(self):
        """(t, c, r) float64 arrays; raises if coefficients need extended precision."""
        cs = np.array([float(b.c) for b in self.blocks])
        if not np.all(np.isfinite(cs)):
            raise DomainError("block coefficients overflow float64")
        ts = np.array([b.t for b in self.blocks])
        rs = np.array([b.r for b in self.blocks])
        return ts, cs, rs


# ---------------------------------------------------------------------------
# evaluation


def _mantissa_bits(blocks: Sequence[SHBlock]) -> int:
    """Longest stored coefficient mantissa in bits; 53 for float64."""
    return max((b.c._mpf_[3] if isinstance(b.c, mpf) else 53 for b in blocks), default=53)


@functools.lru_cache(maxsize=256)
def _group_taylor(s: float, blocks: tuple[SHBlock, ...],
                  n_terms: int) -> tuple[np.ndarray, float]:
    """Coefficients of x^0 .. x^(n_terms - 1) for blocks sharing one scale
    r, binom(s, i) r^i sum_k c_k t_k^(s-i), and log10 of the mass
    sum_k |c_k| t_k^s.  Each coefficient is computed at the precision of
    the longest stored mantissa plus guard bits and rounded once to
    float64.  For n matched blocks the coefficients past the n matched
    orders are the group's deviation from its target polynomial."""
    with workprec(_mantissa_bits(blocks) + _GUARD_BITS):
        sm, r = mpf(s), mpf(blocks[0].r)
        terms = [mpf(b.c) * mpf(b.t) ** sm for b in blocks]  # c_k t_k^(s-i) at i = 0
        mass = mpmath.fsum(abs(term) for term in terms)
        inv_t = [1 / mpf(b.t) for b in blocks]
        binom_r = mpf(1)  # binom(s, i) r^i
        out = np.empty(n_terms)
        for i in range(n_terms):
            out[i] = float(binom_r * mpmath.fsum(terms))
            terms = [term * q for term, q in zip(terms, inv_t)]
            binom_r *= (sm - i) * r / (i + 1)
        log_mass = float(mpmath.log10(mass)) if mass else -math.inf
    out.flags.writeable = False  # shared by every combination holding the group
    return out, log_mass


def _mp_scale_digits(combo: SHCombo, xmax: float) -> int:
    with workdps(30):
        tot = mpf(0)
        for b in combo.blocks:
            tot += abs(mpf(b.c)) * (mpf(b.t) + mpf(b.r) * xmax) ** mpf(combo.s)
        if tot <= 1:
            return 0
        return int(mpmath.ceil(mpmath.log10(tot)))


def _combo_eval_mp(combo: SHCombo, xs: np.ndarray, order: int) -> np.ndarray:
    digits = _mp_scale_digits(combo, float(np.max(np.abs(xs))) if xs.size else 1.0)
    out = np.empty(xs.shape)
    with workdps(28 + digits):
        s = mpf(combo.s)
        fall = _falling_factorial_mp(s, order)
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
    itself, and through the per-point mpmath sum otherwise.
    """
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if combo.has_mp_coefficients:
        xmax = float(np.max(np.abs(xs), initial=0.0))
        coefs = combo.taylor
        # the float64 rounding scale of the series: eps times its absolute sum
        noise = _EPS64 * P.polyval(xmax, P.polyder(np.abs(coefs), order))
        if xmax < combo.radius and combo.series_error(xmax, order) <= noise:
            out = _kernels.power_series_eval(coefs, xs, order)
        else:
            out = _combo_eval_mp(combo, xs, order)
    else:
        ts, cs, rs = combo.float_arrays()
        if order == 0:
            out = _kernels.combo_values(ts, cs, rs, combo.s, xs)
        else:
            out = _kernels.combo_derivatives(ts, cs, rs, combo.s, xs, order)
    return float(out[0]) if scalar else out


def combo_eval(combo: SHCombo, x):
    """Value of the combination at scalar or array x."""
    return combo_derivative(combo, x, 0)


def combo_add(a: SHCombo, b: SHCombo) -> SHCombo:
    """Sum of two combinations with identical exponent and interval."""
    if a.s != b.s:
        raise DomainError(f"cannot add combinations with different exponents {a.s} and {b.s}")
    if a.interval != b.interval:
        raise DomainError("cannot add combinations with different working intervals")
    return SHCombo(a.s, a.blocks + b.blocks, a.interval)


def combo_scale(combo: SHCombo, alpha: float) -> SHCombo:
    """Pointwise scaling by a float factor; extended precision coefficients
    are multiplied exactly, so the derived series keeps all their digits."""
    if not np.isfinite(alpha):
        raise DomainError("scale factor must be finite")
    with workprec(_mantissa_bits(combo.blocks) + 53):
        blocks = tuple(replace(b, c=b.c * alpha) for b in combo.blocks)
    return SHCombo(combo.s, blocks, combo.interval)


# ---------------------------------------------------------------------------
# derivative matching


@functools.lru_cache(maxsize=64)
def _vandermonde_inverse(nodes: tuple[float, ...]):
    """Exact inverse of V[i][k] = (1/t_k)^i.

    With x_k = 1/t_k and P(x) = prod_k (x - x_k), row k of the inverse holds
    the monomial coefficients of the Lagrange polynomial P(x) / ((x - x_k)
    P'(x_k)), one synthetic division each: O(n^2) rational operations.
    """
    xs = [1 / Fraction(t) for t in nodes]
    n = len(xs)
    master = [Fraction(1)]
    for xm in xs:
        nxt = [Fraction(0)] + master
        for i, c in enumerate(master):
            nxt[i] -= xm * c
        master = nxt
    inverse = []
    for xk in xs:
        quot = [Fraction(0)] * n
        quot[n - 1] = master[n]
        for i in range(n - 1, 0, -1):
            quot[i - 1] = master[i] + xk * quot[i]
        den = math.prod((xk - xm for xm in xs if xm != xk), start=Fraction(1))
        inverse.append(tuple(c / den for c in quot))
    return tuple(inverse)


def _exact_match(values: Sequence[float], nodes: Sequence[float], s: float):
    """Checked nodes t and the exact y_k = t_k^s a_k solving
    sum_k (1/t_k)^i y_k = d_i / fall(s, i) for the values d_0..d_J."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    values = [float(d) for d in values]
    if not values or not all(math.isfinite(d) for d in values):
        raise DomainError("derivative values must be finite and at least one")
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size != len(values):
        raise DomainError(
            f"need exactly {len(values)} nodes for {len(values)} derivative "
            f"values, got {t.size}")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("matching nodes must be positive and finite")
    if np.unique(t).size != t.size:
        raise DomainError("matching nodes must be distinct")
    inverse = _vandermonde_inverse(tuple(float(tk) for tk in t))
    sf = Fraction(s)
    rhs = []
    fall = Fraction(1)
    for i, d in enumerate(values):
        if d:
            rhs.append((i, Fraction(d) / fall))
        fall *= sf - i
    return t, [sum((row[i] * b for i, b in rhs), Fraction(0)) for row in inverse]


def _block_coefficients(y: list[Fraction], t: np.ndarray, s: float, r: float,
                        j: int, dps: int) -> list[mpf]:
    """Coefficients y_k t_k^-s r^-j at dps digits; y_k is rounded only once."""
    with workdps(dps):
        factor = mpf(r) ** -j
        return [mpf(from_rational(yk.numerator, yk.denominator, mpmath.mp.prec,
                                  round_nearest)) * mpf(float(tk)) ** -mpf(s) * factor
                for yk, tk in zip(y, t)]


def _unit_coefficients(values: Sequence[float], t: np.ndarray, y: list[Fraction],
                       s: float) -> tuple[list, int]:
    """Unit-scale coefficients a_k = y_k t_k^-s at 25 digits beyond the
    read-back's cancellation (its largest row sum of |terms|), and those
    digits; float64 when that provably keeps the read-back residual below
    1e-10 * (1 + max|d|)."""
    scale = 1.0 + max(abs(float(v)) for v in values)
    y_abs = np.array([abs(float(yk)) for yk in y])
    row_mass = max(abs(falling_factorial(s, i)) * float(np.sum(y_abs * t ** -float(i)))
                   for i in range(t.size))
    dps = 25 + math.ceil(math.log10(1.0 + row_mass / scale))
    coeffs = _block_coefficients(y, t, s, 1.0, 0, dps)
    if row_mass * _EPS64 * 4 <= 1e-10 * scale:
        coeffs = [float(ck) for ck in coeffs]
    return coeffs, dps


def solve_derivative_match(values: Sequence[float], nodes: Sequence[float], s: float) -> SHCombo:
    """Combination of unit-scale blocks whose derivatives at 0 are values.

    Solves the square system sum_k a_k * d^i/dx^i (x + t_k)^s |_{x=0} = d_i
    for i = 0..J with J+1 distinct positive nodes.  With y_k = t_k^s a_k
    the system is the Vandermonde system sum_k (1/t_k)^i y_k = d_i /
    fall(s, i), which is solved exactly in rational arithmetic (floats are
    dyadic rationals) through a cached inverse per node tuple.  Each
    coefficient a_k = y_k t_k^-s then costs one extended precision power
    (see _unit_coefficients for its digits and the float64 downgrade).
    """
    t, y = _exact_match(values, nodes, s)
    coeffs, _ = _unit_coefficients(values, t, y, s)
    return SHCombo(s, tuple(SHBlock(float(tk), ck) for tk, ck in zip(t, coeffs)))


def readback_derivatives(combo: SHCombo, n_orders: int) -> np.ndarray:
    """Derivatives of orders 0..n_orders-1 at 0 of a combination: i! times
    the coefficient of x^i of its derived power series."""
    coefs = np.zeros(n_orders)
    for g in combo.groups:
        coefs += _group_taylor(combo.s, g, max(n_orders, len(g) + _TAIL_TERMS))[0][:n_orders]
    return np.array([math.factorial(i) * coefs[i] for i in range(n_orders)])


def _scaled_group(t: np.ndarray, y: list[Fraction], s: float, j: int, r: float,
                  interval: tuple[float, float], eps: float) -> SHCombo:
    mass = sum(abs(float(yk)) for yk in y)
    amp = (math.log10(1.0 + mass) + j * math.log10(1.0 / r)
           + math.log10(1.0 / eps) + 8.0)
    coeffs = _block_coefficients(y, t, s, r, j, 25 + int(amp))
    return SHCombo(s, tuple(SHBlock(float(tk), ck, r) for tk, ck in zip(t, coeffs)),
                   tuple(interval))


def assemble_scaled_group(spec_values: Sequence[float], nodes: Sequence[float],
                          s: float, j: int, r: float,
                          interval: tuple[float, float], eps: float) -> SHCombo:
    """Matched group under the substitution x -> r x, faithful to c_j x^j.

    The matching system is solved exactly (see solve_derivative_match), so
    the only rounding is in the stored block coefficients y_k t_k^-s r^-j.
    Reading the function back off the blocks amplifies that rounding by
    about the coefficient mass sum_k |y_k| times r^-j, so the coefficients
    carry 25 + log10((1 + mass) r^-j / eps) + 8 digits: each order i of
    the group is then within 1e-32 eps (r / t_min)^i of its exact value.
    float64 storage is never sufficient here; the blocks always carry
    extended precision values.  The matching order is len(nodes) - 1.
    """
    if not (0 < r <= 1.0) or not np.isfinite(r):
        raise DomainError(f"scale must lie in (0, 1], got {r}")
    t, y = _exact_match(spec_values, nodes, s)
    return _scaled_group(t, y, s, j, r, interval, eps)


def rescale_for_defect(values: Sequence[float], nodes: Sequence[float], s: float,
                       j: int, eps: float) -> SHCombo:
    """Matched group for the values whose deviation from its target
    monomial stays eps-small in C^2 norm on [-1, 1].

    The matching order N is len(nodes) - 1.  The unit-scale match (see
    solve_derivative_match) gives S, a bound on the (N+1)-th derivative of
    the unscaled combination on [-1, 1]; the group is then assembled under
    x -> r*x with r = eps / (10 * N^2 * (1 + S)) and divided by r^j, so the
    j-th Taylor coefficient is preserved (see assemble_scaled_group).
    """
    t, y = _exact_match(values, nodes, s)
    big_n = t.size - 1
    if not (0 <= j <= big_n) or big_n == 0:
        raise DomainError(f"need degree 0 <= j <= N and matching order N >= 1, "
                          f"got j={j}, N={big_n}")
    if not (eps > 0):
        raise DomainError(f"tolerance must be positive, got {eps}")
    if np.min(t) <= 1.0:
        raise DomainError("rescaling bound requires all nodes above 1")
    coeffs, dps = _unit_coefficients(values, t, y, s)
    with workdps(dps):
        sm = mpf(s)
        fall = abs(_falling_factorial_mp(sm, big_n + 1))
        S = mpf(0)
        for tk, ck in zip(t, coeffs):
            S += abs(mpf(ck)) * fall * (mpf(float(tk)) - 1) ** (sm - big_n - 1)
        r = float(min(mpf(eps) / (10 * mpf(big_n) ** 2 * (1 + S)), mpf(1)))
    if r == 0.0:
        raise ApproximationError(
            f"defect scale underflows float64 for degree {j}: bound S={float(S):.3e}")
    return _scaled_group(t, y, s, j, r, (-1.0, 1.0), eps)


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
    stores the combination under a "combo" key.
    """
    raw = json.loads(text, parse_float=str, parse_int=str)
    if isinstance(raw, dict) and "blocks" not in raw and "combo" in raw:
        raw = raw["combo"]
    try:
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
                with workdps(len(mantissa) + 10):
                    c = mpf(cstr)
            else:
                c = float(cstr)
            blocks.append(SHBlock(t, c, r))
    except (KeyError, TypeError, IndexError) as exc:
        raise DomainError(f"malformed combination JSON: {exc}") from exc
    return SHCombo(s, tuple(blocks), interval)
