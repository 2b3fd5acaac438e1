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
precision coefficients and an attached power series representation: the
raw block coefficients grow so large that summing them in float64 loses
all significant digits inside the working interval.  The series
representation stores the same function in a cancellation-free form and is
the only float64-safe way to evaluate such combinations.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import mpf, workdps
from mpmath.libmp import from_rational, round_nearest

from . import _kernels
from .errors import ConditioningError, DomainError

_EPS64 = 2.0**-52
_TAIL_TERMS = 11  # series exponents kept past the matching order


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
class TaylorSeries:
    """Cancellation-free power series for one matched group of blocks.

    Represents poly + tail where poly carries the exactly matched Taylor
    coefficients and tail the provably small correction exponents above
    the matching order.  Valid for |x| < radius.
    """

    poly_exps: tuple[int, ...]
    poly_coefs: tuple[float, ...]
    tail_exps: tuple[int, ...]
    tail_coefs: tuple[float, ...]
    radius: float

    def eval(self, x: np.ndarray, order: int) -> np.ndarray:
        exps = np.array(self.poly_exps + self.tail_exps, dtype=np.int64)
        coefs = np.array(self.poly_coefs + self.tail_coefs, dtype=np.float64)
        return _kernels.power_series_eval(exps, coefs, x, order)

    def defect_eval(self, x: np.ndarray, order: int) -> np.ndarray:
        """Only the tail part: the deviation from the matched polynomial."""
        exps = np.array(self.tail_exps, dtype=np.int64)
        coefs = np.array(self.tail_coefs, dtype=np.float64)
        return _kernels.power_series_eval(exps, coefs, x, order)


@dataclass(frozen=True)
class MatchInfo:
    """Diagnostics attached to the output of solve_derivative_match."""

    condition: float
    dps: int
    exact_coefficients: bool
    spec_values: tuple[float, ...]


@dataclass(frozen=True)
class DerivSpec:
    """Target derivative values d_0..d_J at the origin."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise DomainError("derivative spec must contain at least one value")
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("derivative spec values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class SHCombo:
    """Finite combination of blocks sharing one exponent s.

    interval is the working interval for approximation statements; the
    combination itself is defined and smooth on (max_k kink_k, +inf).
    """

    s: float
    blocks: tuple[SHBlock, ...]
    interval: tuple[float, float] = (-1.0, 1.0)
    series: tuple[TaylorSeries, ...] = ()
    match_info: MatchInfo | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"exponent must lie in (0, 1), got s={self.s}")
        # the empty combination is allowed: it is the exact zero function
        object.__setattr__(self, "blocks", tuple(self.blocks))
        a, b = self.interval
        if not (a < b) or not (np.isfinite(a) and np.isfinite(b)):
            raise DomainError(f"invalid interval {self.interval}")
        object.__setattr__(self, "interval", (float(a), float(b)))
        object.__setattr__(self, "series", tuple(self.series))

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(sorted({b.kink for b in self.blocks}))

    @property
    def has_mp_coefficients(self) -> bool:
        return any(isinstance(b.c, mpf) for b in self.blocks)

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
    """
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if combo.series:
        radius = min(g.radius for g in combo.series)
        if np.all(np.abs(xs) < radius):
            out = np.zeros_like(xs)
            for g in combo.series:
                out += g.eval(xs, order)
            return float(out[0]) if scalar else out
    if combo.has_mp_coefficients:
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
    series = a.series + b.series if a.series and b.series else ()
    return SHCombo(a.s, a.blocks + b.blocks, a.interval, series)


def combo_scale(combo: SHCombo, alpha: float) -> SHCombo:
    """Pointwise scaling by a float factor."""
    if not np.isfinite(alpha):
        raise DomainError("scale factor must be finite")
    blocks = tuple(replace(b, c=b.c * alpha) for b in combo.blocks)
    series = tuple(
        TaylorSeries(g.poly_exps, tuple(c * alpha for c in g.poly_coefs),
                     g.tail_exps, tuple(c * alpha for c in g.tail_coefs), g.radius)
        for g in combo.series)
    return SHCombo(combo.s, blocks, combo.interval, series)


# ---------------------------------------------------------------------------
# derivative matching


def _condition_estimate(nodes: np.ndarray, n_orders: int) -> float:
    V = np.vander(1.0 / nodes, n_orders, increasing=True).T
    try:
        cond = float(np.linalg.cond(V))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond):
        cond = 10.0 ** (16 + 1.6 * n_orders)
    return cond


@functools.lru_cache(maxsize=64)
def _vandermonde_inverse(nodes: tuple[float, ...]):
    """Exact inverse of V[i][k] = (1/t_k)^i and its continuation past order n.

    With x_k = 1/t_k and P(x) = prod_k (x - x_k), row k of the inverse holds
    the monomial coefficients of the Lagrange polynomial P(x) / ((x - x_k)
    P'(x_k)), one synthetic division each: O(n^2) rational operations.  Row
    i - n of the continuation holds the coefficients of x^i mod P, so that
    sum_k y_k x_k^i = sum_l cont[i - n][l] (V y)_l for the tail exponents.
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
    cont = [tuple(-c for c in master[:n])]
    for _ in range(1, _TAIL_TERMS):
        prev = cont[-1]
        cont.append(tuple((prev[l - 1] if l else 0) - prev[n - 1] * master[l]
                          for l in range(n)))
    return tuple(inverse), tuple(cont)


def _exact_match(spec_values: Sequence[float], nodes: np.ndarray, s: float):
    """Exact y_k = t_k^s a_k solving sum_k (1/t_k)^i y_k = d_i / fall(s, i),
    and the moments sum_k y_k t_k^-i for the _TAIL_TERMS exponents i >= n."""
    inverse, cont = _vandermonde_inverse(tuple(float(tk) for tk in nodes))
    sf = Fraction(s)
    rhs = []
    fall = Fraction(1)
    for i, d in enumerate(spec_values):
        if d:
            rhs.append((i, Fraction(d) / fall))
        fall *= sf - i
    y = [sum((row[i] * b for i, b in rhs), Fraction(0)) for row in inverse]
    moments = [sum((row[i] * b for i, b in rhs), Fraction(0)) for row in cont]
    return y, moments


def _tail_series(moments: list[Fraction], s: float, n: int, r: float, j: int):
    """Tail exponents n, n+1, ... and the coefficients
    binom(s, i) r^(i-j) sum_k y_k t_k^-i of x^i, each rounded once to float
    from its exact value; zero coefficients are dropped."""
    sf, rf = Fraction(s), Fraction(r)
    binom = math.prod((sf - l for l in range(n)), start=Fraction(1)) / math.factorial(n)
    exps, coefs = [], []
    for i, m in enumerate(moments, start=n):
        cf = float(binom * rf ** (i - j) * m)
        if cf != 0.0:
            exps.append(i)
            coefs.append(cf)
        binom = binom * (sf - i) / (i + 1)
    return tuple(exps), tuple(coefs)


def _block_coefficients(y: list[Fraction], t: np.ndarray, s: float, r: float,
                        j: int, dps: int) -> list[mpf]:
    """Coefficients y_k t_k^-s r^-j at dps digits; y_k is rounded only once."""
    with workdps(dps):
        factor = mpf(r) ** -j
        return [mpf(from_rational(yk.numerator, yk.denominator, mpmath.mp.prec,
                                  round_nearest)) * mpf(float(tk)) ** -mpf(s) * factor
                for yk, tk in zip(y, t)]


def solve_derivative_match(spec: DerivSpec, nodes: Sequence[float], s: float,
                           interval: tuple[float, float] = (-1.0, 1.0)) -> SHCombo:
    """Combination of unit-scale blocks whose derivatives at 0 match spec.

    Solves the square system sum_k a_k * d^i/dx^i (x + t_k)^s |_{x=0} = d_i
    for i = 0..J with J+1 distinct positive nodes.  With y_k = t_k^s a_k
    the system is the Vandermonde system sum_k (1/t_k)^i y_k = d_i /
    fall(s, i), which is solved exactly in rational arithmetic (floats are
    dyadic rationals) through a cached inverse per node tuple.  Each
    coefficient a_k = y_k t_k^-s then costs one extended precision power,
    taken with 25 digits beyond the cancellation the read-back suffers.
    Coefficients are downgraded to float64 only when that provably keeps
    the read-back residual below 1e-10 * (1 + max|d|).
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size != len(spec.values):
        raise DomainError(
            f"need exactly {len(spec.values)} nodes for {len(spec.values)} derivative "
            f"values, got {t.size}")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("matching nodes must be positive and finite")
    if np.unique(t).size != t.size:
        raise DomainError("matching nodes must be distinct")

    n = t.size
    y, moments = _exact_match(spec.values, t, s)
    scale = 1.0 + max(abs(v) for v in spec.values)
    # largest sum of |terms| in one read-back row: the cancellation it suffers
    y_abs = np.array([abs(float(yk)) for yk in y])
    row_mass = max(abs(falling_factorial(s, i)) * float(np.sum(y_abs * t ** -float(i)))
                   for i in range(n))
    dps = 25 + math.ceil(math.log10(1.0 + row_mass / scale))
    exact = row_mass * _EPS64 * 4 > 1e-10 * scale
    coeffs = _block_coefficients(y, t, s, 1.0, 0, dps)
    if not exact:
        coeffs = [float(ck) for ck in coeffs]
    blocks = tuple(SHBlock(float(tk), ck, 1.0) for tk, ck in zip(t, coeffs))

    # attached series: matched Taylor part plus the first correction exponents
    poly_exps = tuple(range(n))
    poly_coefs = tuple(spec.values[i] / math.factorial(i) for i in range(n))
    tail_exps, tail_coefs = _tail_series(moments, s, n, 1.0, 0)
    radius = 0.5 * float(np.min(t))
    series = (TaylorSeries(poly_exps, poly_coefs, tail_exps, tail_coefs, radius),)
    info = MatchInfo(condition=_condition_estimate(t, n), dps=dps,
                     exact_coefficients=exact, spec_values=spec.values)
    return SHCombo(s, blocks, interval, series, info)


def readback_derivatives(combo: SHCombo, n_orders: int) -> np.ndarray:
    """Derivatives at 0 of a unit-scale matched combination, computed from
    the closed form in the precision the coefficients carry."""
    dps = (combo.match_info.dps if combo.match_info is not None else 40)
    out = np.empty(n_orders)
    with workdps(dps):
        sm = mpf(combo.s)
        for i in range(n_orders):
            fall = _falling_factorial_mp(sm, i)
            acc = mpf(0)
            for b in combo.blocks:
                acc += mpf(b.c) * mpf(b.r) ** i * fall * mpf(b.t) ** (sm - i)
            out[i] = float(acc)
    return out


def assemble_scaled_group(spec_values: Sequence[float], nodes: Sequence[float],
                          s: float, j: int, big_n: int, r: float,
                          interval: tuple[float, float], eps: float) -> SHCombo:
    """Matched group under the substitution x -> r x, faithful to c_j x^j.

    The matching system is solved exactly (see solve_derivative_match), so
    the only rounding is in the stored block coefficients y_k t_k^-s r^-j.
    Reading the function back off the blocks amplifies that rounding by
    about the coefficient mass times r^-j, so the coefficients carry enough
    digits that the amplified noise stays far below eps.  float64 storage
    is never sufficient here; the blocks always carry extended precision
    values.  big_n must be the matching order len(nodes) - 1.
    """
    t = np.asarray(nodes, dtype=float)
    n = t.size
    if not (0 < r <= 1.0) or not np.isfinite(r):
        raise DomainError(f"scale must lie in (0, 1], got {r}")
    if len(spec_values) != n or big_n != n - 1:
        raise DomainError(
            f"matching order {big_n} with {len(spec_values)} derivative values "
            f"needs {big_n + 1} of each, got {n} nodes")
    y, moments = _exact_match(spec_values, t, s)
    mass = sum(abs(float(yk)) for yk in y)
    amp = (math.log10(1.0 + mass) + j * math.log10(1.0 / r)
           + math.log10(1.0 / eps) + 8.0)
    dps = 25 + int(amp)

    cj = spec_values[j] / math.factorial(j)
    coeffs = _block_coefficients(y, t, s, r, j, dps)
    blocks = tuple(SHBlock(float(tk), ck, r) for tk, ck in zip(t, coeffs))
    tail_exps, tail_coefs = _tail_series(moments, s, n, r, j)
    radius = 0.5 * float(np.min(t)) / r
    series = (TaylorSeries((j,), (cj,), tail_exps, tail_coefs, radius),)
    info = MatchInfo(condition=_condition_estimate(t, n), dps=dps,
                     exact_coefficients=True, spec_values=tuple(spec_values))
    return SHCombo(s, blocks, tuple(interval), series, info)


def rescale_for_defect(combo: SHCombo, j: int, big_n: int, eps: float) -> SHCombo:
    """Shrink the argument scale so the matched group stays eps-close to its
    target monomial in C^2 norm.

    Applies x -> r*x with r = eps / (10 * N^2 * (1 + S)) where S bounds the
    (N+1)-th derivative of the unscaled combination on [-1, 1], and divides
    by r^j so the j-th Taylor coefficient is preserved.
    """
    if combo.match_info is None:
        raise DomainError("rescale requires a combination built by solve_derivative_match")
    if not (0 <= j <= big_n):
        raise DomainError(f"monomial degree {j} outside matching order {big_n}")
    if eps <= 0:
        raise DomainError(f"tolerance must be positive, got {eps}")
    t_min = min(b.t for b in combo.blocks)
    if t_min <= 1.0:
        raise DomainError("rescaling bound requires all nodes above 1")
    with workdps(combo.match_info.dps):
        sm = mpf(combo.s)
        fall = abs(_falling_factorial_mp(sm, big_n + 1))
        S = mpf(0)
        for b in combo.blocks:
            S += abs(mpf(b.c)) * fall * (mpf(b.t) - 1) ** (sm - big_n - 1)
        r_mp = mpf(eps) / (10 * mpf(big_n) ** 2 * (1 + S))
        if r_mp > 1:
            r_mp = mpf(1)
        r = float(r_mp)
    if r == 0.0:
        raise ConditioningError(
            f"defect scale underflows float64 for degree {j}: bound S={float(S):.3e}")
    nodes = tuple(b.t for b in combo.blocks)
    return assemble_scaled_group(combo.match_info.spec_values, nodes, combo.s,
                                 j, big_n, r, combo.interval, eps)


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
    series representation is intentionally not serialized: it can be
    rebuilt, and the schema stays a plain list of blocks.
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
