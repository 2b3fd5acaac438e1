"""High-precision evaluation of the defining integral for power blocks.

For u(z) = (z + T)_+^p with T > 0 and a point x with xi = x + T > 0, the
substitution y = xi * w collapses the operator integral

    I(x) = int_0^inf [2 u(x) - u(x+y) - u(x-y)] / y^(1+2s) dy

to xi^(p-2s) * Phi(p, s) with the canonical constant

    Phi(p, s) = int_0^inf [2 - (1+w)^p - (1-w)_+^p] / w^(1+2s) dw.

Phi depends only on the exponents, so one arbitrary-precision evaluation
serves every block, every offset, and every evaluation point.  For p = s
the constant vanishes identically; computing it honestly (convergent
series with proved tail bounds, never assuming the cancellation) and
propagating |Phi| through the reduction turns the machinery into a
certified residual bound for block combinations whose raw coefficients
are far too large for direct quadrature in any fixed precision.

The computation is a genuine numerical evaluation of the integral: every
zone is summed term by term from a convergent series whose terms follow
a recurrence, in fixed-point integers scaled by 2^W, and the returned
error is the sum of the proved tail bounds and of integer bounds on the
rounding, carried beside each recurrence.

The cancellation mass sum_k |c_k| r_k^(2s) (r_k x + t_k)^-s that |Phi|
multiplies is summed in float64 over all blocks and points at once, from
each coefficient's mantissa and binary exponent, with r_k x + t_k formed as
its nearest float and log2 and 2^f taken from positive-coefficient series
in basic operations only.  It carries a proved relative inflation delta
(_mass_slack), and every rounded step keeps the mass's order in x.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from ._dyadic import Dyadic, pow_box
from .blocks import SHCombo
from .errors import DomainError

_phi_cache: dict[tuple[float, float, int], tuple[Dyadic, Dyadic]] = {}
_MAX_TERMS = 100000
_GUARD_DIGITS = 15  # the working precision W is dps + _GUARD_DIGITS digits


def _guard(k: int) -> None:
    if k > _MAX_TERMS:
        raise ArithmeticError("series for the canonical constant failed to converge")


def _zone(u, e, n, ratio, weight, tail, k_hi, tol, one):
    """Fixed-point sum of the terms u_n a_n / b_n, (a_n, b_n) = weight(n),
    where u_{n+1} = u_n c_n / d_n, (c_n, d_n) = ratio(n), and u is within e
    units.  The zone's factor K is at most k_hi units; the sum stops at the
    first n >= 1 where the tail bound, K |term| tail(n), is below tol units.
    Returns the sum, its rounding bound and the tail bound."""
    total = err = 0
    tol = tol * one // k_hi
    while True:
        a, b = weight(n)
        t = u * a // b
        et = -(-e * abs(a) // b) + 1
        total += t
        err += et
        c, d = tail(n)
        if n >= 1 and (abs(t) + et) * c < tol * d:
            return total, err, -(-(abs(t) + et) * k_hi * c // (d * one))
        c, d = ratio(n)
        u = u * c // d
        e = -(-e * abs(c) // d) + 1
        n += 1
        _guard(n)


def _g_zone(P, L, A, bound, tol, one):
    """Fixed-point sum of gamma_k / (k+1) for a = A/L (see canonical_constant),
    stopped at the first k where the Cauchy bound, bound (4/7)^(k+1) units,
    is below tol (k+2).  Returns the sum, its rounding bound and the tail."""
    C, B = -A - L, P + A + L  # (-1-a) L and (p+a+1) L
    g = d = one
    total = err = eg = ed = k = 0
    while True:
        total += g // (k + 1)
        err += -(-eg // (k + 1)) + 1
        bound = -(-bound * 4 // 7)
        if bound < tol * (k + 2):
            return total, err, -(-bound // (k + 2))
        x, y = k * L - B, 4 * L * (k + 1)
        d = (x * d + C * g) // y
        ed = -(-(abs(x) * ed + abs(C) * eg) // y) + 1
        g, eg = (g >> 1) + d, -(-eg // 2) + 1 + ed
        k += 1
        _guard(k)


def canonical_constant(p: float, s: float, dps: int) -> tuple[Dyadic, Dyadic]:
    """(value, error bound) for Phi(p, s) at dps significant digits.

    Requires 0 < p < 2s and 0 < s < 1 so the integral converges at both
    ends.  Every zone is a series summed until its proved tail bound falls
    below 10^-(dps+10); the error bound is the sum of those tail bounds
    and of running rounding bounds.  Results are cached per (p, s, dps).

    The sums run on integers X standing for X 2^-W, W = dps + 15 digits,
    each carried with an integer E: the true value lies within E units
    2^-W of X.  p = P/L and s = S/L exactly, for integers P, S and a power
    of two L, so every recurrence step multiplies by a ratio c/d of
    integers; floor(X c / d) lies within E |c| / d + 1 units of the true
    product, which rounded up is the new E.  Terms add exactly.  The zone
    factors K, the closed-form parts and the Cauchy bounds are enclosed at
    W + 64 bits (more for small s, whose 1/s they carry) in integers, each
    power of 2, 4, 8, 23/8 and 15/8 by _dyadic.pow_box, products, the
    difference and the divisions rounded outward, then rounded outward to
    units [lo, hi].  K times a zone sum X (error E), floored, is within
    (hi E + (hi - lo) |X|) / 2^W + 1 units of the product.  Each zone
    holds its terms scaled by their geometric weight, so E stays a few
    units: the ratios of zones 1-3 fall to 1/4, 1/2 and (1+2s+k)/(2k+2),
    and in the difference form of zones 4-5 E halves and gains a few units
    per step, where the three-term form would multiply it by about 1.78.
    The sum and its error, sum E plus the tails, are returned exactly as
    Dyadics.
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    if not (0.0 < p < 2.0 * s):
        raise DomainError(f"power {p} must lie in (0, 2s) = (0, {2 * s}) for convergence")
    p, s = float(p), float(s)
    key = (p, s, int(dps))
    if key in _phi_cache:
        return _phi_cache[key]

    w = math.ceil((dps + _GUARD_DIGITS) * math.log2(10))
    one = 1 << w
    fp, fs = Fraction(p), Fraction(s)
    L = max(fp.denominator, fs.denominator)  # both are powers of two
    P, S = int(fp * L), int(fs * L)
    tol = one // 10 ** (dps + 10)  # 10^-(dps+10) in units, rounded down
    exponents = (-L - 2 * S, 2 * S - L - P)  # a = A/L of zones 4-5 below
    fine = w + 64 + max(0, 1 - math.frexp(s)[1])  # 1/s < 2^(1-e)

    def power(man, exp, xn):  # (man 2^exp)^(xn / L), in units 2^-fine
        return pow_box(man, exp, xn, L, fine)

    def over_s(lo, hi):
        return lo * L // S, -(-hi * L // S)

    def cauchy_bound(A):  # 7 (23/8)^p max(8^-a, (15/8)^a) / 6, a = A/L
        (a, b), (c, d) = power(23, -3, P), power(1, 3, -A) if A < 0 else power(15, -3, A)
        return 7 * (a * c >> fine) // 6, -(-7 * (b * d) // (6 << fine))

    # int_2^inf and int_{1/2}^2 of 2 w^(-1-2s) in closed form, the factors
    # K of zones 1-5 and the Cauchy bounds of zones 4-5
    (q_lo, q_hi), (p_lo, p_hi) = power(1, 2, -S), power(1, 2, S)  # 4^-s, 4^s
    boxes = [over_s(q_lo, q_hi), over_s(p_lo - q_hi, p_hi - q_lo), power(1, 1, 2 * S - L),
             power(1, 1, P - 2 * S), power(1, 1, -P - L), power(1, 1, P - L)] + [
        cauchy_bound(A) for A in exponents]
    c0, c1, k1, k2, k3, k4, *cauchy = [(lo >> (fine - w), -(-hi >> (fine - w)))
                                        for lo, hi in boxes]
    zones = [
        # zone [0, 1/2]: 2 - (1+w)^p - (1-w)^p = -2 sum_{m>=1} binom(p, 2m) w^(2m);
        # the kernel singularity integrates in closed form term by term, to
        # -K1 u_m / (2m - 2s) with u_m = binom(p, 2m) 4^(1-m) and K1 = 2^(2s-1).
        # Since |binom(p, k+1) / binom(p, k)| <= 1 for k >= 1, terms shrink by
        # 1/4 and the tail is at most a third of the last term
        (k1, _zone((P * (P - L) << w) // (2 * L * L), 1, 1, lambda m: (
            (P - 2 * m * L) * (P - 2 * m * L - L), 4 * L * L * (2 * m + 1) * (2 * m + 2)),
            lambda m: (L, 2 * (m * L - S)), lambda m: (1, 3), k1[1], tol, one)),
        # zone [2, inf): (1+w)^p = sum_q binom(p, q) w^(p-q) with 1/w <= 1/2, so
        # term q is -K2 u_q / (q + 2s - p), u_q = binom(p, q) 2^-q, K2 = 2^(p-2s);
        # from q = 1 on terms shrink by 1/2, so the tail is at most the last term
        (k2, _zone(one, 0, 0, lambda q: (P - q * L, 2 * L * (q + 1)),
                   lambda q: (L, q * L + 2 * S - P), lambda q: (1, 1), k2[1], tol, one)),
        # zones [1/2, 1] and [1, 2] less the closed form above.  The singular
        # part int_0^{1/2} u^p (1-u)^(-1-2s) du (u = 1 - w) from the binomial
        # series of (1-u)^(-1-2s): term k is -K3 u_k / (p + k + 1) with
        # u_k = binom(-1-2s, k) (-2)^-k and K3 = 2^-(p+1).  Successive terms
        # shrink by at most rho = (1+2s+k) / (2(k+1)), which falls with k, so
        # the tail after term k is at most term * rho / (1 - rho)
        (k3, _zone(one, 0, 0, lambda k: (L + 2 * S + k * L, 2 * L * (k + 1)),
                   lambda k: (L, P + (k + 1) * L),
                   lambda k: (L + 2 * S + k * L, (k + 1) * L - 2 * S), k3[1], tol, one)),
    ]
    # and int_{1/2}^1 (1+w)^p w^a dw for a = -1-2s and, after w -> 1/w on
    # [1, 2], a = 2s-1-p.  With u = 1 - w it is 2^p int_0^{1/2} g(u) du for
    # g = (1-u/2)^p (1-u)^a, whose Taylor coefficients satisfy
    # 2(k+1) g_{k+1} = (3k-p-2a) g_k + (p+a+1-k) g_{k-1}.  On |u| = 7/8,
    # |g| <= M = (23/16)^p max(8^-a, (15/8)^a), so |g_k| <= M (8/7)^k (Cauchy)
    # and the tail after term k is at most 2^p 7M (4/7)^(k+1) / (6(k+2)).
    # Term k is -K4 gamma_k / (k+1) with gamma_k = g_k 2^-k and K4 = 2^(p-1);
    # in difference form delta_k = (g_k - g_{k-1}) 2^-k (g_{-1} = 0) gives
    # delta_{k+1} = ((k-p-a-1) delta_k + (-1-a) gamma_k) / (4(k+1)) and
    # gamma_{k+1} = gamma_k / 2 + delta_{k+1}
    zones += [(k4, _g_zone(P, L, A, hi, tol, one)) for A, (_, hi) in zip(exponents, cauchy)]
    value, err, tails = c0[0] + c1[0], c0[1] - c0[0] + c1[1] - c1[0], 0
    for (lo, hi), (total, e_total, tail) in zones:
        value -= (lo * total) >> w
        err += -(-(hi * e_total + (hi - lo) * abs(total)) // one) + 1
        tails += tail
    result = Dyadic.exact(value, -w), Dyadic.exact(err + tails, -w)
    _phi_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# the cancellation mass in float64

_LOG2E = 1.4426950408889634  # the float nearest 1/ln 2
_LN2 = 0.6931471805599453  # the float nearest ln 2
_ATANH = tuple(1.0 / (2 * k + 1) for k in range(15))  # atanh(u) / u in powers of u^2
_EXP2 = tuple(itertools.accumulate(range(1, 16), lambda c, k: c * _LN2 / k,
                                   initial=1.0))  # 2^f in powers of f
_CLAMP = 2.0**1000  # largest |r x| / 2^e(t) formed
_FLOOR = 2.0**-1000  # smallest term kept, relative to a point's largest
_ZERO_EXP = -(1 << 40)  # binary exponent given to a zero coefficient
_CHUNK = 1 << 16  # blocks x points per pass


def _mass_slack(n_blocks: int) -> float:
    """delta(n): the float64 mass of n blocks, times 1 + delta, is at least
    the exact mass and at most 1 + 2 delta times it.

    With u = 2^-53, each term |c_k| 2^z, z = s (2 log2 r_k - log2 a_k) for
    a_k = r_k x + t_k, is within a factor 1 +- 7975u of its exact value:

    * |c_k|: its mantissa rounded up to 53 bits, a factor in [1, 1 + 2u];
    * a_k: the float nearest it (see _scaled_argument), so log2 a_k moves
      by at most 1.45u;
    * log2 of a float (see _log2): the atanh series cut after 15 terms
      leaves 1.6u, its coefficients, the quotient and the Horner steps 35u,
      all relative to log2 y < 1; the integer exponent is then added in
      float, with |log2 a| < 2^11 and |log2 r| < 2^11, each within 1024u;
    * z: the difference and the product by s, with |z| < 2^13, add 4096u
      each, so z is within 11386u and 2^z within ln 2 * 11386u = 7893u;
    * 2^f for f in [0, 1) (see _exp2): truncating after f^15 leaves 1.3u,
      the coefficients (3 roundings per power of ln 2 / k) 46u and the
      Horner steps 31u;
    * the mantissa product: u.

    Pairwise summation over ceil(log2 n) levels adds 1.01u per level, and
    raising terms below 2^-1000 of a point's largest adds less than u.
    The bound |Phi| + err is rounded up (at most 2u), and the product with
    the mass and with the float 1 + delta, rounded up, add 4u.  So for up
    to 2^14 blocks (14 levels) the result is within 8000u < 8.9e-13 of its
    exact value before the factor 1 + delta, and delta = 2e-12 both covers
    that and keeps the product below 1 + 2 delta; past 2^14 blocks delta
    grows by 2u per level.  The upper side holds for |r_k x| < 2^999 t_k;
    past that a_k is taken as 2^1000 t_k, an upper bound.
    """
    return 2e-12 + max(0, (max(n_blocks, 1) - 1).bit_length() - 14) * 2.0**-52


def _mantissa_up(v) -> tuple[float, int]:
    """(m, e) with m 2^e >= |v| by at most a factor 1 + 2^-52, m a float in
    [0.5, 1]; exact for floats, (0.0, 0) for zero."""
    if isinstance(v, float):
        return math.frexp(abs(v))
    _, man, exp, bits = v._mpf_
    if bits > 53:
        man, cut = int(man), bits - 53
        man, exp = (man >> cut) + ((man >> cut) << cut != man), exp + cut
    m, e = math.frexp(float(man))
    return m, e + exp


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of floats |a| < 1 into two halves of 26 bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = fl(a + b) and the exact a + b - s."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _horner(coefs: tuple[float, ...], w: np.ndarray) -> np.ndarray:
    acc = np.full(w.shape, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= w
        acc += c
    return acc


def _log2(h: np.ndarray, e0) -> np.ndarray:
    """log2(h 2^e0) for floats h > 0 and integers e0, nondecreasing in h.

    h = y 2^(e-1) with y in [1, 2), and log2 y = (2 / ln 2) atanh(u) for
    u = (y - 1)/(y + 1) in [0, 1/3), from the series of atanh(u) / u in u^2
    through u^28.  Every step is nondecreasing in y: fl(y + 1) moves by one
    place where y moves by one, which leaves u nondecreasing, and Horner's
    rule with positive coefficients at u^2 >= 0 is.  log2 1 = 0 exactly and
    min(., 1) carry that across binades.
    """
    m, e = np.frexp(h)
    y = m + m
    u = (y - 1.0) / (y + 1.0)
    acc = _horner(_ATANH, u * u)
    acc *= u
    acc *= 2.0 * _LOG2E
    np.minimum(acc, 1.0, out=acc)
    return (e - 1 + e0) + acc


def _exp2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, n), q in [1, 2] and n integer, with q 2^n = 2^z, nondecreasing in
    z: 2^f for f = z - floor(z) in [0, 1) from its Taylor series through
    f^15, positive coefficients at f >= 0; q(0) = 1 and min(., 2) carry
    that across integers."""
    n = np.floor(z)
    q = _horner(_EXP2, z - n)
    np.minimum(q, 2.0, out=q)
    return q, n.astype(np.int64)


def _scaled_argument(mr, rh, rl, shift0, mt, xs) -> np.ndarray:
    """The float nearest (r_k x + t_k) / 2^e_k, t_k = mt_k 2^e_k, for each
    block k (rows) and point x (columns), with r_k x / 2^e_k clamped to at
    most 2^1000.  r_k = mr_k 2^(er_k), rh_k + rl_k = mr_k (_split) and
    shift0_k = er_k - e_k.

    Dekker's TwoProduct of the mantissas is exact, and scaling it by 2^shift
    is exact unless r_k x / 2^e_k is below 2^-969, where mt_k alone is the
    nearest float.  TwoSum with mt_k gives the argument exactly as s1 + c +
    d with c = fl(e + es) (Ogita, Rump and Oishi 2005); |d| is at most half
    a unit in the last place of c, so fl(s1 + c) is the nearest float to the
    argument unless s1 + c is a tie, where d decides.
    """
    mx, ex = np.frexp(xs)
    xh, xl = _split(mx)
    p = mr[:, None] * mx
    e = rh[:, None] * xh - p
    e += rh[:, None] * xl
    e += rl[:, None] * xh
    e += rl[:, None] * xl
    shift = shift0[:, None] + ex
    if shift.max(initial=0) > 990:
        np.minimum(shift, 1010, out=shift)
        p, e = np.ldexp(p, shift), np.ldexp(e, shift)
        over = (p > _CLAMP) | ((p == _CLAMP) & (e > 0))
        under = (p < -_CLAMP) | ((p == -_CLAMP) & (e < 0))
        p[over], p[under] = _CLAMP, -_CLAMP
        e[over | under] = 0.0
    else:
        p, e = np.ldexp(p, shift), np.ldexp(e, shift)
    s1, es = _two_sum(p, mt[:, None])
    c, d = _two_sum(e, es)
    hi, f = _two_sum(s1, c)
    step = np.nextafter(hi, np.copysign(np.inf, f)) - hi
    tie = (f + f == step) & (f * d > 0)
    hi[tie] += step[tie]
    return hi


def _pairwise_sum(v: np.ndarray) -> np.ndarray:
    """Sum of the rows of v, each column in the same order: row k plus row
    k + half, halving until one row is left (v is overwritten)."""
    rows = v.shape[0]
    while rows > 1:
        half = rows // 2
        v[:half] += v[half:2 * half]
        if rows % 2:
            v[half] = v[rows - 1]
        rows = half + rows % 2
    return v[0]


def _mass(combo: SHCombo, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, N) with S 2^N the float64 cancellation mass at each point, S a
    float and N an integer: within 1 +- 8000u of sum_k |c_k| r_k^(2s)
    (r_k x + t_k)^-s for up to 2^14 blocks (see _mass_slack), S = 0 when
    every coefficient is zero.  Each value is nonincreasing in x and does
    not depend on the other points.  Raises DomainError at or past a kink.
    """
    blocks = combo.blocks
    cm, ce = (np.array(v) for v in zip(*(_mantissa_up(b.c) for b in blocks)))
    ce = np.where(cm > 0, ce, _ZERO_EXP)
    mt, et = np.frexp(np.array([b.t for b in blocks]))
    mr, er = np.frexp(np.array([b.r for b in blocks]))
    rh, rl = _split(mr)
    twice_log_r = 2.0 * _log2(mr, er)
    shift0 = er.astype(np.int64) - et
    S, N = np.zeros(xs.size), np.zeros(xs.size, dtype=np.int64)
    step = max(1, _CHUNK // len(blocks))
    for lo in range(0, xs.size, step):
        x = xs[lo:lo + step]
        hi = _scaled_argument(mr, rh, rl, shift0, mt, x)
        inside = hi > 0
        if not inside.all():
            j = int(np.argmin(inside.all(axis=0)))
            k = int(np.argmin(inside[:, j]))
            raise DomainError(f"point {x[j]} is outside the smooth region "
                              f"(kink at {blocks[k].kink})")
        z = twice_log_r[:, None] - _log2(hi, et[:, None])
        z *= combo.s
        q, n = _exp2(z)
        q *= cm[:, None]
        n += ce[:, None]
        top = n.max(axis=0)
        n -= top
        np.maximum(n, -1020, out=n)
        v = np.ldexp(q, n)
        np.maximum(v, _FLOOR, out=v)
        S[lo:lo + step], N[lo:lo + step] = _pairwise_sum(v), top
    if not cm.any():
        S[:] = 0.0
    return S, N


def _ceil_log10(m: float, n: int) -> int:
    """ceil(log10(m 2^n)) for a float m > 0, exactly."""
    value = Fraction(m) * Fraction(2) ** n
    k = math.ceil(math.log10(m) + n * math.log10(2.0))
    while Fraction(10) ** k < value:
        k += 1
    while Fraction(10) ** (k - 1) >= value:
        k -= 1
    return k


def combo_residual(combo: SHCombo, xs) -> np.ndarray:
    """Absolute value of the defining integral of a block combination.

    Each value is |Phi(s, s)| plus its error bound, rounded up, times the
    cancellation mass sum_k |c_k| r_k^(2s) (r_k x + t_k)^-s, times 1 +
    delta (_mass_slack), rounded up to float.  The mass is summed in float64
    over all blocks and points at once (_mass): each |c_k| enters as its
    mantissa and binary exponent, so coefficients past the float64 range
    neither overflow nor lose digits, and r_k x + t_k is formed as its
    nearest float, so no rounding is amplified next to a kink.  The result
    is at least the exact product and at most 1 + 2 delta times it.

    Every term of the mass is positive and decreasing in x, and every
    rounded step preserves that order, so a value at a point bounds every
    point to its right in the smooth region, and each point's value does
    not depend on the array it is evaluated in.  Phi is evaluated at a
    precision chosen from the largest mass, so the result is meaningful
    even when the raw coefficients overflow any fixed-precision
    cancellation.  Each returned value bounds |(-Delta)^s v(x)|.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise DomainError(f"points must be finite, got {xs[~np.isfinite(xs)][0]}")
    if combo.blocks:
        S, N = _mass(combo, xs)
    else:
        S, N = np.zeros(xs.size), np.zeros(xs.size, dtype=np.int64)
    amp = 0
    if S.any():
        j = int(np.argmax(np.ldexp(S, N - N.max())))
        amp = max(0, _ceil_log10(float(S[j]), int(N[j])))
    dps = ((25 + amp + 19) // 20) * 20  # quantize for cache reuse
    phi, phi_err = canonical_constant(combo.s, combo.s, dps)
    bm, be = _mantissa_up(abs(phi) + abs(phi_err))
    inflation = math.nextafter(1.0 + _mass_slack(len(combo.blocks)), math.inf)
    out = np.ldexp(bm * S * inflation, N + be)
    # ldexp rounds to nearest below 2^-1022: step up there
    low = (out < 2.0**-1022) & (S > 0)
    out[low] = np.nextafter(out[low], np.inf)
    return out
