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
multiplies is bounded in the same integers: r_k x + t_k formed exactly at
each point, each power enclosed by _dyadic.fixed_pow, the uppers of the
terms summed exactly and the product with |Phi| plus its error rounded up
to float once.  The bound is within a proved relative delta of the exact
product, and keeps the mass's order in x.
"""

from __future__ import annotations

import math

import numpy as np

from ._dyadic import Dyadic, exact_sum, fixed_exp, fixed_ln, parts, pow_box, round_bits, to_float
from .blocks import SHCombo, _nonfinite_points
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
    (pn, pd), (sn, sd) = p.as_integer_ratio(), s.as_integer_ratio()
    L = max(pd, sd)  # both are powers of two
    P, S = pn * (L // pd), sn * (L // sd)
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
# the cancellation mass in integers


def _mass(combo: SHCombo, xs: np.ndarray) -> list[tuple[int, int]]:
    """(M, e) at each point x of xs, with M 2^e an upper bound on the
    cancellation mass sum_k |c_k| r_k^(2s) (r_k x + t_k)^-s (0 when every
    coefficient is zero); raises DomainError at or past a kink.  Per point,
    r_k x + t_k is formed exactly and rounded down to 53 bits as a'; each
    term is |c_k| times the upper X + E of exp(2 s ln r_k - s ln a') from
    _dyadic.fixed_ln and fixed_exp at w bits, with 2 s ln r_k formed once
    per scale, and the terms add exactly, so a point's mass depends on that
    point alone."""
    sn, sd = combo.s.as_integer_ratio()
    w = 129 - math.frexp(combo.s)[1]
    logs = {r: [2 * sn * v for v in fixed_ln(*parts(r), w)] for r in {b.r for b in combo.blocks}}
    blocks = []  # (|c| as m 2^e, 2 s ln r as (X, E) times sd, then r and t as integer pairs)
    for b in combo.blocks:
        (cm, ce), (rm, re), (tm, te) = parts(b.c), parts(b.r), parts(b.t)
        blocks.append((abs(cm), ce, *logs[b.r], rm, re, tm, te, b.kink))
    out = []
    for x in xs:
        xm, xe = parts(float(x))
        terms = []
        for c, ce, lr, er, rm, re, tm, te, kink in blocks:
            arg, low = exact_sum(((rm * xm, re + xe), (tm, te)))
            if arg <= 0:
                raise DomainError(f"point {x} is outside the smooth region (kink at {kink})")
            if c:
                la, ea = fixed_ln(*round_bits(arg, low, 53, "d"), w)
                v, e, f = fixed_exp((lr - sn * la) // sd, (er + sn * ea) // sd + 2, w)
                terms.append((c * (v + e), ce + f))
        out.append(exact_sum(terms))
    return out


def _ceil_log10(m: int, n: int) -> int:
    """ceil(log10(m 2^n)) for an integer m > 0, exactly."""
    def above(k):  # m 2^n > 10^k, both sides times 2^max(k - n, 0) 5^max(-k, 0)
        return (m << max(n - k, 0)) * 5 ** max(-k, 0) > 5 ** max(k, 0) << max(k - n, 0)
    k = math.ceil(math.log10(m) + n * math.log10(2.0))
    while above(k):
        k += 1
    while not above(k - 1):
        k -= 1
    return k


def _float_up(man: int, exp: int) -> float:
    """man 2^exp for an integer man >= 0 rounded up to float64: to 53 bits,
    to the grid of 2^-1074 below 2^-1022, and inf past the float range."""
    prec = min(53, exp + man.bit_length() + 1074)
    return to_float(*round_bits(man, exp, prec, "u")) if prec > 0 or not man else 5e-324


def combo_residual(combo: SHCombo, xs) -> np.ndarray:
    """Absolute value of the defining integral of a block combination.

    Each value bounds |(-Delta)^s v(x)|: |Phi(s, s)| plus its error bound,
    an exact Dyadic, times the integer upper bound on the cancellation mass
    sum_k |c_k| r_k^(2s) (r_k x + t_k)^-s (_mass), rounded up to float
    once.  Coefficients past the float64 range neither overflow nor lose
    digits, and no rounding is amplified next to a kink.  Phi is evaluated
    at a precision chosen from the largest mass, so the result is
    meaningful even when the raw coefficients overflow any fixed-precision
    cancellation.

    The result is at least the exact product and at most 1 + delta times
    it, delta = 2^-51 + 2^-103 < 4.45e-16.  With s = m 2^e, m in [1/2, 1),
    _mass works at w = 129 - e bits.  Its bases b have 53 bits, |log2 b| <=
    1074 for r_k and < 2149 for a', and fixed_ln's E is below 2 |log2 b| +
    w/6 + 40 units: _ln_cut's entries within 2 units (their own errors, far
    below 2^32 units, fall off with the 32 guard bits), |log2 b| + 12
    multiples of ln 2 within 2 each, the series in u^2.  So z = 2 s ln r_k
    - s ln a' is within 8716 + w/2 units, the |n| <= 4298 multiples of ln 2
    fixed_exp takes from it add 2 |n|, and its E, at most 3 (8716 + w/2 +
    2 |n|) + 4, is below 2^16 units of an X above 2^(w-1): each upper is
    within a factor 1 + 2^(19-w) <= 1 + s 2^-109 of exp(z).  Rounding r_k x
    + t_k down to a' raises its power by at most a factor (1 + 2^-52)^s <=
    1 + s 2^-52, and the rounding to float adds less than 1 + 2^-52.

    Each value is nonincreasing in x, so a value at a point bounds every
    point to its right in the smooth region: a larger r_k x + t_k rounds to
    the same a', which gives the same term, or to one at least 1 + 2^-53
    times larger, whose power is smaller by a factor 1 + s 2^-54 at least,
    far more than the width of either enclosure.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.isfinite(xs).all():
        raise _nonfinite_points(xs)
    masses = _mass(combo, xs)
    top = max(masses, key=lambda me: Dyadic.exact(*me), default=(0, 0))
    amp = max(0, _ceil_log10(*top)) if top[0] else 0
    dps = ((25 + amp + 19) // 20) * 20  # quantize for cache reuse
    phi, phi_err = canonical_constant(combo.s, combo.s, dps)
    bm, be = parts(abs(phi) + abs(phi_err))
    return np.array([_float_up(m * bm, e + be) for m, e in masses])
