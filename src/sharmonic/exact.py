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
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import mpmath
from mpmath import iv, mpf, workdps, workprec

from .blocks import SHCombo
from .errors import DomainError

_phi_cache: dict[tuple[float, float, int], tuple[mpf, mpf]] = {}
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


def canonical_constant(p: float, s: float, dps: int) -> tuple[mpf, mpf]:
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
    factors K, the closed-form parts and the Cauchy bounds are enclosed in
    intervals by mpmath.iv at W + 64 bits and rounded outward to units
    [lo, hi].  K times a zone sum X (error E), floored, is within
    (hi E + (hi - lo) |X|) / 2^W + 1 units of the product.  Each zone
    holds its terms scaled by their geometric weight, so E stays a few
    units: the ratios of zones 1-3 fall to 1/4, 1/2 and (1+2s+k)/(2k+2),
    and in the difference form of zones 4-5 E halves and gains a few units
    per step, where the three-term form would multiply it by about 1.78.
    The sum converts to mpf exactly; its error is sum E plus the tails.
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
    prec = w + 64 + max(0, 1 - math.frexp(s)[1])  # 1/s < 2^(1-e)
    saved, iv.prec = iv.prec, prec
    try:
        pm, sm, two = iv.mpf(p), iv.mpf(s), iv.mpf(2)
        # int_2^inf and int_{1/2}^2 of 2 w^(-1-2s) in closed form, the factors
        # K of zones 1-5 and the Cauchy bounds of zones 4-5
        boxes = [4 ** -sm / sm, (4 ** sm - 4 ** -sm) / sm, two ** (2 * sm - 1),
                 two ** (pm - 2 * sm), two ** -(pm + 1), two ** (pm - 1)] + [
            7 * (iv.mpf(23) / 8) ** pm * (8 ** -(iv.mpf(A) / L) if A < 0
                                          else (iv.mpf(15) / 8) ** (iv.mpf(A) / L)) / 6
            for A in exponents]
    finally:
        iv.prec = saved
    with workprec(prec):  # the endpoints convert exactly
        c0, c1, k1, k2, k3, k4, *cauchy = [
            (int(mpmath.floor(mpmath.ldexp(mpf(b.a), w))),
             int(mpmath.ceil(mpmath.ldexp(mpf(b.b), w)))) for b in boxes]
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
    with workprec(max(value.bit_length(), (err + tails).bit_length()) + 8):
        result = mpmath.ldexp(mpf(value), -w), mpmath.ldexp(mpf(err + tails), -w)
    _phi_cache[key] = result
    return result


def canonical_constant_closed_form(p: float, s: float, dps: int = 40) -> mpf:
    """Independent closed form of Phi(p, s) from the Mellin continuation:

        Phi = -Gamma(-2s) * [Gamma(2s-p)/Gamma(-p) + Gamma(1+p)/Gamma(1+p-2s)]

    Valid away from the numerator poles (-2s or 2s-p a nonpositive integer;
    1/Gamma vanishes at the denominator's); a cross-check oracle only.
    """
    with workdps(dps):
        pm = mpf(p)
        sm = mpf(s)
        for pole in (-2 * sm, 2 * sm - pm):
            if mpmath.isint(pole) and pole <= 0:
                raise DomainError(f"closed form hits a Gamma pole at parameter {float(pole)}")
        bracket = mpmath.gamma(2 * sm - pm) * mpmath.rgamma(-pm) \
            + mpmath.gamma(1 + pm) * mpmath.rgamma(1 + pm - 2 * sm)
        return -mpmath.gamma(-2 * sm) * bracket


def power_block_reference(t: float, p: float, s: float, x: float, dps: int = 40) -> float:
    """Reference value of the operator applied to (z + t)_+^p at x > -t.

    Exact reduction Phi(p, s) * (x + t)^(p - 2s); nonzero whenever p != s.
    Serves as an independent oracle for the float64 quadrature engine.
    """
    if x + t <= 0:
        raise DomainError(f"point {x} is outside the smooth region of the block")
    phi, _ = canonical_constant(p, s, dps)
    with workdps(dps + 10):
        return float(phi * (mpf(x) + mpf(t)) ** (mpf(p) - 2 * mpf(s)))


def _mass_slack(n_blocks: int) -> mpf:
    """Relative slack on a 30-digit mass of n_blocks blocks (call it at 30
    digits): 10^-25 covers the roundings for up to 10^4 blocks, and it
    grows with the block count past that."""
    return mpf(10) ** -25 * max(1, n_blocks / 10 ** 4)


def combo_residual(combo: SHCombo, xs) -> np.ndarray:
    """Absolute value of the defining integral of a block combination.

    Each value is |Phi(s, s)| plus its error bound, times the cancellation
    mass sum_k |c_k| r_k^(2s) (r_k x + t_k)^-s, evaluated at 30 digits and
    rounded up to float.  r_k x + t_k is formed exactly, so no rounding is
    amplified next to a kink; a term takes five roundings, three of them
    once per block (r_k^(2s) once per group of equal r), and one addition,
    which _mass_slack covers.  Every term of the mass is positive and
    decreasing in x, so a value at a point bounds every point to its right
    in the smooth region.  Phi is evaluated at a precision chosen from the
    largest mass, so the result is meaningful even when the raw
    coefficients overflow any fixed-precision cancellation.  Each returned
    value bounds |(-Delta)^s v(x)|.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    with workdps(30):
        sm = mpf(combo.s)
        neg = -sm
        scaling = {g[0].r: mpf(g[0].r) ** (2 * sm) for g in combo.groups}
        consts = [(abs(mpf(b.c)) * scaling[b.r], mpf(b.r), mpf(b.t), b.kink)
                  for b in combo.blocks]
        masses = []
        for x in xs:
            xm, acc = mpf(float(x)), mpf(0)
            for weight, r, t, kink in consts:
                arg = mpmath.fadd(mpmath.fmul(r, xm, exact=True), t, exact=True)
                if arg <= 0:
                    raise DomainError(
                        f"point {x} is outside the smooth region (kink at {kink})")
                acc += weight * arg ** neg
            masses.append(acc)
        worst = max(masses, default=mpf(0))
    amp = int(mpmath.ceil(mpmath.log10(worst))) if worst > 1 else 0
    dps = ((25 + amp + 19) // 20) * 20  # quantize for cache reuse
    phi, phi_err = canonical_constant(combo.s, combo.s, dps)
    with workdps(30):
        slack = _mass_slack(len(combo.blocks))
        bounds = [(abs(phi) + abs(phi_err)) * (1 + slack) * m for m in masses]
    # float() rounds toward zero (subnormals to nearest): step up where it fell below
    return np.array([math.nextafter(float(b), math.inf) if float(b) < b else float(b)
                     for b in bounds])
