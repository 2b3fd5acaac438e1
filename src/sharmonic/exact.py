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
a recurrence, and the returned error is the sum of the proved tail bounds
plus a rounding allowance.
"""

from __future__ import annotations

import math

import numpy as np
import mpmath
from mpmath import mpf, workdps

from .blocks import SHCombo
from .errors import DomainError

_phi_cache: dict[tuple[float, float, int], tuple[mpf, mpf]] = {}
_MAX_TERMS = 100000


def _guard(k: int) -> None:
    if k > _MAX_TERMS:
        raise ArithmeticError("series for the canonical constant failed to converge")


def canonical_constant(p: float, s: float, dps: int) -> tuple[mpf, mpf]:
    """(value, error bound) for Phi(p, s) at dps significant digits.

    Requires 0 < p < 2s and 0 < s < 1 so the integral converges at both
    ends.  Every zone is a series summed until its proved tail bound falls
    below 10^-(dps+10); the error bound is the sum of those tail bounds
    plus a rounding allowance.  Results are cached per (p, s, dps).
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    if not (0.0 < p < 2.0 * s):
        raise DomainError(f"power {p} must lie in (0, 2s) = (0, {2 * s}) for convergence")
    key = (float(p), float(s), int(dps))
    if key in _phi_cache:
        return _phi_cache[key]

    with workdps(dps + 15):
        pm = mpf(p)
        sm = mpf(s)
        tol = mpf(10) ** (-dps - 10)
        half = mpf(1) / 2
        # int_2^inf and int_{1/2}^2 of 2 w^(-1-2s), in closed form
        parts = [4 ** -sm / sm, (4 ** sm - 4 ** -sm) / sm]
        tails = []

        # zone [0, 1/2]: 2 - (1+w)^p - (1-w)^p = -2 sum_{m>=1} binom(p, 2m) w^(2m);
        # the kernel singularity integrates in closed form term by term.  Since
        # |binom(p, k+1) / binom(p, k)| <= 1 for k >= 1, terms shrink by 1/4 and
        # the tail is at most a third of the last term
        b, h, m = pm * (pm - 1) / 2, half ** (2 - 2 * sm), 1
        while True:
            term = -2 * b * h / (2 * m - 2 * sm)
            parts.append(term)
            if abs(term) < 3 * tol:
                tails.append(abs(term) / 3)
                break
            b *= (pm - 2 * m) * (pm - 2 * m - 1) / ((2 * m + 1) * (2 * m + 2))
            h /= 4
            m += 1
            _guard(m)

        # zone [2, inf): (1+w)^p = sum_q binom(p, q) w^(p-q) with 1/w <= 1/2;
        # from q = 1 on terms shrink by 1/2, so the tail is at most the last term
        b, h, q = mpf(1), 2 ** (pm - 2 * sm), 0
        while True:
            term = -b * h / (q + 2 * sm - pm)
            parts.append(term)
            if q >= 1 and abs(term) < tol:
                tails.append(abs(term))
                break
            b *= (pm - q) / (q + 1)
            h /= 2
            q += 1
            _guard(q)

        # zones [1/2, 1] and [1, 2] less the closed form above.  The singular
        # part int_0^{1/2} u^p (1-u)^(-1-2s) du (u = 1 - w) from the binomial
        # series of (1-u)^(-1-2s): successive terms shrink by at most
        # rho = (1+2s+k) / (2(k+1)), which falls with k, so the tail after term
        # k is at most term * rho / (1 - rho)
        c, h, k = mpf(1), half ** (pm + 1), 0
        while True:
            term = c * h / (pm + k + 1)
            parts.append(-term)
            rho = (1 + 2 * sm + k) / (2 * k + 2)
            if k >= 1 and term * rho < tol * (1 - rho):
                tails.append(term * rho / (1 - rho))
                break
            c *= 2 * rho
            h /= 2
            k += 1
            _guard(k)

        # and int_{1/2}^1 (1+w)^p w^a dw for a = -1-2s and, after w -> 1/w on
        # [1, 2], a = 2s-1-p.  With u = 1 - w it is 2^p int_0^{1/2} g(u) du for
        # g = (1-u/2)^p (1-u)^a, whose Taylor coefficients satisfy
        # 2(k+1) g_{k+1} = (3k-p-2a) g_k + (p+a+1-k) g_{k-1}.  On |u| = 7/8,
        # |g| <= M = (23/16)^p max(8^-a, (15/8)^a), so |g_k| <= M (8/7)^k (Cauchy)
        # and the tail after term k is at most 2^p 7M (4/7)^(k+1) / (6(k+2))
        ratio = mpf(4) / 7
        for a in (-1 - 2 * sm, 2 * sm - 1 - pm):
            alpha, beta = pm + 2 * a, pm + a + 1
            bound = 7 * 2 ** pm * (mpf(23) / 16) ** pm * max(8 ** -a, (mpf(15) / 8) ** a) / 6
            g0, g1, h, k = mpf(0), mpf(1), 2 ** (pm - 1), 0
            while True:
                parts.append(-g1 * h / (k + 1))
                bound *= ratio
                if bound < tol * (k + 2):
                    tails.append(bound / (k + 2))
                    break
                g0, g1 = g1, ((3 * k - alpha) * g1 + (beta - k) * g0) / (2 * k + 2)
                h /= 2
                k += 1
                _guard(k)

        value = mpmath.fsum(parts)
        # fsum rounds once (it drops only terms 2*prec bits below the sum);
        # each term is off by a few rounding units per recurrence step
        err = mpmath.fsum(tails) \
            + 4 * len(parts) * mpmath.mp.eps * mpmath.fsum(parts, absolute=True)

    _phi_cache[key] = (value, err)
    return value, err


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


def combo_residual(combo: SHCombo, xs, dps: int | None = None) -> np.ndarray:
    """Absolute value of the defining integral of a block combination.

    Each value is |Phi(s, s)| plus its error bound, times the cancellation
    mass sum_k |c_k| r_k^s (x + t_k/r_k)^-s, evaluated at 30 digits and
    rounded up to float.  Every term of the mass is positive and decreasing
    in x, so a value at a point bounds every point to its right in the
    smooth region.  Phi is evaluated at a precision chosen from the largest
    mass, so the result is meaningful even when the raw coefficients
    overflow any fixed-precision cancellation.  Each returned value bounds
    |(-Delta)^s v(x)|.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    with workdps(30):
        sm = mpf(combo.s)
        neg = -sm
        consts = [(abs(mpf(b.c)) * mpf(b.r) ** sm, mpf(b.t) / mpf(b.r), b.kink)
                  for b in combo.blocks]
        masses = []
        for x in xs:
            xm, acc = mpf(float(x)), mpf(0)
            for weight, offset, kink in consts:
                xi = xm + offset
                if xi <= 0:
                    raise DomainError(
                        f"point {x} is outside the smooth region (kink at {kink})")
                acc += weight * xi ** neg
            masses.append(acc)
        worst = max(masses, default=mpf(0))
    if dps is None:
        amp = int(mpmath.ceil(mpmath.log10(worst))) if worst > 1 else 0
        dps = ((25 + amp + 19) // 20) * 20  # quantize for cache reuse
    phi, phi_err = canonical_constant(combo.s, combo.s, dps)
    with workdps(30):
        # 10^-25 covers the 30-digit roundings here for fewer than 10^4 blocks
        bounds = [(abs(phi) + abs(phi_err)) * (1 + mpf(10) ** -25) * m for m in masses]
    # float() rounds toward zero (subnormals to nearest): step up where it fell below
    return np.array([math.nextafter(float(b), math.inf) if float(b) < b else float(b)
                     for b in bounds])
