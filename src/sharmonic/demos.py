"""Demonstrations built on the approximation pipeline.

Two headline constructions:

* a bounded function u - iota, an approximant u of x^2 minus the level
  iota just below its interior minimum, that solves the fractional Laplace equation on the unit ball,
  is nonnegative at every sampled point there, yet has interior infimum
  zero while staying above a fixed positive level on the outer half of
  the ball - the classical Harnack inequality cannot survive for
  solutions that are only nonnegative locally;

* a logistic resource plan: for any prescribed population profile u and
  consumption coefficient mu, a harvesting schedule sigma_eps close to a
  requested sigma makes u an exact steady state of the nonlocal logistic
  balance, with the plan never exceeding the available stock.

The witnesses carry three kinds of numbers.  Proved: the report's
block-stage certificate and max_residual.  Exact by construction: the
logistic feasibility_margin and residual_reaction, both zero.  Sampled:
the Harnack sup_inner, inf_outer, sup_outer_complement and nonneg_margin
over 4096 interior points, and the logistic sigma_error and mu_norm, 1.05
times sampled maxima.  The Harnack iota and inf_inner are evaluated at the
Newton minimiser of the strictly convex approximant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .approximate import ApproxReport, Target, approximate, target_from_spec
from .blocks import SHCombo, combo_derivative, combo_eval
from .errors import ConfigError
from .fraclap import mean_value_ball, mean_value_sphere

_HARNACK_SAMPLES = 4096  # fresh interior points the witness is checked on
_NEWTON_STEPS = 32  # from an error below 1/7, (2/7)^32 / 7 < 1e-18


@dataclass(frozen=True)
class HarnackWitness:
    """Data for the failure of the global Harnack inequality.

    The witness function is u - iota: the combination u shifted down by the
    constant iota, which the operator annihilates.
    """

    u: SHCombo
    s: float
    epsilon: float
    iota: float
    argmin: float
    inf_inner: float
    sup_inner: float
    inf_outer: float
    sup_outer_complement: float
    nonneg_margin: float
    value_origin: float
    boundary_level: float
    negative_site: tuple[float, float] | None
    report: ApproxReport


def _negative_site(combo: SHCombo, iota: float) -> tuple[float, float] | None:
    """Search the kink band for a point where combo - iota goes negative.

    The combination agrees with x^2 up to 1/16 on the ball, so if it were
    nonnegative on the whole line the global Harnack inequality would
    apply and the interior contrast found here would be impossible; the
    negativity lives where the blocks die, far outside the ball.
    """
    kinks = sorted(combo.kinks)  # ascending, all negative
    candidates = [kinks[0] - 1.0, 2.0 * kinks[0]]
    candidates += [left + frac * (right - left)
                   for left, right in zip(kinks[:-1], kinks[1:]) for frac in (0.5, 0.9, 0.99)]
    # just inside the innermost kink
    candidates += [kinks[-1] * (1.0 + frac) for frac in (1e-3, 1e-2, 0.1)]
    xs = np.array(candidates)
    vals = combo_eval(combo, xs) - iota
    i = int(np.argmin(vals))
    return (float(xs[i]), float(vals[i])) if vals[i] < 0 else None


def harnack_counterexample(s: float, eps: float = 1.0 / 16.0) -> HarnackWitness:
    """Nonnegative solution on the unit ball with interior infimum zero.

    Approximates x^2 within eps in C^2 on (-1, 1), then subtracts the
    interior minimum iota, shifted down by 1e-12 so nonnegativity survives
    float rounding.  As |v'' - 2| <= eps < 1/4, v is strictly convex with
    its minimiser within eps / (2 - eps) < 1/7 of 0; each step of Newton's
    method on v' from 0 multiplies the error by at most 2 eps / (2 - eps)
    < 2/7, and the loop stops at a zero step.  The witness records the
    contrast: infimum ~ 0 on the inner half-ball against a level >= 1/4 -
    2*eps on the outer part.
    """
    if not (0 < eps < 0.25):
        raise ConfigError(f"contrast requires 0 < eps < 1/4, got {eps}")
    target = target_from_spec("x2")
    combo, report = approximate(target, eps, s)

    v = lambda z: combo_eval(combo, z)
    argmin = 0.0
    for _ in range(_NEWTON_STEPS):
        step = combo_derivative(combo, argmin, 1) / combo_derivative(combo, argmin, 2)
        if step == 0.0:
            break
        argmin -= step
    vmin = v(argmin)
    iota = vmin - 1e-12

    fresh = np.linspace(-1.0, 1.0, _HARNACK_SAMPLES + 2)[1:-1]
    uvals = combo_eval(combo, fresh) - iota
    inner = np.abs(fresh) <= 0.5
    outer = ~inner
    return HarnackWitness(
        u=combo, s=s, epsilon=eps, iota=iota, argmin=argmin,
        inf_inner=vmin - iota,
        sup_inner=float(np.max(uvals[inner])),
        inf_outer=float(np.min(uvals[outer])),
        sup_outer_complement=float(np.max(uvals[outer])),
        nonneg_margin=float(np.min(uvals)),
        value_origin=v(0.0),
        boundary_level=min(v(0.5), v(-0.5)),
        negative_site=_negative_site(combo, iota),
        report=report)


# ---------------------------------------------------------------------------
# logistic resource plan


@dataclass(frozen=True)
class LogisticWitness:
    """A harvesting schedule under which the profile is an exact steady state."""

    u: SHCombo
    s: float
    epsilon: float
    epsilon_inner: float
    mu_norm: float
    sigma_eps: Callable[[np.ndarray], np.ndarray]
    sigma_error: float
    feasibility_margin: float
    residual_equation: float
    residual_reaction: float
    report: ApproxReport


def logistic_resource_plan(sigma: Target, mu: Target, eps: float,
                           s: float) -> LogisticWitness:
    """Plan sigma_eps = mu * u with u solving the fractional equation.

    u approximates sigma/mu within eps' = eps / (4 (1 + |mu|_C2)); the
    product rule then keeps |sigma - sigma_eps|_C2 below eps.  Both sides
    of the logistic balance (-Delta)^s u = (sigma_eps - mu u) u vanish:
    the left by construction of u, the right identically.  So the stock
    balance mu u - sigma_eps and the reaction are reported as the exact
    zeros they are; sigma_error and mu_norm are 1.05 times maxima sampled
    on 4097 points.
    """
    if eps <= 0 or not np.isfinite(eps):
        raise ConfigError(f"tolerance must be positive and finite, got {eps}")
    grid = np.linspace(-1.0, 1.0, 4097)
    mu_vals = [np.asarray(mu.derivative(m)(grid), dtype=float) for m in range(3)]
    # a zero can hide between samples at depth |mu'| h / 2, so the floor
    # must scale with the slope, not sit at a fixed epsilon
    floor = max(1e-6, 1e-3 * float(np.max(np.abs(mu_vals[1]))))
    if float(np.min(np.abs(mu_vals[0]))) < floor:
        raise ConfigError(
            f"consumption coefficient must stay away from zero on the ball "
            f"(min sampled |mu| below {floor:.3e})")
    mu_norm = 1.05 * max(float(np.max(np.abs(v))) for v in mu_vals)

    def q(z):
        return np.asarray(sigma.f(z), dtype=float) / np.asarray(mu.f(z), dtype=float)

    def q1(z):
        sg, m = np.asarray(sigma.f(z), float), np.asarray(mu.f(z), float)
        sg1, m1 = np.asarray(sigma.f1(z), float), np.asarray(mu.f1(z), float)
        return sg1 / m - sg * m1 / m**2

    def q2(z):
        sg, m = np.asarray(sigma.f(z), float), np.asarray(mu.f(z), float)
        sg1, m1 = np.asarray(sigma.f1(z), float), np.asarray(mu.f1(z), float)
        sg2, m2 = np.asarray(sigma.f2(z), float), np.asarray(mu.f2(z), float)
        return sg2 / m - 2 * sg1 * m1 / m**2 - sg * m2 / m**2 + 2 * sg * m1**2 / m**3

    quotient = Target(f"({sigma.name})/({mu.name})", q, q1, q2)
    eps_inner = eps / (4.0 * (1.0 + mu_norm))
    combo, report = approximate(quotient, eps_inner, s)

    def sigma_eps(z):
        return np.asarray(mu.f(z), dtype=float) * combo_eval(combo, z)

    u0 = combo_eval(combo, grid)
    u1 = combo_derivative(combo, grid, 1)
    u2 = combo_derivative(combo, grid, 2)
    diff0 = np.asarray(sigma.f(grid), float) - mu_vals[0] * u0
    diff1 = np.asarray(sigma.f1(grid), float) - mu_vals[1] * u0 - mu_vals[0] * u1
    diff2 = (np.asarray(sigma.f2(grid), float) - mu_vals[2] * u0
             - 2.0 * mu_vals[1] * u1 - mu_vals[0] * u2)
    sigma_error = 1.05 * max(float(np.max(np.abs(d))) for d in (diff0, diff1, diff2))

    return LogisticWitness(
        u=combo, s=s, epsilon=eps, epsilon_inner=eps_inner, mu_norm=mu_norm,
        sigma_eps=sigma_eps, sigma_error=sigma_error,
        feasibility_margin=0.0, residual_equation=report.max_residual,
        residual_reaction=0.0, report=report)


# ---------------------------------------------------------------------------
# mean value convergence table


def mean_value_table(target: Target, x: float,
                     rhos: tuple[float, ...] = (1e-1, 1e-2, 1e-3)) -> dict:
    """Ball and sphere mean value deficits against -u''(x) with observed orders.

    A radius whose deficits float64 rounding may swamp is refused with a
    ConfigError.  With e = 2^-53, each sampled value v is taken within 2e |v|
    of u at its float point, and that point within e (|x| + 2 rho) of the
    exact one, which moves u by about e (|x| + 2 rho) D / rho, D = max(|u(x +
    rho) - u(x)|, |u(x) - u(x - rho)|) the steeper secant of the sphere's
    samples (an estimate: u is not sampled between them).  By the same
    estimate the ball's values lie within m = max |u(x), u(x +- rho)| + D in
    magnitude, so every value is off by at most e M, M = 2m + (2 + |x| /
    rho) D.  The sphere's 2 u(x) - u(x + rho) - u(x - rho) then carries 4 e M
    from its values and 7 e m from its two subtractions, and the square and
    the division 8 e m more: under 12 e M / rho^2.  The ball's mean, half
    the sum of 64 products of positive weights summing to 2 (each within e)
    with the values, carries e M from its values and 66 e m from the
    weights, the products and the sum; with u(x), the subtraction and 6 /
    rho^2 (three more roundings of at most 12 m / rho^2) that is under 234
    e M / rho^2.  The bound 2^-45 M / rho^2 covers both; a radius is refused
    where it reaches 1 + |reference|, the size of the deficit it would
    swamp.
    """
    if len(rhos) < 2:
        raise ConfigError("need at least two radii for a convergence table")
    repeated = next((rho for i, rho in enumerate(rhos) if rho in rhos[:i]), None)
    if repeated is not None:
        raise ConfigError(f"radius {repeated} is given twice; the radii must be distinct")
    ref = -float(np.asarray(target.f2(np.array([x])))[0])
    rows = []
    for rho in rhos:
        ball = mean_value_ball(target.f, x, rho)
        sphere = mean_value_sphere(target.f, x, rho)
        v0, vp, vm = (float(v) for v in target.f(x + np.array([0.0, rho, -rho])))
        d = max(abs(vp - v0), abs(v0 - vm))
        m = max(abs(v0), abs(vp), abs(vm)) + d
        bound = 2.0**-45 * (2 * m + (2 + abs(x) / rho) * d) / rho**2
        if not bound < 1 + abs(ref):
            raise ConfigError(f"radius {rho} is too small for float64: the deficits' rounding "
                              f"bound {bound:.3g} reaches 1 + |reference| = {1 + abs(ref):.3g}")
        rows.append({"rho": rho, "ball": ball, "sphere": sphere,
                     "ball_error": abs(ball - ref), "sphere_error": abs(sphere - ref)})
    orders = {"ball": [], "sphere": []}
    for first, second in zip(rows[:-1], rows[1:]):
        ratio = math.log(first["rho"] / second["rho"])
        for kind in ("ball", "sphere"):
            e1, e2 = first[f"{kind}_error"], second[f"{kind}_error"]
            if e2 > 0 and e1 > 0:
                orders[kind].append(math.log(e1 / e2) / ratio)
            else:
                orders[kind].append(float("inf"))
    return {"x": x, "reference": ref, "rows": rows, "orders": orders}
