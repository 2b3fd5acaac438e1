"""Demonstrations built on the approximation pipeline.

Two headline constructions:

* a bounded function, equal to an approximant of x^2 minus its interior
  minimum, that solves the fractional Laplace equation on the unit ball,
  is nonnegative there, yet has interior infimum zero while staying above
  a fixed positive level on the outer half of the ball - the classical
  Harnack inequality cannot survive for solutions that are only
  nonnegative locally;

* a logistic resource plan: for any prescribed population profile u and
  consumption coefficient mu, a harvesting schedule sigma_eps close to a
  requested sigma makes u an exact steady state of the nonlocal logistic
  balance, with the plan never exceeding the available stock.

Both witnesses carry certified numbers, not just narratives.
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_HARNACK_SAMPLES = 4096  # fresh interior points the witness is checked on


@dataclass(frozen=True)
class OffsetCombo:
    """A block combination shifted by a constant: x -> combo(x) - offset.

    Constants are annihilated by the operator, so the shift preserves the
    equation on the smooth region while adjusting the function's range.
    """

    combo: SHCombo
    offset: float

    def __call__(self, x):
        return combo_eval(self.combo, x) - self.offset

    def derivative(self, x, order: int):
        out = combo_derivative(self.combo, x, order)
        return out - self.offset if order == 0 else out


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


@dataclass(frozen=True)
class HarnackWitness:
    """Certified data for the failure of the global Harnack inequality."""

    u: OffsetCombo
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
    for left, right in zip(kinks[:-1], kinks[1:]):
        width = right - left
        for frac in (0.5, 0.9, 0.99):
            candidates.append(left + frac * width)
    # just inside the innermost kink
    innermost = kinks[-1]
    for frac in (1e-3, 1e-2, 0.1):
        candidates.append(innermost * (1.0 + frac))
    best = None
    for x in candidates:
        try:
            val = float(combo_eval(combo, float(x))) - iota
        except (OverflowError, ValueError):
            continue
        if val < 0 and (best is None or val < best[1]):
            best = (float(x), val)
    return best


def harnack_counterexample(s: float, eps: float = 1.0 / 16.0) -> HarnackWitness:
    """Nonnegative solution on the unit ball with interior infimum zero.

    Approximates x^2 within eps in C^2 on (-1, 1), then subtracts the
    interior minimum iota (found by grid bracketing plus golden-section
    refinement, shifted down by 1e-12 so nonnegativity survives float
    rounding).  The witness records the contrast: infimum ~ 0 on the
    inner half-ball against a level >= 1/4 - 2*eps on the outer part.
    """
    if not (0 < eps < 0.25):
        raise ConfigError(f"contrast requires 0 < eps < 1/4, got {eps}")
    target = target_from_spec("x2")
    combo, report = approximate(target, eps, s)

    v = lambda z: float(combo_eval(combo, float(z)))
    grid = np.linspace(-0.5, 0.5, 2001)
    vals = combo_eval(combo, grid)
    i0 = int(np.argmin(vals))
    lo = grid[max(i0 - 1, 0)]
    hi = grid[min(i0 + 1, grid.size - 1)]
    argmin, vmin = _golden_min(v, float(lo), float(hi))
    vmin = min(vmin, float(np.min(vals)))
    iota = vmin - 1e-12

    u = OffsetCombo(combo, iota)
    fresh = np.linspace(-1.0, 1.0, _HARNACK_SAMPLES + 2)[1:-1]
    uvals = combo_eval(combo, fresh) - iota
    inner = np.abs(fresh) <= 0.5
    outer = ~inner
    witness = HarnackWitness(
        u=u, s=s, epsilon=eps, iota=iota, argmin=argmin,
        inf_inner=v(argmin) - iota,
        sup_inner=float(np.max(uvals[inner])),
        inf_outer=float(np.min(uvals[outer])),
        sup_outer_complement=float(np.max(uvals[outer])),
        nonneg_margin=float(np.min(uvals)),
        value_origin=v(0.0),
        boundary_level=min(v(0.5), v(-0.5)),
        negative_site=_negative_site(combo, iota),
        report=report)
    return witness


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
    the left by construction of u, the right identically.
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

    # stock balance mu*u - sigma_eps and reaction (sigma_eps - mu u) u use the
    # identical float product, so both vanish exactly
    plan = mu_vals[0] * u0
    feasibility = float(np.min(plan - sigma_eps(grid)))
    reaction = float(np.max(np.abs((sigma_eps(grid) - plan) * u0)))

    return LogisticWitness(
        u=combo, s=s, epsilon=eps, epsilon_inner=eps_inner, mu_norm=mu_norm,
        sigma_eps=sigma_eps, sigma_error=sigma_error,
        feasibility_margin=feasibility, residual_equation=report.max_residual,
        residual_reaction=reaction, report=report)


# ---------------------------------------------------------------------------
# mean value convergence table


def mean_value_table(target: Target, x: float,
                     rhos: tuple[float, ...] = (1e-1, 1e-2, 1e-3)) -> dict:
    """Ball and sphere mean value deficits against -u''(x) with observed orders."""
    if len(rhos) < 2:
        raise ConfigError("need at least two radii for a convergence table")
    ref = -float(np.asarray(target.f2(np.array([x])))[0])
    rows = []
    for rho in rhos:
        ball = mean_value_ball(target.f, x, rho)
        sphere = mean_value_sphere(target.f, x, rho)
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
