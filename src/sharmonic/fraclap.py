"""Float64 quadrature for the 1D integral fractional Laplacian.

The operator is evaluated in the zero-centered second-difference form

    (-Delta)^s u(x) = int_0^inf [2u(x) - u(x+y) - u(x-y)] / y^(1+2s) dy

without any normalizing constant.  Three zones are treated separately:

* near field [0, delta]: substitution w = y^(2-2s) absorbs the kernel
  singularity; an equally spaced midpoint rule in w resolves the rest.
  Below a cutoff the second difference is replaced by its Taylor model
  because direct evaluation there is pure rounding noise.
* mid field [delta, R]: composite Gauss-Legendre panels, log-spaced, with
  extra geometrically graded panels around every kink of the integrand.
* far field beyond R: a two-point power-law model fitted per side at 2R
  and 4R, validated at R and 8R, integrated in closed form and added as
  a signed correction; the recorded tail half-width bounds what any
  function of the declared growth could still contribute.

A principal-value sibling evaluates the equivalent two-sided form with an
excision limit (dyadic shrinking plus Richardson extrapolation) and a
different panel layout, giving a genuinely independent cross-check.

Layouts that do not depend on x are built once per (s, QuadConfig, rule)
and cached: the near field's abscissae, the excision rings and, for an
operand without kinks, the mid field's nodes, weights, kernel and offsets;
a kinked operand's mid field is built per call, since its split points
depend on x.  A call then does only per-point work.  Each route calls the
operand twice per point, at x and then at all other nodes.  A callable is
called on the whole array until one call raises or gives a value of
another shape; from then on, for the rest of that evaluation, it is called
point by point, so a scalar-only callable costs one refused call more.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blocks import SHCombo, combo_derivative
from .errors import ConfigError, DomainError, EvaluationError


@functools.cache
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class FracParams:
    """Order of the operator; s must lie strictly inside (0, 1)."""

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0) or not np.isfinite(self.s):
            raise DomainError(f"operator order must lie in (0, 1), got s={self.s}")


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature layout.

    delta: end of the near field; outer_radius: start of the modeled tail;
    near_points: midpoint nodes in the graded near rule; mid_points: total
    Gauss nodes across the log-spaced panels; tail_growth: declared growth
    exponent gamma of the integrand's function (|u(y)| <~ |y|^gamma for
    large |y|), defaulting to s, and required to stay below 2s.
    """

    delta: float = 1e-3
    outer_radius: float = 1e4
    near_points: int = 64
    mid_points: int = 2048
    tail_growth: float | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < self.outer_radius):
            raise ConfigError(
                f"need 0 < delta < outer_radius, got delta={self.delta}, "
                f"outer_radius={self.outer_radius}")
        if not np.isfinite(self.delta) or not np.isfinite(self.outer_radius):
            raise ConfigError("quadrature radii must be finite")
        if self.near_points < 8:
            raise ConfigError(f"near_points must be at least 8, got {self.near_points}")
        if self.mid_points < 16:
            raise ConfigError(f"mid_points must be at least 16, got {self.mid_points}")
        if self.tail_growth is not None and not np.isfinite(self.tail_growth):
            raise ConfigError(f"tail_growth must be finite, got {self.tail_growth}")

    def growth(self, s: float) -> float:
        gamma = s if self.tail_growth is None else self.tail_growth
        if gamma >= 2.0 * s:
            raise ConfigError(
                f"declared growth gamma={gamma} must stay below 2s={2 * s} for the "
                f"operator integral to converge")
        return gamma


_DEFAULT_CONFIG = QuadConfig()  # frozen, so one instance serves every call
# the direct route's finite-difference offsets for d2 and d4 per unit of
# scale = 1 + |x|; a factor 0, +/-1 or +/-2 is exact in either order
_FD_STEPS = np.outer([6e-4, 6e-3], [-2.0, -1.0, 0.0, 1.0, 2.0]).ravel()


@dataclass(frozen=True)
class FracLapDetail:
    """Value plus decomposition and tail certificate of one evaluation."""

    value: float
    tail_halfwidth: float
    near: float
    mid: float
    tail: float
    delta_used: float
    gamma_fit: tuple[float, float]


# ---------------------------------------------------------------------------
# input normalization


def _as_function(u, operator: bool = False
                 ) -> tuple[Callable[[np.ndarray], np.ndarray], tuple[float, ...], object]:
    """Normalize the operand to (vectorized callable, kinks, combo-or-None).

    The operator integral (operator=True) samples u far past [-1, 1]."""
    if isinstance(u, SHCombo):
        if operator and u.has_mp_coefficients:
            raise ConfigError(
                "a pipeline combination (extended-precision coefficients) follows its "
                "target far past [-1, 1], out to about t/r, so the quadrature's far "
                "field cannot treat it; bound its residual with exact.combo_residual")
        return (lambda z: combo_derivative(u, np.asarray(z, dtype=float), 0),
                u.kinks, u)
    if callable(u):
        vec = None  # u point by point, from the first call that fails on the array

        def f(z):
            nonlocal vec
            z = np.asarray(z, dtype=float)
            if vec is None:
                try:
                    out = np.asarray(u(z), dtype=float)
                    if out.shape == z.shape:
                        return out
                except Exception:
                    pass
                vec = np.vectorize(lambda v: float(u(v)), otypes=[float])
            return vec(z)

        return f, (), None
    raise DomainError(f"cannot evaluate operand of type {type(u)}")


def _check(args: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vals, or EvaluationError naming the first argument with a non-finite value."""
    finite = np.isfinite(vals)
    if not finite.all():
        node = float(args[np.argmin(finite)])
        raise EvaluationError(f"non-finite function value at argument {node}", node=node)
    return vals


def _checked(f, x: float, offsets: np.ndarray) -> np.ndarray:
    return _check(x + offsets, np.asarray(f(x + offsets), dtype=float))


def _sample_zones(f, x: float, ux: float, near: np.ndarray, mid_layout):
    """Near-field values, mid-field sum and the tail's (arguments, values) per
    side, from one call of the operand at x + near and x + the mid layout's
    far offsets.  Non-finite values raise in the order the zones are summed;
    _tail_model checks the tail's minus side last."""
    nodes, wts, kern, far = mid_layout
    args = x + np.concatenate([near, far])
    vals = np.asarray(f(args), dtype=float)
    _check(args[:-4], vals[:-4])
    up, um = vals[near.size:near.size + nodes.size], vals[near.size + nodes.size:-8]
    mid = float(np.sum(wts * (2.0 * ux - up - um) * kern))
    return vals[:near.size], mid, ((args[-8:-4], vals[-8:-4]), (args[-4:], vals[-4:]))


@functools.lru_cache(maxsize=64)
def _near_layout(s: float, delta: float, n: int) -> tuple[np.ndarray, float]:
    """Abscissae y of the near field's midpoint rule in w = y^(2-2s), and its weight."""
    beta = 2.0 - 2.0 * s
    W = delta**beta
    w = (np.arange(n) + 0.5) * (W / n)
    return w ** (1.0 / beta), W / (n * beta)


@functools.lru_cache(maxsize=64)
def _excision_rings(s: float, delta: float) -> tuple[np.ndarray, ...]:
    """The PV route's rings [rho_(k+1), rho_k], rho_k = delta / 2^k, k < 6: offsets
    +y, -y ring by ring, weights and kernel per ring, and the Richardson matrix."""
    K = 6
    rhos = delta * 2.0 ** (-np.arange(K + 1))
    nodes, wts = (a.reshape(K, -1)[::-1].copy() for a in _panel_nodes(rhos[::-1], _gauss(12)))
    b1, b2 = 2.0 - 2.0 * s, 4.0 - 2.0 * s
    A = np.array([[1.0, rhos[k] ** b1, rhos[k] ** b2] for k in (K, K - 1, K - 2)])
    return np.stack((nodes, -nodes), 1).ravel(), wts, nodes ** (-1.0 - 2.0 * s), A


def _split_points(x: float, kinks: Sequence[float], lo: float, hi: float,
                  depth: int, offset: int) -> np.ndarray:
    """Each kink's distance y* = |x - K| inside (lo, hi), and y* -/+ y* 2^-(L+offset),
    L = 1..depth, where they stay inside."""
    if not kinks:
        return np.empty(0)
    ystar = np.abs(x - np.asarray(kinks, dtype=float))
    ystar = ystar[(lo < ystar) & (ystar < hi)]
    g = np.ldexp(ystar[:, None], -np.arange(1 + offset, depth + 1 + offset)).ravel()
    ys = np.repeat(ystar, depth)
    return np.concatenate([ystar, (ys - g)[ys - g > lo], (ys + g)[ys + g < hi]])


def _panel_nodes(bounds: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    gx, gw = rule
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    nodes = (mids[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return nodes, wts


def _mid_layout(s: float, lo: float, hi: float, n_points: int, order: int,
                split: np.ndarray = ()) -> tuple[np.ndarray, ...]:
    """Nodes, weights and kernel y^(-1-2s) of Gauss panels of the given order
    on [lo, hi]: log-spaced, with the split points as extra bounds; and the
    far offsets +/- nodes, +/- hi (1, 2, 4, 8), hi being the tail's radius R.
    The log-spaced ends are pinned to lo and hi: lo (hi/lo)^1 may round
    past hi, and the filter would then drop the last panel."""
    panels = max(n_points // order, 4)
    grid = lo * (hi / lo) ** (np.arange(panels + 1) / panels)
    grid[0], grid[-1] = lo, hi
    b = np.concatenate([grid, split])
    b = np.sort(b[(lo <= b) & (b <= hi)])
    nodes, wts = _panel_nodes(b[np.append(True, b[1:] != b[:-1])], _gauss(order))
    tail = hi * np.array([1.0, 2.0, 4.0, 8.0])
    return nodes, wts, nodes ** (-1.0 - 2.0 * s), np.concatenate([nodes, -nodes, tail, -tail])


_kink_free_mid_layout = functools.lru_cache(maxsize=16)(_mid_layout)


def _tail_model(sides, ux: float, s: float, R: float,
                gamma: float) -> tuple[float, float, tuple[float, float]]:
    """Signed tail correction, certified half-width, fitted growth per side,
    from the (arguments, values) at x +/- (R, 2R, 4R, 8R) of each side."""
    value = 2.0 * ux * R ** (-2.0 * s) / (2.0 * s)
    halfwidth = 0.0
    ghats = []
    for side in sides:
        vR, v2, v4, v8 = _check(*side).tolist()
        tol = 1e-14 * (abs(ux) + 1.0)
        c_est = 2.0 * max(abs(vR) / (1 + R) ** gamma,
                          abs(v2) / (1 + 2 * R) ** gamma,
                          abs(v4) / (1 + 4 * R) ** gamma)
        apriori = c_est * 2.0**gamma * R ** (gamma - 2.0 * s) / (2.0 * s - gamma)
        if abs(v2) > tol and abs(v4) > tol and v2 * v4 > 0:
            ghat = float(np.log2(abs(v4 / v2)))
            rate_floor = 2.0 ** (2.0 * s - 1e-3)
            chain = vR * v2 > 0 and abs(vR) > tol
            # sustained super-threshold growth at a size far beyond the
            # local scale diverges regardless of the model form (catches
            # exponentials, whose samples fit no power law)
            if (chain and abs(v4) > 1e6 * (abs(ux) + 1.0)
                    and min(abs(v2) / abs(vR), abs(v4) / abs(v2)) >= rate_floor):
                raise ConfigError(
                    f"samples at radii {R:g}..{4 * R:g} grow by >= 2^(2s) per "
                    f"octave; the operator integral does not converge for "
                    f"this function")
            # the two-point exponent is a measurement only when the model
            # also reproduces the samples at R and 8R; oscillatory functions
            # fail this and fall back to the a priori bound instead of being
            # mistaken for growing ones (three samples of sin can happen to
            # fit a power law, four over three octaves do not)
            validates = (chain and v4 * v8 > 0
                         and abs(np.log2(abs(v2 / vR)) - ghat) <= 0.2
                         and abs(np.log2(abs(v8 / v4)) - ghat) <= 0.2)
            if validates and ghat >= 2.0 * s - 1e-3:
                raise ConfigError(
                    f"fitted growth {ghat:.4f} at radius {R} reaches 2s={2 * s}; "
                    f"the operator integral does not converge at this truncation")
            if validates:
                C = v2 / (2.0 * R) ** ghat
                corr = C * R ** (ghat - 2.0 * s) / (2.0 * s - ghat)
                value -= corr
                halfwidth += apriori + abs(corr)
            else:
                ghat = -np.inf
                halfwidth += apriori
        else:
            # decayed or sign-changing side: no correction, bound only
            ghat = -np.inf
            halfwidth += apriori
        ghats.append(ghat)
    return value, halfwidth, (ghats[0], ghats[1])


def _effective_delta(delta: float, x: float, kinks: Sequence[float]) -> float:
    gaps = [abs(x - K) for K in kinks]
    if 0.0 in gaps:
        raise DomainError(f"evaluation point {x} sits exactly on a kink")
    return min([delta] + [0.5 * gap for gap in gaps])


# ---------------------------------------------------------------------------
# public operators


def _operator(u, x: float, params: FracParams, config: QuadConfig | None,
              pv: bool) -> FracLapDetail:
    """Both routes; they differ in the near field and the mid field's rule."""
    config = config or _DEFAULT_CONFIG
    s, gamma = params.s, config.growth(params.s)
    f, kinks, combo = _as_function(u, operator=True)
    x = float(x)
    scale = 1.0 + abs(x)
    ux = float(_checked(f, x, np.array([0.0]))[0])
    delta = _effective_delta(config.delta, x, kinks)
    if pv:
        offsets, ring_wts, ring_kern, A = _excision_rings(s, delta)
    else:
        y, weight = _near_layout(s, delta, config.near_points)
        small = y < min(1e-4 * scale, 0.25 * delta)
        any_small = small.any()
        yb = y[~small]
        fd = scale * _FD_STEPS if combo is None and any_small else np.empty(0)
        offsets = np.concatenate([fd, yb, -yb])
    # the mid field's layout depends on x only through the kinks' split points
    R, order = config.outer_radius, 12 if pv else 8
    split = _split_points(x, kinks, delta, R, *((26, 7) if pv else (30, 6)))
    layout = (_mid_layout(s, delta, R, config.mid_points, order, split) if split.size
              else _kink_free_mid_layout(s, delta, R, config.mid_points, order))
    near_v, mid, sides = _sample_zones(f, x, ux, offsets, layout)
    if pv:
        # S_k = integral over [rho_k, delta], extrapolated to rho -> 0
        v = near_v.reshape(-1, 2, 12)
        pieces = ring_wts * (2.0 * ux - v[:, 0] - v[:, 1]) * ring_kern
        S = list(itertools.accumulate(pieces.sum(axis=1).tolist(), initial=0.0))
        near = float(np.linalg.solve(A, np.array(S[-1:-4:-1]))[0])
    else:
        phi = np.empty(y.size)
        if any_small:
            if combo is not None:
                d2, d4 = (float(combo_derivative(combo, x, k)) for k in (2, 4))
            else:
                h2, h4, p = 6e-4 * scale, 6e-3 * scale, near_v[:10].tolist()
                d2 = (-p[0] + 16 * p[1] - 30 * p[2] + 16 * p[3] - p[4]) / (12 * h2 * h2)
                d4 = (p[5] - 4 * p[6] + 6 * p[7] - 4 * p[8] + p[9]) / h4**4
            ys = y[small]
            phi[small] = -d2 - d4 * ys * ys / 12.0
        up, um = near_v[fd.size:fd.size + yb.size], near_v[fd.size + yb.size:]
        phi[~small] = (2.0 * ux - up - um) / (yb * yb)
        near = weight * float(phi.sum())
    tail, halfwidth, ghats = _tail_model(sides, ux, s, R, gamma)
    return FracLapDetail(near + mid + tail, halfwidth, near, mid, tail, delta, ghats)


def frac_laplacian_detailed(u, x: float, params: FracParams,
                            config: QuadConfig | None = None) -> FracLapDetail:
    """Operator value with zone decomposition and tail certificate."""
    return _operator(u, x, params, config, pv=False)


def frac_laplacian(u, x: float, params: FracParams,
                   config: QuadConfig | None = None) -> float:
    """Zero-centered second-difference quadrature of the operator at x."""
    return frac_laplacian_detailed(u, x, params, config).value


def frac_laplacian_pv(u, x: float, params: FracParams,
                      config: QuadConfig | None = None) -> float:
    """Principal-value form: two-sided excision limit.

    Same operator, different route: symmetric pairs are integrated on a
    dyadically refined family of excision radii and the limit is taken by
    Richardson extrapolation in the known exponents 2-2s and 4-2s; the mid
    field uses a different panel layout and Gauss order than the sibling.
    """
    return _operator(u, x, params, config, pv=True).value


def _check_radius(rho: float) -> None:
    if not (rho > 0) or not np.isfinite(rho):
        raise DomainError(f"radius must be positive and finite, got {rho}")
    if rho**2 == 0.0:
        raise DomainError(f"radius {rho} is too small: its square underflows to 0 in float64")


def mean_value_ball(u, x: float, rho: float) -> float:
    """Normalized solid-ball mean value deficit 6 (u(x) - avg) / rho^2.

    Converges to -u''(x) as rho -> 0 at rate O(rho^2); the factor 6 is
    2(n+2) in dimension n=1.
    """
    _check_radius(rho)
    f, _, _ = _as_function(u)
    x = float(x)
    ux = float(_checked(f, x, np.array([0.0]))[0])
    gx, gw = _gauss(64)
    vals = _checked(f, x, rho * gx)
    avg = 0.5 * float(np.sum(gw * vals))
    return 6.0 * (ux - avg) / rho**2


def mean_value_sphere(u, x: float, rho: float) -> float:
    """Normalized sphere mean value deficit [2u(x) - u(x+rho) - u(x-rho)] / rho^2.

    Converges to -u''(x) as rho -> 0 at rate O(rho^2); exact for quadratics.
    The factor is 2n in dimension n=1.
    """
    _check_radius(rho)
    f, _, _ = _as_function(u)
    x = float(x)
    vals = _checked(f, x, np.array([0.0, rho, -rho]))
    return (2.0 * vals[0] - vals[1] - vals[2]) / rho**2
