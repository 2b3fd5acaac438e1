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
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path
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

    def growth(self, s: float) -> float:
        gamma = s if self.tail_growth is None else self.tail_growth
        if gamma >= 2.0 * s:
            raise ConfigError(
                f"declared growth gamma={gamma} must stay below 2s={2 * s} for the "
                f"operator integral to converge")
        return gamma


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


@dataclass(frozen=True)
class GridFunction:
    """Uniformly sampled function on [a, b] with optional derivative columns."""

    a: float
    b: float
    values: np.ndarray
    deriv1: np.ndarray | None = None
    deriv2: np.ndarray | None = None

    def __post_init__(self):
        if not (self.a < self.b) or not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise DomainError(f"invalid grid interval [{self.a}, {self.b}]")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DomainError("grid needs at least two samples")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", values)
        for name in ("deriv1", "deriv2"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=float)
                if col.shape != values.shape or not np.all(np.isfinite(col)):
                    raise DomainError(f"{name} column must match the grid and be finite")
                object.__setattr__(self, name, col)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.size)

    def as_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Linear interpolant, clamped to the boundary values outside [a, b]."""
        xs = self.xs
        vals = self.values

        def f(z):
            return np.interp(np.asarray(z, dtype=float), xs, vals)

        return f

    def derivative_function(self, order: int) -> Callable[[np.ndarray], np.ndarray]:
        if order == 0:
            return self.as_function()
        xs = self.xs
        if order == 1:
            col = (self.deriv1 if self.deriv1 is not None
                   else np.gradient(self.values, xs, edge_order=2))
        elif order == 2:
            base = (self.deriv1 if self.deriv1 is not None
                    else np.gradient(self.values, xs, edge_order=2))
            col = (self.deriv2 if self.deriv2 is not None
                   else np.gradient(base, xs, edge_order=2))
        else:
            raise DomainError(f"grid derivatives available up to order 2, got {order}")

        def f(z):
            return np.interp(np.asarray(z, dtype=float), xs, col)

        return f

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="ascii")

    def to_csv_text(self) -> str:
        cols = ["x", "value"]
        arrays = [self.xs, self.values]
        if self.deriv1 is not None:
            cols.append("deriv1")
            arrays.append(self.deriv1)
            if self.deriv2 is not None:
                cols.append("deriv2")
                arrays.append(self.deriv2)
        out = io.StringIO()
        out.write(",".join(cols) + "\n")
        for row in zip(*arrays):
            out.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, path: str | Path) -> "GridFunction":
        return cls.from_csv_text(Path(path).read_text(encoding="ascii"))

    @classmethod
    def from_csv_text(cls, text: str) -> "GridFunction":
        reader = csv.reader(io.StringIO(text))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ConfigError("empty grid CSV") from None
        allowed = (["x", "value"], ["x", "value", "deriv1"],
                   ["x", "value", "deriv1", "deriv2"])
        if header not in allowed:
            raise ConfigError(f"unexpected grid CSV header {header}")
        rows = []
        for line in reader:
            if not line or (len(line) == 1 and not line[0].strip()):
                continue
            if len(line) != len(header):
                raise ConfigError(f"ragged grid CSV row {line}")
            try:
                rows.append([float(v) for v in line])
            except ValueError as exc:
                raise ConfigError(f"non-numeric grid CSV entry in {line}") from exc
        if len(rows) < 2:
            raise ConfigError("grid CSV needs at least two rows")
        data = np.array(rows)
        xs = data[:, 0]
        spaces = np.diff(xs)
        ref = (xs[-1] - xs[0]) / (xs.size - 1)
        if ref <= 0 or np.any(np.abs(spaces - ref) > 1e-8 * max(abs(ref), 1e-30)):
            raise ConfigError("grid CSV abscissae must be uniformly increasing")
        deriv1 = data[:, 2] if data.shape[1] >= 3 else None
        deriv2 = data[:, 3] if data.shape[1] >= 4 else None
        return cls(float(xs[0]), float(xs[-1]), data[:, 1], deriv1, deriv2)


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
    if isinstance(u, GridFunction):
        return u.as_function(), (), None
    if callable(u):
        probe = np.array([0.0, 0.5])
        try:
            out = np.asarray(u(probe), dtype=float)
            if out.shape == probe.shape:
                return (lambda z: np.asarray(u(np.asarray(z, dtype=float)), dtype=float),
                        (), None)
        except Exception:
            pass
        vec = np.vectorize(lambda z: float(u(z)), otypes=[float])
        return (lambda z: vec(np.asarray(z, dtype=float)), (), None)
    raise DomainError(f"cannot evaluate operand of type {type(u)}")


def _checked(f, base_x: float, offsets: np.ndarray) -> np.ndarray:
    vals = f(base_x + offsets) if np.ndim(offsets) else f(np.array([base_x + offsets]))
    vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = float(np.atleast_1d(base_x + offsets)[np.argmax(np.atleast_1d(bad))])
        raise EvaluationError(f"non-finite function value at argument {node}", node=node)
    return vals


def _second_difference(f, x: float, ys: np.ndarray, ux: float) -> np.ndarray:
    up = _checked(f, x, ys)
    um = _checked(f, x, -ys)
    return 2.0 * ux - up - um


# ---------------------------------------------------------------------------
# shared pieces


def _fd_derivatives(f, x: float, combo, scale: float) -> tuple[float, float]:
    """Second and fourth derivative at x: exact for block combinations,
    central finite differences otherwise."""
    if combo is not None:
        return (float(combo_derivative(combo, x, 2)), float(combo_derivative(combo, x, 4)))
    h2 = 6e-4 * scale
    p = _checked(f, x, np.array([-2 * h2, -h2, 0.0, h2, 2 * h2]))
    d2 = (-p[0] + 16 * p[1] - 30 * p[2] + 16 * p[3] - p[4]) / (12 * h2 * h2)
    h4 = 6e-3 * scale
    q = _checked(f, x, np.array([-2 * h4, -h4, 0.0, h4, 2 * h4]))
    d4 = (q[0] - 4 * q[1] + 6 * q[2] - 4 * q[3] + q[4]) / h4**4
    return d2, d4


def _near_field(f, x: float, ux: float, s: float, delta: float, n: int,
                combo, scale: float) -> float:
    beta = 2.0 - 2.0 * s
    W = delta**beta
    w = (np.arange(n) + 0.5) * (W / n)
    y = w ** (1.0 / beta)
    ycut = min(1e-4 * scale, 0.25 * delta)
    phi = np.empty(n)
    small = y < ycut
    if np.any(small):
        d2, d4 = _fd_derivatives(f, x, combo, scale)
        ys = y[small]
        phi[small] = -d2 - d4 * ys * ys / 12.0
    big = ~small
    if np.any(big):
        yb = y[big]
        phi[big] = _second_difference(f, x, yb, ux) / (yb * yb)
    return (W / (n * beta)) * float(phi.sum())


def _split_points(x: float, kinks: Sequence[float], lo: float, hi: float,
                  depth: int, offset: int) -> set[float]:
    pts: set[float] = set()
    for K in kinks:
        ystar = abs(x - K)
        if lo < ystar < hi:
            pts.add(ystar)
            for L in range(1, depth + 1):
                g = ystar * 2.0 ** (-L - offset)
                if ystar - g > lo:
                    pts.add(ystar - g)
                if ystar + g < hi:
                    pts.add(ystar + g)
    return pts


def _panel_nodes(bounds: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    gx, gw = rule
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    nodes = (mids[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return nodes, wts


def _mid_field(f, x: float, ux: float, s: float, lo: float, hi: float,
               n_points: int, kinks: Sequence[float], rule, depth: int,
               offset: int) -> float:
    panels = max(n_points // len(rule[0]), 4)
    bounds = set(lo * (hi / lo) ** (np.arange(panels + 1) / panels))
    bounds |= _split_points(x, kinks, lo, hi, depth, offset)
    b = np.array(sorted(p for p in bounds if lo <= p <= hi))
    nodes, wts = _panel_nodes(b, rule)
    d2 = _second_difference(f, x, nodes, ux)
    return float(np.sum(wts * d2 * nodes ** (-1.0 - 2.0 * s)))


def _tail_model(f, x: float, ux: float, s: float, R: float,
                gamma: float) -> tuple[float, float, tuple[float, float]]:
    """Signed tail correction, certified half-width, fitted growth per side."""
    value = 2.0 * ux * R ** (-2.0 * s) / (2.0 * s)
    halfwidth = 0.0
    ghats = []
    for sgn in (+1.0, -1.0):
        v = _checked(f, x, sgn * np.array([R, 2.0 * R, 4.0 * R, 8.0 * R]))
        vR, v2, v4, v8 = (float(vi) for vi in v)
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
    d = delta
    for K in kinks:
        gap = abs(x - K)
        if gap == 0.0:
            raise DomainError(f"evaluation point {x} sits exactly on a kink")
        d = min(d, 0.5 * gap)
    return d


# ---------------------------------------------------------------------------
# public operators


def frac_laplacian_detailed(u, x: float, params: FracParams,
                            config: QuadConfig | None = None) -> FracLapDetail:
    """Operator value with zone decomposition and tail certificate."""
    if config is None:
        config = QuadConfig()
    s = params.s
    gamma = config.growth(s)
    f, kinks, combo = _as_function(u, operator=True)
    x = float(x)
    scale = 1.0 + abs(x)
    ux = float(_checked(f, x, np.array([0.0]))[0])
    delta = _effective_delta(config.delta, x, kinks)
    near = _near_field(f, x, ux, s, delta, config.near_points, combo, scale)
    mid = _mid_field(f, x, ux, s, delta, config.outer_radius, config.mid_points,
                     kinks, _gauss(8), depth=30, offset=6)
    tail, halfwidth, ghats = _tail_model(f, x, ux, s, config.outer_radius, gamma)
    return FracLapDetail(value=near + mid + tail, tail_halfwidth=halfwidth,
                         near=near, mid=mid, tail=tail, delta_used=delta,
                         gamma_fit=ghats)


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
    if config is None:
        config = QuadConfig()
    s = params.s
    gamma = config.growth(s)
    f, kinks, _ = _as_function(u, operator=True)
    x = float(x)
    ux = float(_checked(f, x, np.array([0.0]))[0])
    delta = _effective_delta(config.delta, x, kinks)

    # excision sequence: S_k = integral over [rho_k, delta], rho_k = delta/2^k
    K = 6
    rhos = delta * 2.0 ** (-np.arange(K + 1))
    partial = [0.0]
    for k in range(K):
        bounds = np.array([rhos[k + 1], rhos[k]])
        nodes, wts = _panel_nodes(bounds, _gauss(12))
        d2 = _second_difference(f, x, nodes, ux)
        piece = float(np.sum(wts * d2 * nodes ** (-1.0 - 2.0 * s)))
        partial.append(partial[-1] + piece)
    S = np.array(partial)  # S[k] = int over [rho_k, delta]
    b1, b2 = 2.0 - 2.0 * s, 4.0 - 2.0 * s
    A = np.array([[1.0, rhos[K] ** b1, rhos[K] ** b2],
                  [1.0, rhos[K - 1] ** b1, rhos[K - 1] ** b2],
                  [1.0, rhos[K - 2] ** b1, rhos[K - 2] ** b2]])
    rhs = np.array([S[K], S[K - 1], S[K - 2]])
    near = float(np.linalg.solve(A, rhs)[0])

    mid = _mid_field(f, x, ux, s, delta, config.outer_radius, config.mid_points,
                     kinks, _gauss(12), depth=26, offset=7)
    tail, _, _ = _tail_model(f, x, ux, s, config.outer_radius, gamma)
    return near + mid + tail


def mean_value_ball(u, x: float, rho: float) -> float:
    """Normalized solid-ball mean value deficit 6 (u(x) - avg) / rho^2.

    Converges to -u''(x) as rho -> 0 at rate O(rho^2); the factor 6 is
    2(n+2) in dimension n=1.
    """
    if not (rho > 0) or not np.isfinite(rho):
        raise DomainError(f"radius must be positive and finite, got {rho}")
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
    if not (rho > 0) or not np.isfinite(rho):
        raise DomainError(f"radius must be positive and finite, got {rho}")
    f, _, _ = _as_function(u)
    x = float(x)
    vals = _checked(f, x, np.array([0.0, rho, -rho]))
    return (2.0 * vals[0] - vals[1] - vals[2]) / rho**2
