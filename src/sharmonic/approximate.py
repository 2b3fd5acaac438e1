"""Certified approximation of C^2 targets by block combinations.

Pipeline: fit a Chebyshev interpolant whose C^2 distance to the target is
certified against half the budget, convert it exactly to monomials, match
each monomial's derivatives at the origin with a combination of blocks,
then shrink the argument scale of every matched group until the group
stays within the remaining budget of its monomial in C^2 norm.  The sum
of the groups inherits both certificates, so the final function - a
finite combination of exactly equation-solving blocks - lies within the
requested C^2 distance of the target on the working interval.

All norms are certified by dense sampling with a fixed inflation factor;
every reported epsilon is the certified (inflated) value, never the
mathematical ideal.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import exact
from .blocks import (DerivSpec, SHCombo, TaylorSeries, assemble_scaled_group,
                     rescale_for_defect, solve_derivative_match)
from .errors import ApproximationError, ConfigError, DomainError
from .fraclap import GridFunction

_CERT_GRID = 4096
_DEFECT_GRID = 2048
_INFLATION = 1.05
_DEGREE_FLOOR = 3
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class Target:
    """C^2 target on the working interval: value and two derivatives."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]

    def derivative(self, order: int) -> Callable[[np.ndarray], np.ndarray]:
        return (self.f, self.f1, self.f2)[order]

    @classmethod
    def from_grid(cls, grid: GridFunction, name: str = "grid") -> "Target":
        """Interpolated target from uniform samples.

        When a first-derivative column is supplied it must agree with the
        divided differences of the value column to within 1e-3 relative.
        """
        if grid.deriv1 is not None:
            # edge_order=2 keeps the checker's own boundary error at h^2,
            # so an exact derivative column is never falsely rejected
            fd = np.gradient(grid.values, grid.xs, edge_order=2)
            tol = 1e-3 * (1.0 + float(np.max(np.abs(grid.deriv1))))
            worst = float(np.max(np.abs(grid.deriv1 - fd)))
            if worst > tol:
                raise ConfigError(
                    f"grid deriv1 column disagrees with divided differences "
                    f"of the values: max deviation {worst:.3e} > {tol:.3e}")
        return cls(name, grid.as_function(), grid.derivative_function(1),
                   grid.derivative_function(2))


def _const_target(c: float) -> Target:
    return Target(f"const:{c}",
                  lambda z: np.full_like(np.asarray(z, dtype=float), c),
                  lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                  lambda z: np.zeros_like(np.asarray(z, dtype=float)))


def target_from_spec(spec: str) -> Target:
    """Parse a target description: x2 | sin | exp | const:<c> | csv:<path>."""
    spec = spec.strip()
    if spec == "x2":
        return Target("x2", lambda z: np.asarray(z, dtype=float) ** 2,
                      lambda z: 2.0 * np.asarray(z, dtype=float),
                      lambda z: np.full_like(np.asarray(z, dtype=float), 2.0))
    if spec == "sin":
        return Target("sin", np.sin, np.cos, lambda z: -np.sin(np.asarray(z, dtype=float)))
    if spec == "exp":
        return Target("exp", np.exp, np.exp, np.exp)
    if spec.startswith("const:"):
        try:
            c = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"malformed constant target {spec!r}") from exc
        if not np.isfinite(c):
            raise ConfigError(f"constant target must be finite, got {spec!r}")
        return _const_target(c)
    if spec.startswith("csv:"):
        path = spec.split(":", 1)[1]
        try:
            grid = GridFunction.from_csv(path)
        except OSError as exc:
            raise ConfigError(f"cannot read CSV target {path!r}: {exc}") from exc
        return Target.from_grid(grid, name=f"csv:{path}")
    raise ConfigError(f"unknown target {spec!r}")


# ---------------------------------------------------------------------------
# Chebyshev stage


@dataclass(frozen=True)
class ChebPoly:
    """Chebyshev-basis polynomial on [-1, 1] with its certified C^2 error."""

    coefficients: np.ndarray
    fit_error: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 1 or coef.size < _DEGREE_FLOOR + 1:
            raise DomainError(
                f"need at least degree {_DEGREE_FLOOR} (got {coef.size - 1})")
        if coef.size - 1 > 30:
            raise DomainError(f"degree {coef.size - 1} exceeds the supported cap 30")
        if not np.all(np.isfinite(coef)):
            raise DomainError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def eval(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        c = self.coefficients
        for _ in range(order):
            c = np.polynomial.chebyshev.chebder(c)
        return np.polynomial.chebyshev.chebval(np.asarray(x, dtype=float), c)

    def monomial_fractions(self) -> list[Fraction]:
        """Exact monomial coefficients of the same real polynomial.

        Chebyshev polynomials have integer monomial coefficients, so with
        float inputs promoted to exact rationals the conversion is exact
        for every supported degree.
        """
        n = self.degree + 1
        rows = [[1], [0, 1]]
        while len(rows) < n:
            prev, cur = rows[-2], rows[-1]
            nxt = [0] + [2 * v for v in cur]
            for i, v in enumerate(prev):
                nxt[i] -= v
            rows.append(nxt)
        out = [Fraction(0)] * n
        for k, a in enumerate(self.coefficients):
            fa = Fraction(float(a))
            for j, tv in enumerate(rows[k]):
                if tv:
                    out[j] += fa * tv
        return out


def _cheb_interpolate(f: Callable, degree: int) -> np.ndarray:
    return np.polynomial.chebyshev.chebinterpolate(
        lambda z: np.asarray(f(np.asarray(z, dtype=float)), dtype=float), degree)


def _certify_c2(diff_funcs, grid: np.ndarray) -> float:
    worst = 0.0
    for fn in diff_funcs:
        worst = max(worst, float(np.max(np.abs(fn(grid)))))
    return worst * _INFLATION


def cheb_fit(target: Target, eps_half: float, degree_cap: int = 30) -> ChebPoly:
    """Lowest-degree Chebyshev interpolant within eps_half of the target in
    certified C^2 norm; raises when the degree cap is insufficient."""
    if eps_half <= 0 or not np.isfinite(eps_half):
        raise ConfigError(f"tolerance must be positive and finite, got {eps_half}")
    if degree_cap > 30:
        raise ConfigError(f"degree cap {degree_cap} exceeds the supported maximum 30")
    grid = np.linspace(-1.0, 1.0, _CERT_GRID)
    best = np.inf
    for degree in range(_DEGREE_FLOOR, degree_cap + 1):
        coef = _cheb_interpolate(target.f, degree)
        poly = ChebPoly(coef, 0.0)
        cert = _certify_c2(
            [lambda z, m=m: target.derivative(m)(z) - poly.eval(z, m) for m in range(3)],
            grid)
        best = min(best, cert)
        if cert <= eps_half:
            return ChebPoly(coef, cert)
    raise ApproximationError(
        f"no polynomial of degree <= {degree_cap} reaches certified C^2 error "
        f"{eps_half:.3e} for target {target.name!r} (best {best:.3e})")


# ---------------------------------------------------------------------------
# block stage


@dataclass(frozen=True)
class GroupInfo:
    """Diagnostics for one matched monomial group."""

    degree: int
    coefficient: float
    scale: float
    condition: float
    halvings: int


@dataclass(frozen=True)
class BuildInfo:
    matching_order: int
    nodes: tuple[float, ...]
    groups: tuple[GroupInfo, ...]
    defect_error: float


def default_nodes(order: int) -> np.ndarray:
    """Matching offsets t_k = 2 + k/J, k = 0..J, spread over [2, 3]."""
    if order == 0:
        return np.array([2.0])
    return 2.0 + np.arange(order + 1) / order


def _defect_certificate(series_list: list[TaylorSeries], grid: np.ndarray) -> float:
    worst = 0.0
    for order in range(3):
        total = np.zeros_like(grid)
        for g in series_list:
            total += np.abs(g.defect_eval(grid, order))
        worst = max(worst, float(np.max(total)))
    return worst * _INFLATION


def build_sharmonic(poly: ChebPoly, s: float, eps_half: float,
                    nodes: np.ndarray | None = None) -> tuple[SHCombo, BuildInfo]:
    """Block combination within eps_half of the polynomial in certified C^2
    norm on [-1, 1].

    Each monomial c_j x^j is reproduced by a combination whose derivatives
    at the origin match c_j j! delta_ij up to the padded order N = max(3,
    degree); the argument rescaling x -> r x with r = eps/(10 N^2 (1+S))
    then forces the deviation from the monomial below the per-group
    budget.  The certificate is the densely sampled sum of group defects;
    scales are halved further if sampling ever exceeds the budget.
    """
    if eps_half <= 0 or not np.isfinite(eps_half):
        raise ConfigError(f"tolerance must be positive and finite, got {eps_half}")
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    mono = poly.monomial_fractions()
    big_n = max(poly.degree, _DEGREE_FLOOR)
    if nodes is None:
        nodes = default_nodes(big_n)
    nodes = np.asarray(nodes, dtype=float)

    # drop conversion-noise monomials: they contribute below roundoff
    floats = [float(c) for c in mono]
    scale_c = max(1.0, max(abs(c) for c in floats))
    kept = [(j, c) for j, c in enumerate(floats) if abs(c) > 1e-13 * scale_c]
    if not kept:
        # identically-zero polynomial: the empty combination is exact
        empty = SHCombo(s, (), (-1.0, 1.0))
        info = BuildInfo(matching_order=big_n,
                         nodes=tuple(float(t) for t in nodes),
                         groups=(), defect_error=0.0)
        return empty, info

    matched = {}
    infos = {}
    for j, cj in kept:
        values = tuple(cj * math.factorial(j) if i == j else 0.0
                       for i in range(big_n + 1))
        base = solve_derivative_match(DerivSpec(values), nodes, s)
        group = rescale_for_defect(base, j, big_n, eps_half)
        matched[j] = group
        infos[j] = GroupInfo(
            degree=j, coefficient=cj, scale=group.blocks[0].r,
            condition=base.match_info.condition, halvings=0)

    grid = np.linspace(-1.0, 1.0, _DEFECT_GRID)
    halvings = {j: 0 for j in matched}
    while True:
        cert = _defect_certificate([g.series[0] for g in matched.values()], grid)
        if cert <= eps_half:
            break
        # halve the scale of the worst offender and retry
        worst_j, worst_val = None, -1.0
        for j, g in matched.items():
            v = max(float(np.max(np.abs(g.series[0].defect_eval(grid, m))))
                    for m in range(3))
            if v > worst_val:
                worst_j, worst_val = j, v
        halvings[worst_j] += 1
        if halvings[worst_j] > _MAX_HALVINGS:
            raise ApproximationError(
                f"defect certificate stuck at {cert:.3e} > {eps_half:.3e} after "
                f"{_MAX_HALVINGS} scale halvings of degree {worst_j}")
        matched[worst_j] = _halve_scale(matched[worst_j], worst_j, eps_half)

    combo = None
    for j in sorted(matched):
        combo = matched[j] if combo is None else _merge(combo, matched[j])
    groups = tuple(
        GroupInfo(degree=j, coefficient=infos[j].coefficient,
                  scale=matched[j].blocks[0].r,
                  condition=infos[j].condition,
                  halvings=halvings[j])
        for j in sorted(matched))
    info = BuildInfo(matching_order=big_n, nodes=tuple(float(t) for t in nodes),
                     groups=groups, defect_error=cert)
    return combo, info


def _merge(a: SHCombo, b: SHCombo) -> SHCombo:
    return SHCombo(a.s, a.blocks + b.blocks, a.interval, a.series + b.series)


def _halve_scale(group: SHCombo, j: int, eps_half: float) -> SHCombo:
    """Halve the argument scale of a matched group, preserving its monomial."""
    r_new = group.blocks[0].r * 0.5
    if r_new == 0.0:
        raise ApproximationError("matched group scale underflows float64")
    spec_values = group.match_info.spec_values
    nodes = tuple(b.t for b in group.blocks)
    return assemble_scaled_group(spec_values, nodes, group.s, j,
                                 len(spec_values) - 1, r_new, group.interval,
                                 eps_half)


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class ApproxReport:
    """Certificates and diagnostics of one approximation run."""

    target: str
    s: float
    epsilon_requested: float
    epsilon_poly: float
    epsilon_defect: float
    epsilon_total: float
    degree: int
    matching_order: int
    nodes: tuple[float, ...]
    scales: tuple[tuple[int, float], ...]
    condition: float
    n_blocks: int
    max_residual: float
    residual_points: int
    residual_method: str
    elapsed_seconds: float

    def to_dict(self) -> dict:
        d = {
            "target": self.target,
            "s": self.s,
            "epsilon_requested": self.epsilon_requested,
            "epsilon_poly": self.epsilon_poly,
            "epsilon_defect": self.epsilon_defect,
            "epsilon_total": self.epsilon_total,
            "degree": self.degree,
            "matching_order": self.matching_order,
            "nodes": list(self.nodes),
            "scales": {str(j): r for j, r in self.scales},
            "condition": self.condition,
            "n_blocks": self.n_blocks,
            "max_residual": self.max_residual,
            "residual_points": self.residual_points,
            "residual_method": self.residual_method,
        }
        return d


def interior_points(interval: tuple[float, float], n: int) -> np.ndarray:
    """n equally spaced points strictly inside the interval."""
    return np.linspace(interval[0], interval[1], n + 2)[1:-1]


def approximate(target: Target, eps: float, s: float, degree_cap: int = 30,
                residual_points: int = 21) -> tuple[SHCombo, ApproxReport]:
    """Block combination within certified C^2 distance eps of the target.

    The budget is split evenly between the polynomial stage and the block
    stage; epsilon_total reports the sum of both certificates and never
    exceeds eps on success.
    """
    t0 = time.perf_counter()
    if eps <= 0 or not np.isfinite(eps):
        raise ConfigError(f"tolerance must be positive and finite, got {eps}")
    poly = cheb_fit(target, 0.5 * eps, degree_cap)
    combo, build = build_sharmonic(poly, s, 0.5 * eps)
    eps_total = poly.fit_error + build.defect_error
    if eps_total > eps:
        raise ApproximationError(
            f"certified total {eps_total:.3e} exceeds requested {eps:.3e}")
    xs = interior_points(combo.interval, residual_points)
    residual = float(np.max(exact.combo_residual(combo, xs)))
    report = ApproxReport(
        target=target.name, s=s, epsilon_requested=float(eps),
        epsilon_poly=poly.fit_error, epsilon_defect=build.defect_error,
        epsilon_total=eps_total, degree=poly.degree,
        matching_order=build.matching_order, nodes=build.nodes,
        scales=tuple((g.degree, g.scale) for g in build.groups),
        condition=max((g.condition for g in build.groups), default=0.0),
        n_blocks=len(combo.blocks), max_residual=residual,
        residual_points=residual_points,
        residual_method="per-block exact reduction via the canonical constant",
        elapsed_seconds=time.perf_counter() - t0)
    return combo, report
