"""Certified approximation of C^2 targets by block combinations.

Pipeline: fit a Chebyshev interpolant whose C^2 distance to the target is
certified against half the budget, convert it exactly to monomials, and
match their derivatives at the origin with one group of blocks under one
argument scale x -> r x, the largest at which a proved bound on the
group's C^2 deviation from the polynomial fits the other half.  The final
function - a finite combination of exactly equation-solving blocks -
inherits both certificates, so it lies within the requested C^2 distance
of the target on the working interval.

The polynomial stage takes an arbitrary callable, so its C^2 error is
certified by dense sampling with a fixed inflation factor.  The block
stage's defect is proved from exact moments (see blocks._defect_model),
plus the C^2 weight of the monomials too small to match.  Every reported
epsilon is the certified value, never the mathematical ideal.  The
residual bound is one exact.combo_residual at the interval's left end,
where its decreasing cancellation mass is largest; that mass is bounded
in integers from exact r_k x + t_k, so the bound is at least the exact
product and at most 1 + delta times it, delta < 4.45e-16.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import exact
from .blocks import SHCombo, match_polynomial
from .errors import ApproximationError, ConfigError, DomainError

_CERT_GRID = 4096
_SCREEN_STRIDE = 64
_INFLATION = 1.05
_DEGREE_FLOOR = 3
_DEGREE_CAP = 30
_NODE_STEPS = 64  # default_nodes are multiples of 1 / _NODE_STEPS
_grid_table = np.empty((0, _CERT_GRID))  # _grid_values' rows T_k on the grid


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Target:
    """C^2 target on the working interval: value and two derivatives.

    Each callable maps an array of abscissae to one value per abscissa,
    point by point: a value should not depend on the other points or on
    the size of the array (cheb_fit's bit-for-bit match needs this)."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]

    def derivative(self, order: int) -> Callable[[np.ndarray], np.ndarray]:
        return (self.f, self.f1, self.f2)[order]

    @classmethod
    def from_samples(cls, a: float, b: float, values, deriv1=None, deriv2=None,
                     name: str = "grid") -> "Target":
        """Interpolated target from n >= 3 uniform samples on [a, b].

        f, f1 and f2 interpolate the value, deriv1 and deriv2 columns
        linearly at np.linspace(a, b, n) and are clamped to the end values
        outside [a, b].  A missing derivative column is np.gradient
        (edge_order=2) of the column below it; a supplied one must agree
        with those divided differences to within 1e-3 (1 + max|column|).  A
        deriv2 given without deriv1 is checked against the second
        difference of the values instead, which keeps O(h^2) at the ends.
        """
        if not (a < b) or not (np.isfinite(a) and np.isfinite(b)):
            raise DomainError(f"invalid grid interval [{a}, {b}]")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise DomainError("grid needs at least three samples")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        given = {}
        for label, col in (("deriv1", deriv1), ("deriv2", deriv2)):
            if col is not None:
                col = np.asarray(col, dtype=float)
                if col.shape != values.shape or not np.all(np.isfinite(col)):
                    raise DomainError(f"{label} column must match the grid and be finite")
                given[label] = col
        xs = np.linspace(a, b, values.size)
        cols = [values]
        for label, below in (("deriv1", "the values"), ("deriv2", "deriv1")):
            # edge_order=2 keeps the check's own boundary error at h^2 when
            # the column below is exact
            fd = np.gradient(cols[-1], xs, edge_order=2)
            col = given.get(label)
            if col is None:
                col = fd
            else:
                if label == "deriv2" and "deriv1" not in given:
                    # a gradient of the differenced deriv1 is O(h) at the ends
                    below = "the values"
                    fd = _second_difference(values, (b - a) / (values.size - 1))
                tol = 1e-3 * (1.0 + float(np.max(np.abs(col))))
                worst = float(np.max(np.abs(col - fd)))
                if worst > tol:
                    raise ConfigError(
                        f"grid {label} column disagrees with divided differences "
                        f"of {below}: max deviation {worst:.3e} > {tol:.3e}")
            cols.append(col)
        return cls(name, *(_interpolant(xs, col) for col in cols))


def _second_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of uniform samples to O(h^2): (f+ - 2 f + f-) / h^2
    inside, (2 f0 - 5 f1 + 4 f2 - f3) / h^2 at each end, or the one central
    difference for three samples."""
    out = np.empty_like(values)
    out[1:-1] = values[2:] - 2.0 * values[1:-1] + values[:-2]
    if values.size == 3:
        out[0] = out[2] = out[1]
    else:
        out[0] = 2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]
        out[-1] = 2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
    return out / h**2


def _interpolant(xs: np.ndarray, col: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Linear interpolant of col at xs, clamped to the end values outside."""
    return lambda z: np.interp(np.asarray(z, dtype=float), xs, col)


def _read_grid_csv(text: str) -> tuple:
    """(a, b, values, deriv1, deriv2) from a grid CSV: a header x,value with
    optional deriv1 and deriv2 columns, then at least three rows of uniformly
    increasing x."""
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
    if len(rows) < 3:
        raise ConfigError("grid CSV needs at least three rows")
    data = np.array(rows)
    xs = data[:, 0]
    # finiteness first: the spacings of infinite abscissae would warn
    uniform = bool(np.all(np.isfinite(xs)))
    if uniform:
        ref = (xs[-1] - xs[0]) / (xs.size - 1)
        uniform = ref > 0 and np.all(np.abs(np.diff(xs) - ref) <= 1e-8 * max(ref, 1e-30))
    if not uniform:
        raise ConfigError("grid CSV abscissae must be finite and uniformly increasing")
    deriv1 = data[:, 2] if data.shape[1] >= 3 else None
    deriv2 = data[:, 3] if data.shape[1] >= 4 else None
    return float(xs[0]), float(xs[-1]), data[:, 1], deriv1, deriv2


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
            text = Path(path).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read CSV target {path!r}: {exc}") from exc
        return Target.from_samples(*_read_grid_csv(text), name=f"csv:{path}")
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
        if coef.size - 1 > _DEGREE_CAP:
            raise DomainError(f"degree {coef.size - 1} exceeds the supported cap {_DEGREE_CAP}")
        if not np.all(np.isfinite(coef)):
            raise DomainError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def eval(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """The derivative of the given order at any x, with the certificate's
        tables: D_1 (_screen_tables) applied order times to the coefficients,
        then their sum against the rows T_k(x) (_chebyshev_rows)."""
        if not _is_int(order) or order < 0:
            raise DomainError(f"derivative order must be an int >= 0, got {order!r}")
        x, c = np.asarray(x, dtype=float), self.coefficients
        d1 = _screen_tables()[6][1, :c.size, :c.size]
        for _ in range(order):
            c = d1 @ c
        return (c @ _chebyshev_rows(x.ravel(), c.size)).reshape(x.shape)[()]

    def monomial_numerators(self) -> tuple[list[int], int]:
        """Exact monomial coefficients of the same real polynomial as integer
        numerators over the inputs' largest denominator, a power of two:
        Chebyshev polynomials have integer monomial coefficients."""
        ratios = [float(a).as_integer_ratio() for a in self.coefficients]
        den = max(d for _, d in ratios)  # powers of two: the largest is their lcm
        out = [0] * len(ratios)
        for num, row in zip([n * (den // d) for n, d in ratios], _chebyshev_monomials()):
            for j, tv in row:
                out[j] += num * tv
        return out, den


@functools.cache
def _chebyshev_monomials() -> tuple[tuple[tuple[int, int], ...], ...]:
    """(j, coefficient of x^j) of T_k's nonzero monomials for k <= the cap,
    from T_(k+1) = 2 x T_k - T_(k-1)."""
    rows = [[1], [0, 1]]
    while len(rows) <= _DEGREE_CAP:
        rows.append([2 * a - b for a, b in zip([0] + rows[-1], rows[-2] + [0, 0])])
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in rows)


def _chebyshev_rows(x: np.ndarray, n: int) -> np.ndarray:
    """T_k(x) for k < n (n >= 2), one row each, by chebvander's recurrence
    and so with its bits: x * 0 + 1, x, then T_k = T_(k-1) * 2x - T_(k-2)."""
    rows = np.empty((n, x.size))
    rows[0], rows[1], x2 = x * 0 + 1, x, 2 * x
    for k in range(2, n):
        rows[k] = rows[k - 1] * x2 - rows[k - 2]
    return rows


@functools.cache
def _screen_tables() -> tuple:
    """The Chebyshev stage's fixed arrays, built once for every degree up to
    the cap (about 0.16 MB) and sliced for a lower one.

    nodes: chebpts1(d + 1) of d = 3..30 concatenated, 490 points; layout:
    per degree, its first index in nodes and chebvander(x_d, d).T, C
    contiguous as chebinterpolate passes it to np.dot; scale: (28, 31),
    each degree's divisors n, n/2, ..., n/2 of chebinterpolate, padded with
    ones; at: every _SCREEN_STRIDE-th grid point and the last; evals: (31,
    3 len(at)), T_k^(m) at those points for m = 0, 1, 2 side by side;
    peaks: (3, 31), T_k^(m)(1) = prod_{l<m} (k^2 - l^2) / (2 l + 1), the column
    sums of derivs: (3, 31, 31), D_m of T_k^(m)'s exact Chebyshev coefficients
    by column k.  nodes and vander have chebpts1's and chebvander's bits.
    """
    size = _DEGREE_CAP + 1
    sizes = range(_DEGREE_FLOOR + 1, size + 1)
    nodes = np.concatenate([np.sin(0.5 * np.pi / n * np.arange(-n + 1, n + 1, 2))
                            for n in sizes])
    # the recurrence is elementwise, so the leading rows are chebvander(x_d, d).T
    vander = _chebyshev_rows(nodes, size)
    layout = tuple((i, np.ascontiguousarray(vander[:n, i:i + n]))
                   for i, n in zip(np.cumsum([0, *sizes]), sizes))
    n, k = np.array(sizes, dtype=float)[:, None], np.arange(size)
    scale = np.where(k == 0, n, np.where(k < n, 0.5 * n, 1.0))
    at = np.append(np.arange(0, _CERT_GRID, _SCREEN_STRIDE), _CERT_GRID - 1)
    # T_k' = 2 k (T_(k-1) + T_(k-3) + ...), its T_0 term halved; D_2 = D_1^2
    d1 = np.triu((k + k[:, None]) % 2 * (2.0 - (k[:, None] == 0)) * k, 1)
    derivs = np.array([np.eye(size), d1, d1 @ d1])
    points = _chebyshev_rows(np.linspace(-1.0, 1.0, _CERT_GRID)[at], size)
    evals = np.hstack([d.T @ points for d in derivs])
    return nodes, layout, scale, at, evals, derivs.sum(axis=1), derivs


def _sampled(target: Target, order: int, x: np.ndarray) -> np.ndarray:
    """The target's derivative of the given order at x; DomainError unless
    it gives one finite value per abscissa."""
    values = np.asarray(target.derivative(order)(x), dtype=float)
    if values.shape != x.shape:
        raise DomainError(f"target {target.name!r}: derivative of order {order} gave shape "
                          f"{values.shape} for {x.size} abscissae, not one value per abscissa")
    # the certificate's max() would skip a NaN and certify the finite orders alone
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"target {target.name!r}: derivative of order {order} is not "
                          f"finite at x={x[bad][0]}; give a target finite on [-1, 1]")
    return values


def _interpolants(target: Target, degree_cap: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolants of degrees 3..degree_cap,
    one row each, zero-padded to _DEGREE_CAP + 1 columns.

    target.f is called once, on the union of their nodes.  Each row takes
    chebinterpolate's steps: the same np.dot of the same block with a fresh
    array of the node values, then the same division, so it has the same
    bits wherever target.f gives the nodes the values it gives them alone."""
    nodes, layout, scale = _screen_tables()[:3]
    rows = degree_cap - _DEGREE_FLOOR + 1
    start, block = layout[rows - 1]  # the nodes of degrees 3..degree_cap lead
    values = _sampled(target, 0, nodes[:start + len(block)])
    coef = np.zeros((rows, _DEGREE_CAP + 1))
    for row, (start, block) in zip(coef, layout):
        row[:len(block)] = np.dot(block, values[start:start + len(block)].copy())
    return coef / scale[:rows]


def _screen(coef: np.ndarray, samples: np.ndarray, eps_half: float) -> np.ndarray:
    """Mask over the rows of coef (_interpolants), False where the degree's
    full certificate provably exceeds eps_half.

    Every degree is evaluated at once, by one product with the tables, and
    compared with the samples at every _SCREEN_STRIDE-th grid point and x =
    1.  These points lie on the certification grid and the certificate
    takes the same coefficients, so the screen's deviation S_m at order m
    is at most the full certificate's maximum M_m, up to rounding.  A
    degree is ruled out only when 1.05 max_m (S_m - margin_m) > eps_half,
    where margin_m bounds S_m - M_m.  With u = 2^-53, n = d + 1, c the
    degree's coefficients and W_m = sum_k |c_k| T_k^(m)(1):

    * Evaluation.  Both sides sum (D_m c)_j T_j(x) with the exact integer
      D_m (_screen_tables), nonnegative with column sums T_k^(m)(1), and
      the recurrence's rows t_j.  Each recurrence step rounds by at most 3 u
      and reaches T_j through U_(j-i), |U_l| <= l + 1 on [-1, 1], so |t_j -
      T_j| <= 1.5 j^2 u.  Each product of n terms adds gamma_n = n u / (1 -
      n u) of its absolute sum: the certificate's D_m c and its product with
      the table, the screen's D_m^T t and c times it.  So each side is
      within (1.5 n^2 + 2 n) u W_m <= 2 n^2 u W_m of the exact value, to
      first order in u; the margin keeps 16 n^3 u W_m, 4 n times their sum,
      which covers the second-order terms.
    * Comparison.  Each |sample - value| rounds by u relative, and S_m -
      margin_m rounds once more; each deviation is at most max|samples_m|
      + W_m, so 8 u times that covers all three.

    Rounding is monotone, so S_m - margin_m <= M_m survives 1.05 max,
    whatever the coefficients and the target.  A generous margin costs only
    speed: a degree it keeps gets the full certificate.  A non-finite
    coefficient makes the degree's lower bound NaN, which rules nothing out.
    """
    at, evals, peaks = _screen_tables()[3:6]
    screened = samples[:, at].ravel()
    dev = np.abs(screened - coef @ evals).reshape(len(coef), 3, at.size).max(axis=2)
    n = np.arange(_DEGREE_FLOOR + 1, _DEGREE_FLOOR + 1 + len(coef), dtype=float)[:, None]
    mass = np.abs(coef) @ peaks.T
    margin = (2.0**-49 * n**3 * mass
              + 2.0**-50 * (np.abs(screened).reshape(3, -1).max(axis=1) + mass))
    return ~(_INFLATION * np.max(dev - margin, axis=1) > eps_half)


def _grid_values(coef: np.ndarray) -> np.ndarray:
    """Orders 0-2 on the certification grid: [D_0 c; D_1 c; D_2 c] times one
    T_k table's first n rows, grown to the largest n so far (rounding: _screen)."""
    global _grid_table
    n = coef.size
    if len(_grid_table) < n:
        _grid_table = _chebyshev_rows(np.linspace(-1.0, 1.0, _CERT_GRID), n)
    return (_screen_tables()[6][:, :n, :n] @ coef) @ _grid_table[:n]


def _certified(coef: np.ndarray, samples: np.ndarray) -> ChebPoly:
    """The interpolant and its full certificate against the (3, _CERT_GRID) samples."""
    dev = _grid_values(coef)
    dev -= samples
    return ChebPoly(coef, _INFLATION * float(np.abs(dev, out=dev).max()))


def cheb_fit(target: Target, eps_half: float, degree_cap: int = _DEGREE_CAP) -> ChebPoly:
    """Lowest-degree Chebyshev interpolant within eps_half of the target in
    certified C^2 norm; raises when the degree cap is insufficient.

    The target and its two derivatives are sampled on the certification
    grid once, and target.f once on the union of every degree's Chebyshev
    nodes, which gives every interpolant (_interpolants); a callable that
    does not give one finite value per abscissa raises DomainError.  Every
    degree is first screened on a subset of the grid with a derived
    rounding margin (_screen), which rules out only degrees whose full
    certificate would fail; the others are tried in order with the full
    4096-point certificate, so normally only the degree returned gets it.
    The certificate is one product with a cached T_k table (_grid_values),
    within _screen's derived term of the exact values.  The result is the
    lowest degree that passes; for a pointwise target.f, as Target asks,
    its interpolant is chebinterpolate's bit for bit.  When no degree passes,
    every degree is certified in full, for the message's smallest certificate."""
    if eps_half <= 0 or not np.isfinite(eps_half):
        raise ConfigError(f"tolerance must be positive and finite, got {eps_half}")
    if not _is_int(degree_cap):
        raise ConfigError(f"degree cap must be an int, got {degree_cap!r}")
    if not (_DEGREE_FLOOR <= degree_cap <= _DEGREE_CAP):
        raise ConfigError(f"degree cap {degree_cap} lies outside the supported range "
                          f"{_DEGREE_FLOOR}..{_DEGREE_CAP}")
    grid = np.linspace(-1.0, 1.0, _CERT_GRID)
    samples = np.array([_sampled(target, m, grid) for m in range(3)])
    coef = _interpolants(target, degree_cap)
    rows = [row[:d + 1] for d, row in enumerate(coef, _DEGREE_FLOOR)]
    for i in np.flatnonzero(_screen(coef, samples, eps_half)):
        poly = _certified(rows[i], samples)
        if poly.fit_error <= eps_half:
            return poly
    best = min(_certified(row, samples).fit_error for row in rows)
    raise ApproximationError(
        f"no polynomial of degree <= {degree_cap} reaches certified C^2 error "
        f"{eps_half:.3e} for target {target.name!r} (best {best:.3e})")


# ---------------------------------------------------------------------------
# block stage


@dataclass(frozen=True)
class BuildInfo:
    matching_order: int
    nodes: tuple[float, ...]
    scales: tuple[tuple[int, float], ...]  # (degree, scale r) of each matched monomial
    defect_error: float


def default_nodes(order: int) -> np.ndarray:
    """Matching offsets t_k = 2 + round(64 k / J) / 64, k = 0..J, for an int
    order J in 0..64 (J = 0 gives [2]): multiples of 1/64 spanning [2, 3],
    distinct because their steps are at least 1/64, and 2 + k/J exactly
    when J is a power of two.  64 k / J never lands on a half.  Short
    dyadics keep every exact integer of the matching build small (the node
    polynomial of J = 30 has 207 bits, against 1458 for 2 + k/J)."""
    if not _is_int(order) or not 0 <= order <= _NODE_STEPS:
        raise DomainError(f"matching order must be an int in 0..{_NODE_STEPS}, got {order!r}")
    if order == 0:
        return np.array([2.0])
    return 2.0 + np.rint(_NODE_STEPS * np.arange(order + 1) / order) / _NODE_STEPS


def _matching_values(poly: ChebPoly) -> tuple[list[int], int, list[int], float]:
    """The monomials c_j = n_j / D as values to match over D (n_j j! at the
    kept degrees, else 0), D, the kept degrees and the others' C^2 weight
    max_(m<=2) sum_j |c_j| j!/(j-m)!, exact and rounded up.  Each float of
    n_j / D is an int true division, so it is the exact rational's float."""
    nums, den = poly.monomial_numerators()
    try:
        sizes = [abs(n) / den for n in nums]
    except OverflowError:
        raise DomainError(f"a monomial coefficient of the degree {poly.degree} "
                          f"polynomial exceeds float64") from None
    cut = 1e-13 * max(1.0, max(sizes))
    values = [n * math.factorial(j) if v > cut else 0 for j, (n, v) in enumerate(zip(nums, sizes))]
    weight = max(sum(abs(n) * math.perm(j, m) for j, (n, v) in enumerate(zip(nums, values))
                     if not v) for m in range(3))
    dropped = math.nextafter(weight / den, math.inf) if weight else 0.0
    return values, den, [j for j, v in enumerate(values) if v], dropped


def build_sharmonic(poly: ChebPoly, s: float, eps_half: float) -> tuple[SHCombo, BuildInfo]:
    """Block combination within eps_half of the polynomial in certified C^2
    norm on [-1, 1].

    The kept monomials c_j x^j are matched together: one group of N + 1
    blocks at default_nodes(N), N = poly.degree, whose derivatives at the
    origin are those of sum_j c_j x^j up to order N, under the largest
    scale x -> r x at which the proved deviation bound, summed over the kept
    degrees, plus the C^2 weight of the monomials left out fits the budget
    (blocks.match_polynomial).  Monomials below 1e-13 max(1, max|c|)
    (conversion noise, such as the even monomials of an odd target) are
    left out; all stay integers over one power of two.  The certificate
    is that bound at r; one above the budget raises ApproximationError.
    """
    if eps_half <= 0 or not np.isfinite(eps_half):
        raise ConfigError(f"tolerance must be positive and finite, got {eps_half}")
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    values, den, kept, dropped = _matching_values(poly)
    nodes = default_nodes(poly.degree)
    if dropped >= eps_half:
        raise ApproximationError(
            f"unmatched monomials weigh {dropped:.3e} in C^2, above the block "
            f"budget {eps_half:.3e}; raise epsilon")
    if kept:
        combo, bound = match_polynomial(values, nodes, s, eps_half, dropped, den)
        cert = float(np.max(bound))
    else:
        combo, cert = SHCombo(s, ()), dropped
    if cert > eps_half:
        raise ApproximationError(
            f"proved defect certificate {cert:.3e} of the degree {poly.degree} "
            f"polynomial exceeds its budget {eps_half:.3e}; raise epsilon or "
            f"lower --degree-cap")
    info = BuildInfo(matching_order=poly.degree, nodes=tuple(float(t) for t in nodes),
                     scales=tuple((j, combo.blocks[0].r) for j in kept), defect_error=cert)
    return combo, info


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
    n_blocks: int
    max_residual: float
    residual_method: str
    elapsed_seconds: float

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed_seconds"}
        d["nodes"] = list(self.nodes)
        d["scales"] = {str(j): r for j, r in self.scales}
        return d


def approximate(target: Target, eps: float, s: float,
                degree_cap: int = _DEGREE_CAP) -> tuple[SHCombo, ApproxReport]:
    """Block combination within certified C^2 distance eps of the target.

    The budget is split evenly between the polynomial stage and the block
    stage; epsilon_total reports the sum of both certificates and never
    exceeds eps on success.  max_residual is combo_residual at the
    interval's left end, which bounds the operator residual at every point
    of the interval: |Phi(s, s)| plus its error times an integer upper
    bound on the cancellation mass there, rounded up to float.
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
    residual = float(exact.combo_residual(combo, combo.interval[0])[0])
    report = ApproxReport(
        target=target.name, s=s, epsilon_requested=float(eps),
        epsilon_poly=poly.fit_error, epsilon_defect=build.defect_error,
        epsilon_total=eps_total, degree=poly.degree,
        matching_order=build.matching_order, nodes=build.nodes,
        scales=build.scales,
        n_blocks=len(combo.blocks), max_residual=residual,
        residual_method="per-block exact reduction via the canonical constant at the left end",
        elapsed_seconds=time.perf_counter() - t0)
    return combo, report
