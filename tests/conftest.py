"""Shared test helpers: finite-difference oracles, closed-form oracles for
blocks and the canonical constant, the unscreened Chebyshev degree search,
a grid CSV writer, the per-call combination evaluation and the block
stage's Fraction path with its ungrouped deviation bound."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mpf, workdps

from sharmonic.approximate import _CERT_GRID, _DEGREE_CAP, _DEGREE_FLOOR, ChebPoly, _certified
from sharmonic.blocks import (_EPS64, _combo_eval_mp, _node_polynomial, _omitted_bound,
                              _vandermonde_inverse)
from sharmonic.errors import ApproximationError, ConfigError, DomainError
from sharmonic.exact import canonical_constant

# central difference stencils of second-order accuracy, by derivative order
_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
    4: ((2.0, 1.0), (1.0, -4.0), (0.0, 6.0), (-1.0, -4.0), (-2.0, 1.0)),
}


def central_difference(f, x: float, order: int, h: float) -> float:
    acc = 0.0
    for offset, weight in _STENCILS[order]:
        acc += weight * float(f(x + offset * h))
    return acc / h**order


def richardson_derivative(f, x: float, order: int, h: float = 1e-2,
                          levels: int = 5) -> float:
    """Richardson-extrapolated central difference, error O(h^(2*levels)).

    Independent of every closed-form derivative in the package: only
    function values enter.
    """
    table = [central_difference(f, x, order, h / 2**k) for k in range(levels)]
    for m in range(1, levels):
        factor = 4.0**m
        table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                 for i in range(len(table) - 1)]
    return table[0]


def falling_factorial(s: float, order: int) -> float:
    """Product s*(s-1)*...*(s-order+1); equals 1 for order 0."""
    out = 1.0
    for l in range(order):
        out *= s - l
    return out


def block_derivative_at_zero(t: float, j: int, s: float) -> float:
    """j-th derivative of x -> (x + t)_+^s at x = 0, for t > 0.

    Closed form: s*(s-1)*...*(s-j+1) * t**(s-j).
    """
    if t <= 0:
        raise DomainError(f"block offset must be positive, got t={t}")
    if j < 0:
        raise DomainError(f"derivative order must be nonnegative, got {j}")
    return falling_factorial(s, j) * t ** (s - j)


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


def write_grid_csv(path, a: float, b: float, *columns) -> None:
    """Write value[, deriv1[, deriv2]] at np.linspace(a, b, n) in the csv:
    target format, each number exact to the last bit."""
    names = ["x", "value", "deriv1", "deriv2"][:len(columns) + 1]
    xs = np.linspace(a, b, len(columns[0]))
    rows = [",".join(names)] + [",".join(repr(float(v)) for v in row)
                                for row in zip(xs, *columns)]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


def cheb_fit_reference(target, eps_half: float, degree_cap: int = _DEGREE_CAP) -> ChebPoly:
    """The Chebyshev degree search without the screen: every degree from 3
    up is interpolated and certified on the full grid until one passes, by
    the same product as cheb_fit's certificate (test_approximate checks that
    product against ChebPoly.eval)."""
    if eps_half <= 0 or not np.isfinite(eps_half):
        raise ConfigError(f"tolerance must be positive and finite, got {eps_half}")
    if not (_DEGREE_FLOOR <= degree_cap <= _DEGREE_CAP):
        raise ConfigError(f"degree cap {degree_cap} lies outside the supported range "
                          f"{_DEGREE_FLOOR}..{_DEGREE_CAP}")
    grid = np.linspace(-1.0, 1.0, _CERT_GRID)
    samples = [target.derivative(m)(grid) for m in range(3)]
    for m, values in enumerate(samples):
        # max() below would skip a NaN and certify the finite orders alone
        if not np.all(np.isfinite(values)):
            raise DomainError(f"target {target.name!r}: derivative of order {m} is "
                              f"not finite on the certification grid")
    best = np.inf
    for degree in range(_DEGREE_FLOOR, degree_cap + 1):
        coef = np.polynomial.chebyshev.chebinterpolate(
            lambda z: np.asarray(target.f(np.asarray(z, dtype=float)), dtype=float), degree)
        poly = _certified(coef, np.array(samples))
        best = min(best, poly.fit_error)
        if poly.fit_error <= eps_half:
            return poly
    raise ApproximationError(
        f"no polynomial of degree <= {degree_cap} reaches certified C^2 error "
        f"{eps_half:.3e} for target {target.name!r} (best {best:.3e})")


# ---------------------------------------------------------------------------
# the combination evaluation as it was before the per-order tables: every
# call rebuilds the derivative's coefficients and the rounding test in numpy


def power_series_eval_reference(coefs, x, order):
    """polyval(x, polyder(coefs, order)) by Horner's rule, derivative built per call."""
    coefs = np.asarray(coefs, dtype=np.float64)
    if coefs.size == 0:
        coefs = np.zeros(1)
    order = int(order)
    if order < 0:
        raise ValueError("The order of derivation must be non-negative")
    if order >= coefs.size:
        der = coefs[:1] * 0.0
    else:
        der = coefs[order:]
        powers = np.arange(order, coefs.size, dtype=np.float64)
        for l in range(order):
            der = der * (powers - l)
    der = der.tolist()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 1:
        xf = x.item()
        acc = der[-1] + xf * 0.0
        for d in der[-2::-1]:
            acc = d + acc * xf
        return np.float64(acc) if x.ndim == 0 else np.full(x.shape, acc)
    acc = x * 0.0
    acc += der[-1]
    for d in der[-2::-1]:
        acc *= x
        acc += d
    return acc


def _combo_derivatives_reference(ts, cs, rs, s, x, order):
    fall = 1.0
    for l in range(order):
        fall *= s - l
    coef = cs * rs**order * fall
    arg = rs[:, None] * x[None, :] + ts[:, None]
    powers = np.power(arg, float(s) - order, out=np.zeros_like(arg), where=arg > 0.0)
    return (coef[:, None] * powers).sum(axis=0)


def combo_derivative_reference(combo, x, order=0):
    """combo_derivative with the noise threshold |coefs[order:]| @ weights
    and the derivative's coefficients rebuilt in numpy on every call."""
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if combo.has_mp_coefficients:
        xmax = abs(xs.item()) if xs.size == 1 else float(np.max(np.abs(xs), initial=0.0))
        coefs = combo.taylor
        powers = np.arange(order, coefs.size)
        weights = xmax ** (powers - order)
        for l in range(order):
            weights = weights * (powers - l)
        noise = _EPS64 * float(np.abs(coefs[order:]) @ weights)
        if xmax < combo.radius and combo.series_error(xmax, order) <= noise:
            out = power_series_eval_reference(coefs, xs, order)
        else:
            out = _combo_eval_mp(combo, xs, order)
    else:
        ts, cs, rs = combo.float_arrays
        out = _combo_derivatives_reference(ts, cs, rs, combo.s, xs, order)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the block stage as it was before its integer path: the monomials, the
# right-hand sides and the columns as Fractions, the merge over the lcm of
# the columns' denominators, and the deviation bound summed over the whole
# (kept degree, row) grid on every call


def monomial_fractions_reference(poly: ChebPoly) -> list[Fraction]:
    """Exact monomial coefficients of the polynomial, one Fraction each."""
    n = poly.degree + 1
    rows = [[1], [0, 1]]
    while len(rows) < n:
        prev, cur = rows[-2], rows[-1]
        nxt = [0] + [2 * v for v in cur]
        for i, v in enumerate(prev):
            nxt[i] -= v
        rows.append(nxt)
    ratios = [float(a).as_integer_ratio() for a in poly.coefficients]
    den = max(d for _, d in ratios)
    out = [0] * n
    for (num, d), row in zip(ratios, rows):
        num *= den // d
        for j, tv in enumerate(row):
            out[j] += num * tv
    return [Fraction(v, den) for v in out]


def conversion_reference(poly: ChebPoly) -> tuple[list[Fraction], list[int], float]:
    """build_sharmonic's monomials, kept degrees and dropped C^2 weight."""
    mono = monomial_fractions_reference(poly)
    scale_c = max(1.0, max(abs(float(c)) for c in mono))
    kept = [j for j, c in enumerate(mono) if abs(float(c)) > 1e-13 * scale_c]
    degrees = [j for j, c in enumerate(mono) if c and j not in kept]
    exact = max(sum((abs(mono[j]) * math.perm(j, m) for j in degrees), Fraction(0))
                for m in range(3))
    return mono, kept, math.nextafter(float(exact), math.inf) if exact else 0.0


def exact_match_reference(values, nodes, s: float):
    """Checked nodes t, the right-hand sides b_i = d_i / fall(s, i) as
    Fractions and, per degree j with b_j = u_j / v_j != 0, the column
    ([N_kj u_j for each k], D v_j) for V^-1 = N / D."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"exponent must lie in (0, 1), got s={s}")
    if not values or not all(isinstance(d, Fraction) or math.isfinite(d) for d in values):
        raise DomainError("derivative values must be finite and at least one")
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size != len(values):
        raise DomainError(f"need exactly {len(values)} nodes for {len(values)} derivative "
                          f"values, got {t.size}")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("matching nodes must be positive and finite")
    if len(set(t.tolist())) != t.size:
        raise DomainError("matching nodes must be distinct")
    inverse, den = _vandermonde_inverse(tuple(float(tk) for tk in t))
    sp, sq = Fraction(s).as_integer_ratio()
    rhs, fall_num, fall_den = [], 1, 1
    for i, d in enumerate(values):
        u, v = Fraction(d).as_integer_ratio()
        rhs.append(Fraction(u * fall_den, v * fall_num) if u else Fraction(0))
        fall_num, fall_den = fall_num * (sp - i * sq), fall_den * sq
    return t, rhs, {j: ([row[j] * b.numerator for row in inverse], den * b.denominator)
                    for j, b in enumerate(rhs) if b}


def merge_reference(columns: dict, r: float, size: int) -> tuple[list[int], int]:
    """Y_k = sum_j y_k^(j) r^-j over lcm_j (D v_j) p^J, r = p / q."""
    p, q = r.as_integer_ratio()
    top = max(columns, default=0)
    lcm = math.lcm(*(den for _, den in columns.values()))
    merged = [0] * size
    for j, (nums, den) in columns.items():
        factor = lcm // den * q**j * p ** (top - j)
        merged = [m + n * factor for m, n in zip(merged, nums)]
    return merged, lcm * p**top


def remainder_logs_reference(nodes: tuple[float, ...]) -> np.ndarray:
    """log10 |R_ij| (-inf where R_ij = 0) for the rows i = n .. 2n + 11 of
    x^i mod prod_k (x - 1/t_k), n = len(nodes), from the integer rows V_i
    over powers of the node polynomial's leading coefficient."""
    master = _node_polynomial(nodes)
    n, lead, log_lead = len(nodes), master[-1], math.log10(master[-1])
    row = [-c for c in master[:-1]]
    out = np.empty((n + 12, n))
    for e in range(out.shape[0]):
        out[e] = [math.log10(abs(v)) - (e + 1) * log_lead if v else -math.inf for v in row]
        top = row[-1]
        row = [lead * v - top * c for v, c in zip([0] + row[:-1], master)]
    return out


def defect_model_reference(values, nodes, s: float, eps: float, dropped: float = 0.0):
    """Checked nodes, exact_match_reference's columns and the deviation
    bound r -> (B_0, B_1, B_2), every (kept degree, row) term summed on
    every call and the tail's lead from one float per column entry."""
    t, rhs, columns = exact_match_reference(values, nodes, s)
    big_n = t.size - 1
    if big_n == 0 or not columns:
        raise DomainError(f"need matching order N >= 1 and a nonzero value, got N={big_n}")
    if not (eps > 0) or not math.isfinite(eps):
        raise DomainError(f"tolerance must be positive and finite, got {eps}")
    degrees = np.array(list(columns))
    log_rows = remainder_logs_reference(tuple(float(tk) for tk in t))[:, degrees].T
    powers = np.arange(big_n + 1, big_n + 1 + log_rows.shape[1])
    first = int(powers[-1]) + 1
    steps = np.arange(first)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log10(np.abs(s - steps) / (steps + 1)))))
    log_b = np.array([[math.log10(abs(rhs[j].numerator)) - math.log10(rhs[j].denominator)]
                      for j in columns])
    log_beta = log_binom[powers] + log_b + log_rows
    exponents = powers - degrees[:, None]
    orders = np.arange(3)
    falling = np.array([[math.perm(i, m) for i in powers] for m in orders], dtype=float)
    log_leads = np.array([float(log_binom[first]) + math.log10(sum(abs(n) / den for n in nums))
                          for nums, den in columns.values()])
    t_min = float(np.min(t))

    def bound(r: float) -> np.ndarray:
        q, log_r = r / t_min, math.log10(r)
        with np.errstate(over="ignore"):
            rows = falling @ np.sum(10.0 ** (log_beta + exponents * log_r), axis=0)
        leads = log_leads - degrees * log_r
        top = float(np.max(leads))
        log_lead = top + math.log10(float(np.sum(10.0 ** (leads - top))))
        tail = np.array([_omitted_bound(s, first, log_lead, q, 1.0, m) for m in range(3)])
        storage = 1e-32 * eps * np.array([1.0, q, 2.0 * q * q]) / (1.0 - q) ** (orders + 1)
        return (rows + tail + storage + dropped) * (1.0 + 1e-9) + 2.0**-1000

    return t, columns, bound
