"""Approximation pipeline: Chebyshev stage, block stage, full certificates."""

import functools
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workdps
from numpy.polynomial.chebyshev import chebder, chebval

import sharmonic as sh
from conftest import (cheb_fit_reference, conversion_reference, exact_match_reference,
                      merge_reference, monomial_fractions_reference, write_grid_csv)
from sharmonic.approximate import (_CERT_GRID, ChebPoly, Target, _grid_values,
                                   _matching_values, _screen_tables)
from sharmonic.blocks import _combo_eval_mp, _defect_model
from sharmonic.errors import ApproximationError, ConfigError, DomainError


@functools.lru_cache(maxsize=None)
def _approx(spec: str, eps: float, s: float = 0.5):
    return sh.approximate(sh.target_from_spec(spec), eps, s)


def _resampled_c2(target: Target, combo, n: int = 8191) -> float:
    xs = np.linspace(combo.interval[0], combo.interval[1], n)
    worst = 0.0
    for m in range(3):
        diff = target.derivative(m)(xs) - sh.combo_derivative(combo, xs, m)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


# ---------------------------------------------------------------------------
# Chebyshev stage


def test_cheb_fit_certificate_survives_finer_resampling():
    target = sh.target_from_spec("sin")
    poly = sh.cheb_fit(target, 0.01)
    xs = np.linspace(-1.0, 1.0, 8191)
    for m in range(3):
        worst = float(np.max(np.abs(target.derivative(m)(xs) - poly.eval(xs, m))))
        # the 1.05 inflation in the certificate must cover grid refinement
        assert worst <= poly.fit_error * 1.01
    assert poly.fit_error <= 0.01


def test_cheb_fit_exact_for_polynomial_target():
    poly = sh.cheb_fit(sh.target_from_spec("x2"), 0.5)
    assert poly.degree == 3  # degree floor
    assert poly.fit_error <= 1e-12


def test_cheb_fit_reports_degree_cap_failure():
    with pytest.raises(ApproximationError, match="degree <= 5"):
        sh.cheb_fit(sh.target_from_spec("exp"), 1e-8, degree_cap=5)


def test_cheb_fit_validation():
    target = sh.target_from_spec("sin")
    with pytest.raises(ConfigError):
        sh.cheb_fit(target, 0.0)
    with pytest.raises(ConfigError):
        sh.cheb_fit(target, np.inf)
    with pytest.raises(ConfigError):
        sh.cheb_fit(target, 0.01, degree_cap=40)
    # below the degree floor no degree would be tried at all
    for cap in (2, 0, -1):
        with pytest.raises(ConfigError, match="supported range 3..30"):
            sh.cheb_fit(target, 0.01, degree_cap=cap)


@pytest.mark.parametrize("cap", [10.5, 12.0, np.float64(12.0), True, "12", None])
def test_cheb_fit_refuses_a_degree_cap_that_is_not_an_int(cap):
    target = sh.target_from_spec("sin")
    with pytest.raises(ConfigError, match=re.escape(f"degree cap must be an int, got {cap!r}")):
        sh.cheb_fit(target, 1e-4, cap)
    with pytest.raises(ConfigError, match="degree cap must be an int"):
        sh.approximate(target, 1e-4, 0.5, degree_cap=cap)


def test_cheb_fit_takes_a_numpy_integer_degree_cap():
    target = sh.target_from_spec("sin")
    want = sh.cheb_fit(target, 1e-4, 12)
    got = sh.cheb_fit(target, 1e-4, np.int64(12))
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.fit_error == want.fit_error


@pytest.mark.parametrize("order", [-1, 1.0, True])
def test_cheb_poly_eval_refuses_an_order_that_is_not_a_count(order):
    poly = ChebPoly(np.array([0.0, 1.0, 0.0, 0.5]), 0.0)
    with pytest.raises(DomainError, match=re.escape(f"got {order!r}")):
        poly.eval(np.array([0.25]), order)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 30).flatmap(lambda d: st.lists(st.floats(-1e3, 1e3), min_size=d + 1,
                                                     max_size=d + 1)), st.integers(0, 6))
def test_cheb_poly_eval_agrees_with_numpy_at_any_order_and_shape(coef, order):
    # the package's own tables against numpy's chebder + chebval; both lie
    # within a few n^3 u W of the exact value, W = sum_k |c_k| T_k^(order)(1)
    coef, n = np.array(coef), len(coef)
    poly = ChebPoly(coef, 0.0)
    peaks = [math.prod((k * k - l * l) / (2 * l + 1) for l in range(order)) for k in range(n)]
    term = 64 * n**3 * 2.0**-53 * float(np.abs(coef) @ np.array(peaks))
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    got = poly.eval(x, order)
    assert got.shape == x.shape
    assert float(np.max(np.abs(got - chebval(x, chebder(coef, order))))) <= term
    assert poly.eval(0.25, order) == poly.eval(np.array([0.25]), order)[0]
    assert np.ndim(poly.eval(0.25, order)) == 0


def _integer_chebyshev_monomials(size: int) -> list[list[int]]:
    """x^j coefficients of T_0 .. T_(size-1), by T_(k+1) = 2 x T_k - T_(k-1)."""
    rows = [[1], [0, 1]]
    while len(rows) < size:
        rows.append([2 * a - b for a, b in zip([0] + rows[-1], rows[-2] + [0, 0])])
    return [row + [0] * (size - len(row)) for row in rows]


def _differentiated(row: list[int], m: int) -> list[int]:
    return [v * math.perm(j, m) for j, v in enumerate(row)][m:] + [0] * m


def test_derivative_matrices_are_the_exact_chebyshev_coefficients():
    # column k of D_m holds T_k^(m) in the Chebyshev basis: summing the
    # columns' T_j in monomials gives T_k^(m)'s monomials exactly
    peaks, derivs = _screen_tables()[5:]
    size = derivs.shape[1]
    mono = _integer_chebyshev_monomials(size)
    for m, d in enumerate(derivs):
        assert np.array_equal(d, np.round(d)) and np.all(d >= 0)
        for k in range(size):
            column = [int(v) for v in d[:, k]]
            got = [sum(c * mono[j][i] for j, c in enumerate(column)) for i in range(size)]
            assert got == _differentiated(mono[k], m), (m, k)
    # T_j(1) = 1, so a column sum is T_k^(m)(1) = prod_{l<m} (k^2 - l^2) /
    # (2 l + 1), the screen's peak
    k2 = np.arange(size, dtype=float) ** 2
    assert np.array_equal(derivs.sum(axis=1), peaks)
    assert np.array_equal(peaks, [np.ones(size), k2, k2 * (k2 - 1.0) / 3.0])


def _exact_chebyshev_derivatives(x: Fraction, size: int) -> list[list[Fraction]]:
    """T_k^(m)(x) for m = 0, 1, 2 and k < size, from T_k = 2 x T_(k-1) -
    T_(k-2) differentiated: T_k^(m) = 2 m T_(k-1)^(m-1) + 2 x T_(k-1)^(m) -
    T_(k-2)^(m)."""
    out = [[Fraction(1), x], [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    for k in range(2, size):
        for m in (2, 1, 0):
            lower = 2 * m * out[m - 1][k - 1] if m else 0
            out[m].append(lower + 2 * x * out[m][k - 1] - out[m][k - 2])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30).flatmap(lambda d: st.lists(
    st.floats(-1e6, 1e6).map(lambda v: math.ldexp(v, -40) if abs(v) < 1 else v),
    min_size=d + 1, max_size=d + 1)),
    st.lists(st.integers(0, _CERT_GRID - 1), min_size=1, max_size=6))
def test_certificate_product_within_its_derived_term(coef, picked):
    # _screen derives the product's value within 2 n^2 u W_m of the exact
    # one.  numpy's chebder + chebval, the independent oracle here, are within
    # 12 n^3 u W_m: the Clenshaw sums are at most n W_m, each of its n steps
    # rounds by 3 u (|d_j| + 3 n W_m) and reaches the value through a U_j, at
    # most n.  So per order the two values, and the deviations from any
    # samples, agree within 14 n^3 u W_m, below the screen's margin 2^-49 n^3
    # W_m.
    coef = np.array(coef)
    n, u = coef.size, 2.0**-53
    peaks = _screen_tables()[5][:, :n]
    weights = np.abs(coef) @ peaks.T
    grid = np.linspace(-1.0, 1.0, _CERT_GRID)
    values = _grid_values(coef)
    samples = np.sin(grid)
    for m in range(3):
        plain = chebval(grid, chebder(coef, m))
        term = 14 * n**3 * u * weights[m]
        assert float(np.max(np.abs(values[m] - plain))) <= term
        deviation = float(np.max(np.abs(samples - values[m])))
        assert abs(deviation - float(np.max(np.abs(samples - plain)))) <= term
    exact_weights = [sum(abs(Fraction(c)) * int(w) for c, w in zip(coef, row)) for row in peaks]
    for i in sorted(set(picked)) + [0, _CERT_GRID - 1]:
        exact = _exact_chebyshev_derivatives(Fraction(grid[i]), n)
        for m in range(3):
            want = sum(Fraction(c) * t for c, t in zip(coef, exact[m]))
            assert abs(Fraction(values[m, i]) - want) <= 2 * n**2 * Fraction(u) * exact_weights[m]


@pytest.mark.parametrize("order", [1, 2])
def test_cheb_fit_refuses_a_nonfinite_derivative(order):
    # max() over the orders would skip the NaN and certify the others alone
    derivs = [np.sin, np.cos, lambda z: -np.sin(z)]
    derivs[order] = lambda z: np.full_like(np.asarray(z, dtype=float), np.nan)
    target = Target(f"nan{order}", *derivs)
    with pytest.raises(DomainError, match=rf"'nan{order}'.*order {order}"):
        sh.cheb_fit(target, 1e-6)


def _off_grid(f, g):
    """f on the certification grid, g anywhere else."""
    return lambda z: f(z) if np.size(z) == _CERT_GRID else g(np.asarray(z, dtype=float))


@pytest.mark.parametrize("order, bad", [
    pytest.param(0, lambda z: 1.0, id="f-scalar"),
    pytest.param(0, lambda z: np.sin(z)[:1], id="f-one-value"),
    pytest.param(0, _off_grid(np.sin, lambda z: np.sin(z)[:1]), id="f-one-value-off-grid"),
    pytest.param(1, lambda z: 0.5, id="f1-scalar"),
    pytest.param(2, lambda z: np.zeros((np.size(z), 1)), id="f2-column"),
])
def test_cheb_fit_refuses_a_target_without_one_value_per_abscissa(order, bad):
    derivs = [np.sin, np.cos, lambda z: -np.sin(z)]
    derivs[order] = bad
    with pytest.raises(DomainError, match=rf"'shaped'.*order {order}.*one value per abscissa"):
        sh.cheb_fit(Target("shaped", *derivs), 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_cheb_fit_refuses_a_nonfinite_node_value(bad):
    # the node values are checked as the grid's are, before any product
    f = _off_grid(np.sin, lambda z: np.full_like(z, bad))
    with pytest.raises(DomainError, match=r"'bad-nodes'.*order 0 is not finite at x="):
        sh.cheb_fit(Target("bad-nodes", f, np.cos, lambda z: -np.sin(z)), 1e-6)


class _CountingSamples:
    """A target callable that counts its calls on the certification grid."""

    def __init__(self, f):
        self.f, self.grid_calls, self.other_calls = f, 0, 0

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if np.array_equal(z, np.linspace(-1.0, 1.0, _CERT_GRID)):
            self.grid_calls += 1
        else:
            self.other_calls += 1
        return self.f(z)


def test_cheb_fit_samples_the_grid_once():
    f, f1, f2 = (_CountingSamples(g) for g in (np.sin, np.cos, lambda z: -np.sin(z)))
    poly = sh.cheb_fit(Target("counted", f, f1, f2), 1e-6)
    assert poly.degree > 3  # several degrees were tried
    assert (f.grid_calls, f1.grid_calls, f2.grid_calls) == (1, 1, 1)
    # f is also sampled once, on the union of every degree's Chebyshev nodes;
    # its derivatives never
    assert f.other_calls == 1
    assert f1.other_calls == f2.other_calls == 0


def _sines_and_exponentials(terms) -> Target:
    """sum of a sin(w x + p) and b exp(c x) terms, with exact derivatives."""
    def deriv(order):
        def f(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            for kind, amp, rate, phase in terms:
                if kind == "sin":
                    out = out + amp * rate**order * np.sin(
                        rate * z + phase + 0.5 * math.pi * order)
                else:
                    out = out + amp * rate**order * np.exp(rate * z)
            return out
        return f
    return Target("sum", deriv(0), deriv(1), deriv(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["sin", "exp"]),
                          st.floats(-2.0, 2.0).filter(lambda a: abs(a) >= 0.1),
                          st.floats(-6.0, 6.0).filter(lambda w: abs(w) >= 0.25),
                          st.floats(0.0, 2.0 * math.pi)),
                min_size=1, max_size=4),
       st.floats(-11.0, -2.0), st.integers(3, 30))
# sin at eps 1e-10: its certificate is not monotone in the degree
@example([("sin", 1.0, 1.0, 0.0)], math.log10(5e-11), 30)
def test_screened_cheb_fit_matches_the_plain_loop(terms, log_eps, cap):
    target, eps_half = _sines_and_exponentials(terms), 10.0**log_eps
    outcomes = []
    for fit in (sh.cheb_fit, cheb_fit_reference):
        try:
            outcomes.append(fit(target, eps_half, cap))
        except ApproximationError as exc:
            outcomes.append(str(exc))
    screened, plain = outcomes
    if isinstance(plain, str):
        assert screened == plain
    else:
        assert np.array_equal(screened.coefficients, plain.coefficients)
        assert screened.fit_error == plain.fit_error


def test_monomial_conversion_is_exact():
    # (3/4) T_1 + (1/4) T_3 = x^3 exactly, over the inputs' denominator 4
    poly = ChebPoly(np.array([0.0, 0.75, 0.0, 0.25]), 0.0)
    assert poly.monomial_numerators() == ([0, 0, 0, 4], 4)


def _monomial_fractions_per_term(coef) -> list[Fraction]:
    """The Chebyshev-to-monomial conversion with one Fraction multiply-add
    per term, T_(k+1) = 2 x T_k - T_(k-1) in integer rows."""
    rows = [[1], [0, 1]]
    while len(rows) < len(coef):
        nxt = [0] + [2 * v for v in rows[-1]]
        for i, v in enumerate(rows[-2]):
            nxt[i] -= v
        rows.append(nxt)
    out = [Fraction(0)] * len(coef)
    for k, a in enumerate(coef):
        for j, tv in enumerate(rows[k]):
            if tv:
                out[j] += Fraction(float(a)) * tv
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 30).flatmap(lambda d: st.lists(
    st.floats(-1e6, 1e6).map(lambda v: math.ldexp(v, -40) if abs(v) < 1 else v),
    min_size=d + 1, max_size=d + 1)))
def test_monomial_conversion_equals_the_per_term_sum(coef):
    # integer numerators over one power-of-two denominator, values from
    # tiny (scaled by 2^-40) to large, zeros of either sign included
    nums, den = ChebPoly(np.array(coef), 0.0).monomial_numerators()
    assert [Fraction(n, den) for n in nums] == _monomial_fractions_per_term(coef)
    assert all(type(n) is int for n in nums) and den & (den - 1) == 0


def test_monomial_conversion_matches_numpy_on_generic_coefficients():
    coef = np.array([0.3, -1.1, 0.25, 0.7, -0.02])
    poly = ChebPoly(coef, 0.0)
    nums, den = poly.monomial_numerators()
    ref = np.polynomial.chebyshev.cheb2poly(coef)
    assert np.allclose([n / den for n in nums], ref, rtol=1e-14, atol=1e-16)
    assert all(isinstance(n, int) for n in nums + [den])


_CHEB_COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-1e6, 1e6),
    st.floats(-2.0**-1022, 2.0**-1022),  # subnormals
    st.floats(1e-305, 1e-295).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(1e295, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1.0, 1.0).map(lambda v: math.ldexp(v, -40)))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 30).flatmap(lambda d: st.lists(_CHEB_COEFFICIENTS, min_size=d + 1,
                                                     max_size=d + 1)),
       st.floats(0.02, 0.98), st.sampled_from([1.0, 0.125, 0.0123, 3.5e-40, 2.0**-1000]))
def test_integer_conversion_equals_the_fraction_path(coef, s, r):
    # the rationals, kept degrees and dropped weight of build_sharmonic's
    # conversion, the right-hand sides and the merge at a scale, against
    # the Fraction path of tests/conftest.py
    poly = ChebPoly(np.array(coef), 0.0)
    try:
        mono, kept, dropped = conversion_reference(poly)
    except OverflowError:
        # a monomial past float64: the Fraction path fails in float()
        with pytest.raises(DomainError, match="exceeds float64"):
            _matching_values(poly)
        return
    values, den, got_kept, got_dropped = _matching_values(poly)
    assert got_kept == kept and got_dropped == dropped
    want = [mono[j] * math.factorial(j) if j in kept else 0 for j in range(len(mono))]
    assert [Fraction(v, den) for v in values] == want
    if not kept:
        return
    nodes = sh.default_nodes(poly.degree)
    t, rhs, v = sh.blocks._exact_match(values, nodes, s, den)
    _, want_rhs, columns = exact_match_reference(want, nodes, s)
    assert [Fraction(u, v) for u in rhs] == want_rhs
    nums, den = sh.blocks._merge(t, rhs, v, r)
    want_nums, want_den = merge_reference(columns, r, len(t))
    assert all(n * want_den == w * den for n, w in zip(nums, want_nums))


def test_cheb_poly_validation():
    with pytest.raises(DomainError):
        ChebPoly(np.array([1.0, 2.0]), 0.0)  # below degree floor
    with pytest.raises(DomainError):
        ChebPoly(np.zeros(32), 0.0)  # beyond cap
    with pytest.raises(DomainError):
        ChebPoly(np.array([1.0, np.nan, 0.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# block stage


def test_default_nodes_are_short_dyadics_spanning_two_to_three():
    assert sh.default_nodes(0).tolist() == [2.0]
    for order in range(1, 65):
        nodes = sh.default_nodes(order)
        assert len(nodes) == order + 1 and nodes[0] == 2.0 and nodes[-1] == 3.0
        assert np.all(np.diff(nodes) > 0)
        assert all(float(t * 64).is_integer() for t in nodes)
    for order in (1, 2, 4, 8, 16, 32, 64):
        # a power-of-two order keeps the nodes 2 + k/J bit for bit
        assert np.array_equal(sh.default_nodes(order), 2.0 + np.arange(order + 1) / order)


def test_default_nodes_keep_the_node_polynomial_short():
    # the 53-bit nodes 2 + k/30 give 1458 bits, so long nodes fail here
    poly = sh.blocks._node_polynomial(tuple(float(t) for t in sh.default_nodes(30)))
    assert max(abs(c) for c in poly).bit_length() <= 207


@pytest.mark.parametrize("order", [-1, -3, 65, 100, 2.5, 3.0, True, "3", None])
def test_default_nodes_refuse_orders_outside_zero_to_sixty_four(order):
    with pytest.raises(DomainError, match=r"int in 0\.\.64"):
        sh.default_nodes(order)


def _group_deviation_mp(group, dj: float, j: int, xs, order: int) -> float:
    """sup over xs of |d^order/dx^order (group - dj x^j / j!)|, summed over
    the blocks in mpmath with digits past the coefficient mass."""
    s = group.s
    mass = mpmath.fsum(abs(b.c) for b in group.blocks) * 4
    with workdps(50 + int(mpmath.log10(mass)) + int(-math.log10(group.blocks[0].r))):
        sm = mpf(s)
        cj = mpf(dj) / math.factorial(j)
        fall = mpmath.ff(sm, order)
        worst = mpf(0)
        for x in xs:
            xm = mpf(float(x))
            acc = sum(b.c * mpf(b.r) ** order * fall * (mpf(b.r) * xm + mpf(b.t)) ** (sm - order)
                      for b in group.blocks)
            if j >= order:
                acc -= cj * mpmath.ff(j, order) * xm ** (j - order)
            worst = max(worst, abs(acc))
        return float(worst)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(1, 8), st.data(), st.floats(1e-8, 0.1),
       st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3))
def test_defect_certificate_bounds_sampled_deviation(s, big_n, data, eps, cj):
    # no stored series checks the bound: the deviation is summed from the
    # stored blocks themselves
    j = data.draw(st.integers(0, big_n))
    values = [cj * math.factorial(j) if i == j else 0.0 for i in range(big_n + 1)]
    nodes = sh.default_nodes(big_n)
    group, bound = sh.match_polynomial(values, nodes, s, eps)
    assert np.array_equal(bound, _defect_model(values, nodes, s, eps)[2](group.blocks[0].r))
    assert np.max(bound) <= eps
    xs = np.linspace(-1.0, 1.0, 201)
    for order in range(3):
        assert _group_deviation_mp(group, values[j], j, xs, order) <= bound[order]


def test_dropped_monomial_is_charged_to_the_certificate():
    # 1 + x^2/2 + 1e-14 x^3: the cubic falls below the 1e-13 cut and is
    # left unmatched, so only the certificate can account for it
    coef = np.polynomial.chebyshev.poly2cheb([1.0, 0.0, 0.5, 1e-14])
    poly = ChebPoly(coef, 0.0)
    mono = monomial_fractions_reference(poly)
    combo, info = sh.build_sharmonic(poly, 0.5, 1e-3)
    assert [j for j, _ in info.scales] == [0, 2]
    assert info.defect_error <= 1e-3
    xs = np.linspace(-1.0, 1.0, 201)
    with workdps(60):
        worst = 0.0
        for order in range(3):
            for x in xs:
                xm = mpf(float(x))
                exact = sum(mpf(c.numerator) / c.denominator * mpmath.ff(j, order)
                            * xm ** (j - order) for j, c in enumerate(mono) if j >= order)
                got = sum(b.c * mpf(b.r) ** order * mpmath.ff(mpf(combo.s), order)
                          * (mpf(b.r) * xm + mpf(b.t)) ** (mpf(combo.s) - order)
                          for b in combo.blocks)
                worst = max(worst, float(abs(got - exact)))
    assert worst <= info.defect_error
    # a polynomial whose every monomial is cut: its weight is all that is left
    combo, info = sh.build_sharmonic(ChebPoly(np.array([0.0, 0.0, 0.0, 2e-14]), 0.0), 0.5, 1e-3)
    assert combo.blocks == ()
    # 2e-14 T_3 = 8e-14 x^3 - 6e-14 x weighs 3 * 2 * 8e-14 at order 2
    assert info.defect_error >= 4.8e-13


@pytest.mark.parametrize("eps_half", [0.0, -1e-3, math.inf, math.nan])
def test_build_refuses_a_tolerance_that_is_not_positive_and_finite(eps_half):
    poly = ChebPoly(np.array([0.0, 0.0, 1.0, 0.0]), 0.0)
    with pytest.raises(ConfigError, match="tolerance must be positive and finite"):
        sh.build_sharmonic(poly, 0.5, eps_half)


def test_three_samples_check_a_second_derivative_against_their_central_difference():
    # three samples have no one-sided end formula: each end takes the middle one
    values = [1.0, 0.0, 1.0]  # x^2 at -1, 0, 1
    target = Target.from_samples(-1.0, 1.0, values, deriv2=[2.0, 2.0, 2.0])
    assert target.f2(np.array([-1.0, 0.0, 1.0])).tolist() == [2.0, 2.0, 2.0]
    with pytest.raises(ConfigError, match="deriv2 column disagrees"):
        Target.from_samples(-1.0, 1.0, values, deriv2=[2.0, 2.0, 2.1])


def test_build_refuses_unmatched_monomials_heavier_than_the_budget():
    # x lies below 1e-13 of the constant 1e10, so it is left unmatched, and
    # its C^2 weight 1e-4 exceeds the block budget
    poly = ChebPoly(np.array([1e10, 1e-4, 0.0, 0.0]), 0.0)
    with pytest.raises(ApproximationError,
                       match=r"unmatched monomials weigh 1\.000e-04 .* budget 1\.000e-05"):
        sh.build_sharmonic(poly, 0.5, 1e-5)


def _sweep_target(seed: int) -> Target:
    """A sum of three sines and an exponential, drawn like the library-sweep
    targets of the benchmark, with analytic derivatives."""
    rng = random.Random(seed)
    terms = [(rng.uniform(0.3, 1.0), w, rng.uniform(0.0, 2.0 * math.pi)) for w in (0.5, 1.0, 1.5)]
    b, c = rng.uniform(0.2, 0.5), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)

    def deriv(order):
        def f(z):
            z = np.asarray(z, dtype=float)
            out = b * c**order * np.exp(c * z)
            for a, w, p in terms:
                out = out + a * w**order * np.sin(w * z + p + 0.5 * math.pi * order)
            return out
        return f

    return Target(f"sweep-{seed}", deriv(0), deriv(1), deriv(2))


def _merged_weights(mono: list[Fraction], kept: list[int], nodes, s: float, r: float):
    """Y_k = sum_j y_k^(j) r^-j from one exact solve per kept monomial."""
    weights = [Fraction(0)] * len(nodes)
    for j in kept:
        values = [mono[j] * math.factorial(j) if i == j else 0 for i in range(len(nodes))]
        _, _, columns = exact_match_reference(values, nodes, s)
        nums, den = columns[j]
        weights = [w + Fraction(n, den) / Fraction(r) ** j for w, n in zip(weights, nums)]
    return weights


def _over_one_denominator(weights: list[Fraction]) -> tuple[list[int], int]:
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _storage_digits(weights: list[Fraction], eps_half: float) -> int:
    # 25 + int(log10((1 + sum_k |Y_k|) / eps_half) + 8), as match_polynomial states
    mass = 1 + sum(abs(w) for w in weights)
    return 25 + int(math.log10(mass.numerator) - math.log10(mass.denominator)
                    - math.log10(eps_half) + 8)


@settings(max_examples=12, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-5, 1e-8]))
def test_pipeline_matches_every_monomial_at_one_scale(s, seed, eps):
    target = _sweep_target(seed)
    combo, report = sh.approximate(target, eps, s)
    assert report.epsilon_total <= eps
    poly = sh.cheb_fit(target, 0.5 * eps)
    built, info = sh.build_sharmonic(poly, s, 0.5 * eps)
    assert sh.combo_to_json(built) == sh.combo_to_json(combo)
    assert info.defect_error == report.epsilon_defect
    # one scale, one group of N + 1 blocks
    (r,) = {r for _, r in report.scales}
    assert len(combo.groups) == 1 and report.n_blocks == report.matching_order + 1
    assert all(b.r == r for b in combo.blocks)
    # the stored coefficients round the exact merged weights: the sum of
    # the per-monomial solves equals one solve of the values scaled by r^-j
    mono, kept = monomial_fractions_reference(poly), [j for j, _ in report.scales]
    nodes = sh.default_nodes(report.matching_order)
    weights = _merged_weights(mono, kept, nodes, s, r)
    scaled = [mono[i] * math.factorial(i) / Fraction(r) ** i if i in kept else 0
              for i in range(len(nodes))]
    _, _, columns = exact_match_reference(scaled, nodes, s)
    assert weights == [sum((Fraction(nums[k], den) for nums, den in columns.values()), Fraction(0))
                       for k in range(len(nodes))]
    # and so is the merge over one denominator of the unscaled right-hand
    # sides, from the pipeline's own integer values
    values, den, _, _ = _matching_values(poly)
    merged, den = sh.blocks._merge(*sh.blocks._exact_match(values, nodes, s, den), r)
    assert [Fraction(n, den) for n in merged] == weights
    dps = _storage_digits(weights, 0.5 * eps)
    assert [b.c for b in combo.blocks] == sh.blocks._block_coefficients(
        *_over_one_denominator(weights), nodes, s, dps)
    # the combination stays within its certificate of the kept polynomial
    xs = np.linspace(-1.0, 1.0, 2001)
    coefs = np.array([float(mono[j]) if j in kept else 0.0 for j in range(len(mono))])
    for order in range(3):
        want = np.polynomial.polynomial.polyval(
            xs, np.polynomial.polynomial.polyder(coefs, order) if order else coefs)
        got = sh.combo_derivative(combo, xs, order)
        # past the proved deviation, only the float64 rounding of both sides
        assert np.all(np.abs(got - want) <= info.defect_error + 1e-13 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("spec,eps", [("x2", 1.0 / 16.0), ("sin", 1e-6), ("exp", 1e-8)])
def test_merged_coefficients_keep_the_storage_allowance(spec, eps, s):
    # each stored a_k = Y_k t_k^-s is within a relative delta of its value at
    # twice the digits, and delta sum_k |Y_k| <= 1e-32 eps_half
    combo, report = _approx(spec, eps, s)
    poly = sh.cheb_fit(sh.target_from_spec(spec), 0.5 * eps)
    nodes = sh.default_nodes(report.matching_order)
    weights = _merged_weights(monomial_fractions_reference(poly), [j for j, _ in report.scales],
                              nodes, s, combo.blocks[0].r)
    dps = _storage_digits(weights, 0.5 * eps)
    with workdps(2 * dps):
        delta = max(abs(b.c / (mpf(w.numerator) / w.denominator * mpf(b.t) ** -mpf(s)) - 1)
                    for b, w in zip(combo.blocks, weights))
        assert delta * sum(abs(w) for w in weights) <= 1e-32 * 0.5 * eps


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("spec,eps", [("x2", 1.0 / 16.0), ("sin", 1e-6), ("exp", 1e-8),
                                      ("const:1", 1e-6)])
def test_loaded_pipeline_combo_matches_memory(spec, eps, s):
    combo, report = _approx(spec, eps, s)
    if spec == "exp":
        # its 13 monomials share one scale, one group and one derived series
        assert len(combo.groups) < len(report.scales)
    back = sh.combo_from_json(sh.combo_to_json(combo))
    xs = np.linspace(-1.0, 1.0, 101)
    # at orders 3 and 4 the per-point sum, taken before the patch, is the reference
    per_point = {order: _combo_eval_mp(combo, xs, order) for order in (3, 4)}
    with mock.patch.object(sh.blocks, "_combo_eval_mp",
                           side_effect=AssertionError("per-point path on [-1, 1]")):
        for order in range(5):
            want = sh.combo_derivative(combo, xs, order)
            got = sh.combo_derivative(back, xs, order)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
            if order in per_point:
                ref = per_point[order]
                assert np.all(np.abs(want - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("spec,eps", [("x2", 1.0 / 16.0), ("sin", 1e-6), ("exp", 1e-8)])
def test_max_residual_bounds_the_whole_interval(spec, eps, s):
    # one evaluation at the left end certifies every point of [-1, 1]
    combo, report = _approx(spec, eps, s)
    xs = np.linspace(-1.0, 1.0, 2001)
    assert report.max_residual >= np.max(sh.combo_residual(combo, xs))


# ---------------------------------------------------------------------------
# full pipeline


def test_quadratic_target_certificates():
    combo, report = _approx("x2", 1.0 / 16.0)
    assert report.epsilon_total <= 1.0 / 16.0
    assert report.epsilon_total == report.epsilon_poly + report.epsilon_defect
    assert _resampled_c2(sh.target_from_spec("x2"), combo) <= report.epsilon_total * 1.01
    assert report.max_residual <= 1e-3
    assert report.n_blocks == len(combo.blocks) > 0


@pytest.mark.parametrize("spec", ["sin", "exp", "const:2"])
def test_standard_targets_within_budget(spec):
    combo, report = _approx(spec, 0.1)
    assert report.epsilon_total <= 0.1
    assert _resampled_c2(sh.target_from_spec(spec), combo) <= report.epsilon_total * 1.01
    assert np.isfinite(report.max_residual)


def test_zero_target_yields_empty_combination():
    combo, report = _approx("const:0", 0.05)
    assert combo.blocks == ()
    assert report.n_blocks == 0
    assert report.max_residual == 0.0
    assert report.epsilon_total <= 0.05
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.all(sh.combo_eval(combo, xs) == 0.0)


def test_tighter_budget_tightens_certificate():
    _, loose = _approx("sin", 0.1)
    _, tight = _approx("sin", 0.05)
    assert tight.epsilon_total <= 0.05
    assert loose.epsilon_total <= 0.1
    assert tight.epsilon_total <= loose.epsilon_total


def test_pipeline_results_add_linearly():
    c1, _ = _approx("x2", 0.1)
    c2, _ = _approx("sin", 0.1)
    both = sh.SHCombo(c1.s, c1.blocks + c2.blocks)
    xs = np.linspace(-0.9, 0.9, 11)
    want = sh.combo_eval(c1, xs) + sh.combo_eval(c2, xs)
    got = sh.combo_eval(both, xs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_report_dict_is_deterministic_and_complete():
    _, report = _approx("x2", 1.0 / 16.0)
    d = report.to_dict()
    assert "elapsed_seconds" not in d
    assert d["epsilon_total"] == d["epsilon_poly"] + d["epsilon_defect"]
    assert all(isinstance(k, str) for k in d["scales"])
    assert d["residual_method"]
    assert report.elapsed_seconds >= 0.0


def test_readme_library_example_values():
    # the README's Python block runs as written, and each "here ~value"
    # comment matches what its line evaluates to
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    claims = re.findall(r"^(\S[^#\n]*?)\s*#[^\n]*here ~(\S+)$", block, re.M)
    assert len(claims) == 2
    for expr, value in claims:
        assert eval(expr, namespace) == pytest.approx(float(value), rel=0.05), expr


def test_approximate_validation():
    target = sh.target_from_spec("sin")
    with pytest.raises(ConfigError):
        sh.approximate(target, 0.0, 0.5)
    with pytest.raises(ConfigError):
        sh.approximate(target, -1.0, 0.5)
    with pytest.raises(DomainError):
        sh.approximate(target, 0.1, 1.5)


# ---------------------------------------------------------------------------
# target parsing


def test_target_from_spec_parses_all_forms(tmp_path):
    assert sh.target_from_spec("x2").name == "x2"
    assert sh.target_from_spec("sin").name == "sin"
    assert sh.target_from_spec("exp").name == "exp"
    t = sh.target_from_spec("const:-1.5")
    assert float(t.f(np.array([0.3]))[0]) == -1.5
    assert float(t.f2(np.array([0.3]))[0]) == 0.0

    xs = np.linspace(-1.0, 1.0, 201)
    path = tmp_path / "target.csv"
    write_grid_csv(path, -1.0, 1.0, np.sin(xs))
    t = sh.target_from_spec(f"csv:{path}")
    assert t.name == f"csv:{path}"
    assert float(t.f(np.array([0.25]))[0]) == pytest.approx(np.sin(0.25), abs=1e-4)
    # every column is read back bit for bit at the nodes
    columns = (np.sin(xs), np.cos(xs), -np.sin(xs))
    write_grid_csv(path, -1.0, 1.0, *columns)
    t = sh.target_from_spec(f"csv:{path}")
    for m, col in enumerate(columns):
        assert np.array_equal(t.derivative(m)(xs), col)


def test_target_from_spec_errors():
    with pytest.raises(ConfigError):
        sh.target_from_spec("cubic")
    with pytest.raises(ConfigError):
        sh.target_from_spec("const:abc")
    with pytest.raises(ConfigError):
        sh.target_from_spec("const:inf")
    with pytest.raises(ConfigError, match="no/such/file"):
        sh.target_from_spec("csv:no/such/file.csv")


def test_target_from_grid_checks_derivative_consistency():
    xs = np.linspace(-1.0, 1.0, 401)
    target = Target.from_samples(-1.0, 1.0, np.sin(xs), np.cos(xs))
    assert float(target.f1(np.array([0.3]))[0]) == pytest.approx(np.cos(0.3), abs=1e-3)
    with pytest.raises(ConfigError, match="deriv1"):
        Target.from_samples(-1.0, 1.0, np.sin(xs), 5.0 * np.cos(xs))
    # deriv2 is checked against the divided differences of the deriv1 in
    # use, supplied or not
    Target.from_samples(-1.0, 1.0, np.sin(xs), np.cos(xs), -np.sin(xs))
    with pytest.raises(ConfigError, match="grid deriv2 column disagrees"):
        Target.from_samples(-1.0, 1.0, np.sin(xs), np.cos(xs), -5.0 * np.sin(xs))
    with pytest.raises(ConfigError, match="grid deriv2 column disagrees"):
        Target.from_samples(-1.0, 1.0, np.sin(xs), deriv2=np.cos(xs))


@pytest.mark.parametrize("n", [101, 401])
def test_exact_deriv2_without_deriv1_is_accepted(n):
    # checked against the O(h^2) second difference of the values, not a
    # gradient of the differenced deriv1 (O(h) at the ends: 2.0e-3 at 401)
    xs = np.linspace(-1.0, 1.0, n)
    target = Target.from_samples(-1.0, 1.0, np.sin(xs), deriv2=-np.sin(xs))
    assert np.array_equal(target.f2(xs), -np.sin(xs))
    with pytest.raises(ConfigError, match="divided differences of the values"):
        Target.from_samples(-1.0, 1.0, np.sin(xs), deriv2=-5.0 * np.sin(xs))


def _second_difference(values, h):
    """Second difference of uniform samples: central inside, (2 f0 - 5 f1 +
    4 f2 - f3) / h^2 at the ends, central at the ends of three samples."""
    inner = np.diff(values, 2) / h**2
    ends = inner[[0, -1]] if values.size == 3 else (
        2 * values[[0, -1]] - 5 * values[[1, -2]] + 4 * values[[2, -3]]
        - values[[3, -4]]) / h**2
    return np.concatenate([ends[:1], inner, ends[1:]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_from_samples_interpolates_the_columns_in_use(data):
    n = data.draw(st.integers(3, 40))
    a = data.draw(st.floats(-10.0, 10.0))
    b = a + data.draw(st.floats(1e-3, 20.0))
    xs = np.linspace(a, b, n)
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    values = 1e3 * data.draw(unit)
    supplied = data.draw(st.sampled_from([(), ("deriv1",), ("deriv2",), ("deriv1", "deriv2")]))
    # a supplied column is the divided differences of the column below it,
    # moved by at most 1e-4 (1 + max|differences|): inside the 1e-3 rule
    cols, given_cols = [values], {}
    for label in ("deriv1", "deriv2"):
        fd = np.gradient(cols[-1], xs, edge_order=2)
        if label in supplied:
            if supplied == ("deriv2",):
                # without deriv1, deriv2 is checked against the values
                fd = _second_difference(values, (b - a) / (n - 1))
            fd = fd + 1e-4 * (1.0 + np.max(np.abs(fd))) * data.draw(unit)
            given_cols[label] = fd
        cols.append(fd)
    target = Target.from_samples(a, b, values, **given_cols)
    z = np.array(data.draw(st.lists(st.floats(a - (b - a), b + (b - a)), max_size=20)))
    for m, col in enumerate(cols):
        f = target.derivative(m)
        assert np.array_equal(f(xs), col)
        assert np.array_equal(f(z), np.interp(z, xs, col))
