"""Blocks: closed-form derivatives, derivative matching, serialization."""

from __future__ import annotations

import functools
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workdps
from mpmath.libmp import dps_to_prec, from_rational, round_nearest
from mpmath.libmp.libmpf import str_to_man_exp

import sharmonic as sh
from sharmonic import _kernels, blocks
from sharmonic._dyadic import MAGNITUDE_BITS, Dyadic, rounded_pow, rounded_ratio, to_str
from sharmonic.blocks import _combo_eval_mp, _defect_model
from sharmonic.errors import DomainError

from conftest import (block_derivative_at_zero, combo_derivative_reference,
                      defect_model_reference, exact_match_reference, falling_factorial,
                      richardson_derivative)


# ---------------------------------------------------------------------------
# closed-form derivatives of (x + t)_+^s at the origin


def test_block_derivative_hand_value():
    # s (s - 1) t^(s-2) at t=2, s=0.5: 0.5 * (-0.5) * 2^(-1.5)
    got = block_derivative_at_zero(2.0, 2, 0.5)
    assert got == pytest.approx(-0.08838834764831845, rel=1e-14)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_block_derivative_matches_finite_differences(s, t, j):
    f = lambda z: (z + t) ** s
    # step grows with the order: deep extrapolation levels divide h by 16,
    # and roundoff scales like eps / h^j
    want = richardson_derivative(f, 0.0, j, h=(0.02 + 0.03 * j) * t)
    got = block_derivative_at_zero(t, j, s)
    assert got == pytest.approx(want, rel=1e-5)
    if j >= 1:
        # non-integrality of s keeps every derivative alive
        assert got != 0.0


def test_block_derivative_validation():
    with pytest.raises(DomainError):
        block_derivative_at_zero(0.0, 1, 0.5)
    with pytest.raises(DomainError):
        block_derivative_at_zero(-1.0, 1, 0.5)
    with pytest.raises(DomainError):
        block_derivative_at_zero(2.0, -1, 0.5)


def test_falling_factorial():
    s = 0.4
    assert falling_factorial(s, 0) == 1.0
    assert falling_factorial(s, 3) == pytest.approx(
        s * (s - 1) * (s - 2), rel=1e-15)


def test_block_dead_side():
    combo = sh.SHCombo(0.5, (sh.SHBlock(1.0, 2.0),))
    assert sh.combo_eval(combo, -1.5) == 0.0
    assert sh.combo_eval(combo, -1.0) == 0.0
    assert sh.combo_eval(combo, 0.0) == 2.0


def test_shcombo_validation():
    with pytest.raises(DomainError):
        sh.SHCombo(0.0, (sh.SHBlock(1.0, 1.0),))
    with pytest.raises(DomainError):
        sh.SHCombo(1.0, (sh.SHBlock(1.0, 1.0),))
    with pytest.raises(DomainError):
        sh.SHCombo(0.5, (sh.SHBlock(1.0, 1.0),), interval=(1.0, -1.0))
    for interval in ((1.0,), (-1.0, 0.0, 1.0)):
        with pytest.raises(DomainError, match="working interval must be a pair"):
            sh.SHCombo(0.5, (), interval)
    combo = sh.SHCombo(0.5, ())
    assert sh.combo_eval(combo, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# derivative matching


def test_scaled_system_is_vandermonde():
    # row i scaled by 1/fall(s, i), column k by t_k^-s: entries (1/t_k)^i
    nodes = np.array([2.0, 2.25, 2.5, 2.75, 3.0])
    for i in range(nodes.size):
        for k, t in enumerate(nodes):
            scaled = (block_derivative_at_zero(t, i, 0.5)
                      / falling_factorial(0.5, i) / t**0.5)
            assert scaled == pytest.approx(t**-i, rel=1e-14)


def _assert_exact_inverse(nodes):
    # the inverse is N / D with an integer matrix N and one denominator D > 0,
    # and N . V = D . I (so V . N = D . I) for the Vandermonde matrix V[i][m]
    # = x_m^i in x_m = 1/t_m = a_m / b_m, with no rounding at all: row k of N
    # is a polynomial, evaluated at x_m times b_m^(n-1) by Horner's rule in
    # integers
    inverse, den = sh.blocks._vandermonde_inverse(tuple(float(t) for t in nodes))
    n = len(nodes)
    assert type(den) is int and den > 0
    assert len(inverse) == n and all(len(row) == n and all(type(c) is int for c in row)
                                     for row in inverse)
    for m, t in enumerate(nodes):
        b, a = float(t).as_integer_ratio()
        for k, row in enumerate(inverse):
            acc, b_pow = 0, 1
            for c in reversed(row):
                acc = acc * a + c * b_pow
                b_pow *= b
            assert acc == den * b**(n - 1) * (m == k)


def test_exact_inverse_of_default_nodes():
    for order in range(31):
        _assert_exact_inverse(sh.default_nodes(order))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True))
def test_exact_inverse_of_arbitrary_nodes(nodes):
    _assert_exact_inverse(nodes)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(math.ldexp, st.integers(1, 2**53 - 1), st.integers(-60, 20)),
                min_size=1, max_size=21, unique=True))
def test_exact_inverse_of_dyadic_nodes(nodes):
    # mantissas of up to 53 bits at mixed binary exponents, N <= 20
    _assert_exact_inverse(nodes)


def _readback(combo, n_orders):
    """Derivatives of orders 0..n_orders-1 of a combination at the origin."""
    return np.array([sh.combo_derivative(combo, 0.0, i) for i in range(n_orders)])


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_solve_readback_identity(order):
    values = tuple(((-1.0) ** i) * (1.0 + i) for i in range(order + 1))
    nodes = sh.default_nodes(order)
    combo, _ = sh.match_polynomial(values, nodes, 0.45, 1e-3)
    got = _readback(combo, order + 1)
    scale = 1.0 + max(abs(v) for v in values)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * scale


def test_solve_readback_wide_nodes():
    values = (0.5, -1.0, 2.0, 0.25)
    nodes = np.array([2.0, 3.0, 4.0, 5.0])
    combo, _ = sh.match_polynomial(values, nodes, 0.6, 1e-3)
    got = _readback(combo, 4)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * 3.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=31),
    st.floats(0.05, 0.95),
)
def test_solve_readback_property(values, s):
    values = tuple(values)
    nodes = sh.default_nodes(len(values) - 1)
    if not any(values):
        # the zero polynomial has no group to match it with
        with pytest.raises(DomainError, match="nonzero value"):
            sh.match_polynomial(values, nodes, s, 1e-3)
        return
    combo, _ = sh.match_polynomial(values, nodes, s, 1e-3)
    got = _readback(combo, len(values))
    scale = 1.0 + max(abs(v) for v in values)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * scale


def _exact_match_reference(values, nodes, s):
    """The right-hand sides and y of blocks._exact_match, written plainly in
    Fractions: every value divided by its falling factorial, zeros
    included, and y summed from Fraction(0)."""
    inverse, den = sh.blocks._vandermonde_inverse(tuple(float(t) for t in nodes))
    inverse = [[Fraction(c, den) for c in row] for row in inverse]
    sf = Fraction(s)
    rhs = []
    fall = Fraction(1)
    for i, d in enumerate(values):
        rhs.append(Fraction(d) / fall)
        fall *= sf - i
    nonzero = [(i, b) for i, b in enumerate(rhs) if b]
    return rhs, [sum((row[i] * b for i, b in nonzero), Fraction(0)) for row in inverse]


_nonzero_values = st.one_of(
    st.floats(-1e3, 1e3).filter(lambda v: v != 0.0),
    st.fractions(-1000, 1000, max_denominator=10**6).filter(lambda v: v != 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data(), st.floats(0.05, 0.95),
       st.sampled_from([0, 0.0, Fraction(0)]))
def test_exact_match_equals_the_reference(big_n, data, s, zero):
    # one nonzero (the pipeline's monomials) or several; zeros of every type
    positions = data.draw(st.one_of(
        st.integers(0, big_n).map(lambda i: {i}),
        st.sets(st.integers(0, big_n), min_size=2, max_size=big_n + 1)))
    values = [data.draw(_nonzero_values) if i in positions else zero
              for i in range(big_n + 1)]
    nodes = sh.default_nodes(big_n)
    t, rhs, den = sh.blocks._exact_match(values, nodes, s)
    want_rhs, want_y = _exact_match_reference(values, nodes, s)
    # integer numerators over one positive denominator, nonzero exactly at
    # the nonzero values: one column each
    assert [j for j, u in enumerate(rhs) if u] == sorted(positions)
    assert len(rhs) == big_n + 1 and all(type(v) is int for v in rhs + [den]) and den > 0
    assert [Fraction(u, den) for u in rhs] == want_rhs
    # the merge at r = 1 sums the columns over one denominator
    nums, den = sh.blocks._merge(t, rhs, den, 1.0)
    assert all(type(v) is int for v in nums + [den]) and den > 0
    assert [Fraction(v, den) for v in nums] == want_y


_TYPED_VALUES = st.one_of(
    st.integers(-10**40, 10**40), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(-1e300, 1e300), st.floats(-1e300, 1e300).map(np.float64), st.booleans(),
    st.fractions(max_denominator=10**12))


@settings(max_examples=100, deadline=None)
@given(st.lists(_TYPED_VALUES, min_size=1, max_size=10), st.floats(0.05, 0.95))
def test_exact_match_reads_each_value_type_exactly(values, s):
    # int, np.int64, float, np.float64, bool and Fraction values against the
    # Fraction reference, which is given numpy integers as ints
    nodes = sh.default_nodes(len(values) - 1) if len(values) > 1 else [0.5]
    t, rhs, den = sh.blocks._exact_match(values, nodes, s)
    want_t, want_rhs, _ = exact_match_reference(
        [int(d) if isinstance(d, np.integer) else d for d in values], nodes, s)
    assert t == tuple(want_t.tolist())
    assert all(type(v) is int for v in rhs + [den]) and den > 0
    assert [Fraction(u, den) for u in rhs] == want_rhs


@pytest.mark.parametrize("value", ["1.5", None, [1.0], mpf(1)])
def test_exact_match_names_the_type_it_cannot_read(value):
    with pytest.raises(DomainError, match=f"got {type(value)}"):
        sh.blocks._exact_match([1.0, value], [1.0, 2.0], 0.5)


def test_solve_validation():
    spec = (1.0, 2.0)
    with pytest.raises(DomainError):
        sh.match_polynomial(spec, [2.0], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial(spec, [2.0, -1.0], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial(spec, [2.0, 2.0], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial(spec, [2.0, 2.5], 1.5, 0.1)
    # the values themselves: at least one, all finite
    with pytest.raises(DomainError):
        sh.match_polynomial((), [], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial((1.0, float("nan")), [2.0, 2.5], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial((1.0, float("inf")), (2.0, 2.5), 0.5, 0.1)


_HUGE_AND_TINY_VALUES = [([10**400, 1.0], 1e-3), ([10**400, 1.0], 1e300),
              ([Fraction(10**400), 1.0], 1e-3), ([Fraction(10**400), 1.0], 1e300),
              ([Fraction(1, 10**400), 1.0], 1e-3), ([Fraction(1, 10**400), 1.0], 1e300),
              ([Fraction(1, 10**400), 0.0], 1e-3), ([1.0, Fraction(1, 10**330)], 1e-3),
              ([0.0, 10**400], 1e-3), ([1e308, 1e308, 1e308], 1e-3),
              ([-(10**400), 10**400, 3], 1e-8)]


@pytest.mark.parametrize("values, eps", _HUGE_AND_TINY_VALUES, ids=[
    "int1e400", "int1e400-eps1e300", "frac1e400", "frac1e400-eps1e300", "frac1e-400",
    "frac1e-400-eps1e300", "frac1e-400-zero", "frac1e-330-second", "int1e400-second",
    "floats1e308", "int1e400-signs"])
def test_exact_values_of_any_size_give_a_group_or_a_named_refusal(values, eps):
    # ints and Fractions far outside float64, and floats whose right-hand
    # sides leave it: a group at the largest passing scale, or the refusal
    nodes = sh.default_nodes(len(values) - 1)
    try:
        group, bound = sh.match_polynomial(values, nodes, 0.5, eps)
    except sh.ApproximationError as exc:
        assert "no float64 scale meets the defect budget" in str(exc)
        return
    r, cap = group.blocks[0].r, float(min(nodes)) / 16.0
    model = _defect_model(values, nodes, 0.5, eps)[2]
    assert np.array_equal(bound, model(r)) and np.max(bound) <= eps
    assert 0.0 < r <= cap and (r == cap or np.max(model(min(1.05 * r, cap))) > eps)


@pytest.mark.parametrize("denominator", [0, -4, 2.0, True, Fraction(1, 2), None])
def test_match_polynomial_refuses_a_denominator_that_is_not_a_positive_int(denominator):
    with pytest.raises(DomainError, match="denominator must be a positive int"):
        sh.match_polynomial((1.0, 2.0), (2.0, 2.5), 0.5, 0.1, 0.0, denominator)


def test_a_denominator_divides_the_values_exactly():
    # the pipeline's integers over one power of two, and the same values
    # as Fractions: one group, bit for bit, and one bound
    nums, den = [3, -7, 0, 5 * 2**60], 2**70
    nodes = sh.default_nodes(3)
    group, bound = sh.match_polynomial(nums, nodes, 0.3, 1e-6, 0.0, den)
    want, want_bound = sh.match_polynomial([Fraction(n, den) for n in nums], nodes, 0.3, 1e-6)
    assert sh.combo_to_json(group) == sh.combo_to_json(want)
    assert np.array_equal(bound, want_bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.data(), st.floats(0.02, 0.98), st.floats(-12.0, -1.0),
       st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25]))
def test_grouped_bound_is_the_ungrouped_bound(big_n, data, s, log_eps, where, dropped):
    # grouped once per model by power of r, against every (degree, row)
    # term summed per call (tests/conftest.py), at r log-uniform on
    # [sys.float_info.min, cap]
    values = data.draw(st.lists(st.one_of(st.just(0.0), _nonzero_values), min_size=big_n + 1,
                                max_size=big_n + 1).filter(any))
    nodes, eps = sh.default_nodes(big_n), 10.0**log_eps
    t, _, bound = _defect_model(values, nodes, s, eps, dropped * eps)
    reference = defect_model_reference(values, nodes, s, eps, dropped * eps)[2]
    cap = float(min(t)) / 16.0
    r = cap * (sys.float_info.min / cap) ** where
    got, want = bound(r), reference(r)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    # each is its computed sum times 1 + 1e-9, and the sums are within 2.1e-10
    # (grouped) and 1.1e-10 (the reference) of the exact one
    assert np.all(got >= want * (1.0 - 3.2e-10))


def test_series_matches_function_derivatives():
    # the series derived from the blocks against the per-point block sum
    values = (1.0, -0.5, 2.0)
    combo, _ = sh.match_polynomial(values, sh.default_nodes(2), 0.5, 1e-3)
    coefs = combo.taylor
    xs = np.array([0.05, -0.2, 0.4])
    for order in range(3):
        got = _kernels.power_series_eval(_kernels.series_derivative(coefs, order), xs)
        want = _combo_eval_mp(combo, xs, order)
        assert np.allclose(got, want, rtol=1e-6 * 10**order, atol=0.0)


def _sqrt_shift(x, order):
    # order-th derivative of (x + 2)^(1/2)
    return math.prod(0.5 - l for l in range(order)) * (x + 2.0) ** (0.5 - order)


def test_unmatched_mp_combo_is_exact_to_the_radius():
    # a single block has no cancellation to exploit, yet its derived series
    # keeps its omitted terms below its float64 rounding up to |x| = 0.99;
    # past the radius 0.5 t / r = 1 only the per-point sum applies
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, mpf(1)),))
    xs = np.array([-0.99, -0.5, 0.0, 0.3, 0.9, 0.99])
    with mock.patch.object(sh.blocks, "_combo_eval_mp",
                           side_effect=AssertionError("per-point path inside the radius")):
        for order in range(3):
            for x in xs:
                want = _sqrt_shift(x, order)
                assert sh.combo_derivative(combo, x, order) == pytest.approx(
                    want, rel=1e-15, abs=1e-15)
            assert np.allclose(sh.combo_derivative(combo, xs, order), _sqrt_shift(xs, order),
                               rtol=1e-15, atol=1e-15)
    with mock.patch.object(_kernels, "power_series_eval",
                           side_effect=AssertionError("series path past the radius")), \
            mock.patch.object(sh.blocks, "_combo_eval_mp", wraps=_combo_eval_mp) as per_point:
        for order in range(3):
            assert sh.combo_derivative(combo, 1.5, order) == pytest.approx(
                _sqrt_shift(1.5, order), rel=1e-15)
    assert per_point.call_count == 3


def test_pipeline_group_plus_float_block_is_exact():
    group, _ = sh.match_polynomial((0.0, 0.0, 2.0, 0.0), sh.default_nodes(3), 0.5, 1.0 / 32.0)
    extra = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),))
    total = sh.SHCombo(group.s, group.blocks + extra.blocks)
    xs = np.linspace(-0.99, 0.99, 23)
    for order in range(3):
        want = sh.combo_derivative(group, xs, order) + sh.combo_derivative(extra, xs, order)
        got = sh.combo_derivative(total, xs, order)
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


def test_readback_past_the_series_length():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, mpf(1)),))
    got = _readback(combo, 20)
    want = [block_derivative_at_zero(2.0, i, 0.5) for i in range(20)]
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("past_m, xs", [(0, [0.0, 0.3, -0.9, 0.9]), (-1, [2.5, 3.0, -3.0])],
                         ids=["order-at-the-series-length", "terms-need-not-shrink"])
def test_an_unbounded_series_tail_sends_a_pipeline_combination_to_the_per_point_sum(past_m, xs):
    # _omitted_bound is inf for an order at or past the derived series'
    # length m, and for rho q >= 1, where consecutive terms need not shrink;
    # every point lies inside the radius, so only that bound turns the
    # series route away
    combo, _ = sh.approximate(sh.target_from_spec("x2"), 1 / 16, 0.5)
    (coefs, _, p), = combo._group_series
    m, s, xmax = coefs.size, combo.s, max(abs(x) for x in xs)
    order = m + past_m
    assert xmax < combo.radius
    assert order >= m or max(1.0, (m - s) / (m + 1 - order)) * p * xmax >= 1.0
    assert combo.series_error(xmax, order) == math.inf
    with mock.patch.object(sh.blocks, "_combo_eval_mp", wraps=_combo_eval_mp) as per_point:
        got = sh.combo_derivative(combo, np.array(xs), order)
    assert per_point.call_count == 1
    with workdps(60):
        for x, value in zip(xs, got):
            want = sum(mpf(b.c) * mpf(b.r) ** order * mpmath.ff(s, order)
                       * (mpf(b.r) * x + b.t) ** (s - order) for b in combo.blocks)
            assert abs(value - want) <= 2**-52 * abs(want)


@pytest.mark.parametrize("combo", [sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),)),
                                   sh.SHCombo(0.5, (sh.SHBlock(2.0, mpf(1)),))],
                         ids=["float", "extended"])
def test_a_negative_derivative_order_is_refused(combo):
    with pytest.raises(DomainError, match="derivative order must be nonnegative, got -1"):
        sh.combo_derivative(combo, 0.0, -1)


# ---------------------------------------------------------------------------
# rescaling


def test_rescaled_group_blocks_match_series():
    # the series path must agree with the per-point sum over the blocks
    values = (0.0, 0.0, 2.0, 0.0)
    group, _ = sh.match_polynomial(values, sh.default_nodes(3), 0.5, 1.0 / 32.0)
    assert group.has_mp_coefficients
    xs = np.linspace(-1.0, 1.0, 21)
    assert np.all(np.abs(xs) < group.radius)
    via_series = sh.combo_eval(group, xs)
    via_blocks = _combo_eval_mp(group, xs, 0)
    assert np.max(np.abs(via_series - via_blocks)) <= 1e-12
    assert np.max(np.abs(via_series - xs**2)) <= 1.0 / 32.0


def test_rescaled_group_defect_small_in_c2():
    values = (0.0, 0.0, 0.0, 6.0)
    eps = 0.01
    group, _ = sh.match_polynomial(values, sh.default_nodes(3), 0.3, eps)
    xs = np.linspace(-1.0, 1.0, 201)
    for order in range(3):
        got = sh.combo_derivative(group, xs, order)
        fall = math.prod(range(3, 3 - order, -1))
        want = fall * xs ** (3 - order)
        assert np.max(np.abs(got - want)) <= eps


def test_rescale_validation():
    values, nodes = (1.0, 0.0), np.array([2.0, 2.5])
    # the matching order is len(nodes) - 1 = 1, so degree 2 is outside it
    with pytest.raises(DomainError):
        sh.match_polynomial((0.0, 0.0, 1.0), nodes, 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial(values, nodes, 0.5, -0.1)
    # the deviation bound needs a remainder past order N >= 1
    with pytest.raises(DomainError):
        sh.match_polynomial((1.0,), [2.0], 0.5, 0.1)
    with pytest.raises(DomainError):
        sh.match_polynomial((1.0, float("nan")), nodes, 0.5, 0.1)
    # nodes in (0, 1] are accepted: the cap r <= t_min / 16 follows them
    group, _ = sh.match_polynomial(values, np.array([0.5, 0.75]), 0.5, 0.1)
    assert group.blocks[0].r <= 0.5 / 16
    xs = np.linspace(-1.0, 1.0, 41)
    for order in range(3):
        want = 1.0 if order == 0 else 0.0
        assert np.max(np.abs(sh.combo_derivative(group, xs, order) - want)) <= 0.1


def test_storage_allowance_is_kept_where_the_exact_rows_underflow():
    # at r = 1e-300 the exact rows and the tail underflow to 0, so B_0 is
    # the allowance for the roundings of the stored coefficients alone
    eps = 1e-3
    got = _defect_model((0.0, 1.0, 0.0, 0.0), sh.default_nodes(3), 0.5, eps)[2](1e-300)
    assert got[0] >= 1e-32 * eps


@pytest.mark.parametrize("s, dps", [(0.5, 30), (0.3, 61), (0.9, 120), (0.05, 340)])
def test_block_coefficients_equal_the_uncached_expression(s, dps):
    y = [Fraction(3, 7), Fraction(-5, 11), Fraction(2**70 + 1, 3**40)]
    den = math.lcm(*(yk.denominator for yk in y))
    nums = [yk.numerator * (den // yk.denominator) for yk in y]
    t = sh.default_nodes(2) + 1.0 / 7.0
    with workdps(dps):
        want = [mpf(from_rational(yk.numerator, yk.denominator, mpmath.mp.prec, round_nearest))
                * mpf(float(tk)) ** -mpf(s) for yk, tk in zip(y, t)]
    blocks._inverse_power.cache_clear()
    # the powers are cached under a low ambient precision and read back
    # under a high one
    with workdps(15):
        for tk in t:
            blocks._inverse_power(float(tk), s, dps)
    with workdps(500):
        assert blocks._block_coefficients(nums, den, t, s, dps) == want
    assert blocks._inverse_power.cache_info().hits == len(t)


@pytest.mark.parametrize("dps", [-39, 1, 14])
def test_inverse_power_below_53_bits_rounds_to_nearest(dps):
    # a budget past about 1e18 asks for fewer than 53 bits; t^-s is rounded
    # once at that precision.  At dps 14 (50 bits) the 53-bit powers of
    # 1.046875 and 1.59375 are 50-bit ties, which a second rounding of the
    # 53-bit value would send to the wrong side
    prec = dps_to_prec(dps)
    for t in (1.046875, 1.59375):
        assert rounded_pow(t, -0.5, 53)._mpf_[3] == 51
    for t in (1.0 + 2**-20, 0.75, 3.0, 4.0, 1234.5, 1.046875, 1.59375):
        with mpmath.workprec(400):
            power = mpf(t) ** -mpf(0.5)
        got = blocks._inverse_power(t, 0.5, dps)
        assert got._mpf_ == mpf(power, prec=prec, rounding="n")._mpf_


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**30).map(lambda y: y * 10**20), min_size=1,
                max_size=6),
       st.integers(1, 3**50), st.floats(0.05, 0.95), st.integers(15, 200))
def test_block_coefficients_round_the_value_not_its_representation(y, spread, s, dps):
    # numerators over a common denominator, unreduced by spread, round to
    # the same bits as the reduced Fractions at the same digits
    t = 2.0 + np.arange(len(y)) / 7.0
    den = math.lcm(*(yk.denominator for yk in y)) * spread
    nums = [yk.numerator * (den // yk.denominator) for yk in y]
    with workdps(dps):
        want = [mpf(from_rational(yk.numerator, yk.denominator, mpmath.mp.prec, round_nearest))
                * blocks._inverse_power(float(tk), s, dps) for yk, tk in zip(y, t)]
    assert blocks._block_coefficients(nums, den, t, s, dps) == want


def test_unreachable_budget_is_an_approximation_error():
    # no float64 scale brings the storage allowance under a budget near 1e-300
    with pytest.raises(sh.ApproximationError, match="no float64 scale"):
        sh.match_polynomial((1.0, 0.0), (2.0, 2.5), 0.5, 1e-305)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(1, 8), st.data(), st.floats(1e-8, 0.1),
       st.floats(0.1, 10.0))
def test_chosen_scale_is_the_largest(s, big_n, data, eps, cj):
    j = data.draw(st.integers(0, big_n))
    values = tuple(cj * math.factorial(j) if i == j else 0.0 for i in range(big_n + 1))
    nodes = sh.default_nodes(big_n)
    r = sh.match_polynomial(values, nodes, s, eps)[0].blocks[0].r
    bound = _defect_model(values, nodes, s, eps)[2]
    assert np.max(bound(r)) <= eps
    cap = float(np.min(nodes)) / 16.0
    assert r == cap or np.max(bound(min(1.05 * r, cap))) > eps


def _bisection_scale(values, nodes, s, j, eps):
    """The scale of match_polynomial, written plainly: bisection on log r
    from sys.float_info.min to the cap, calling the bound at every mid."""
    t, _, bound = blocks._defect_model(values, nodes, s, eps)
    r = float(np.min(t)) / 16.0
    if np.max(bound(r)) > eps:
        lo, hi = sys.float_info.min, r
        if np.max(bound(lo)) > eps:
            raise sh.ApproximationError("no float64 scale meets the defect budget")
        while hi > lo * 1.001:
            mid = math.sqrt(lo) * math.sqrt(hi)
            lo, hi = (mid, hi) if np.max(bound(mid)) <= eps else (lo, mid)
        r = lo
    return r


@settings(max_examples=50, deadline=None)
@given(st.floats(0.02, 0.98), st.integers(1, 20), st.data(),
       st.one_of(st.floats(-300.0, -1.0), st.floats(-302.0, -300.0)),
       st.floats(0.1, 10.0), st.booleans())
def test_replayed_scale_is_the_bisection_scale(s, big_n, data, log_eps, cj, negative):
    # budgets from about 1e-300.3 to 1e-301.5 are where no probe passes and
    # the storage allowance decides (the fallback); below, no scale meets
    # the budget
    j = data.draw(st.integers(0, big_n))
    eps = 10.0**log_eps
    cj = -cj if negative else cj
    values = tuple(cj * math.factorial(j) if i == j else 0.0 for i in range(big_n + 1))
    nodes = sh.default_nodes(big_n)
    try:
        want = _bisection_scale(values, nodes, s, j, eps)
    except sh.ApproximationError:
        with pytest.raises(sh.ApproximationError, match="no float64 scale"):
            sh.match_polynomial(values, nodes, s, eps)
        return
    group, bound = sh.match_polynomial(values, nodes, s, eps)
    assert group.blocks[0].r == want
    assert np.array_equal(bound, _defect_model(values, nodes, s, eps)[2](want))


def test_bound_calls_per_group():
    calls = []
    model = blocks._defect_model

    def counting_model(*args):
        t, columns, bound = model(*args)

        def counted(r):
            calls.append(r)
            return bound(r)
        return t, columns, counted

    capped = 0
    with mock.patch.object(blocks, "_defect_model", counting_model):
        for big_n in (3, 10, 20):
            nodes = sh.default_nodes(big_n)
            for j in range(big_n + 1):
                values = tuple(math.factorial(j) if i == j else 0.0 for i in range(big_n + 1))
                for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                    calls.clear()
                    r = sh.match_polynomial(values, nodes, 0.5, eps)[0].blocks[0].r
                    if r == float(np.min(nodes)) / 16.0:
                        capped += 1
                        assert len(calls) == 1
                    else:
                        assert len(calls) <= 10, (big_n, j, eps, len(calls))
    assert capped > 0


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_float_combo():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.5), sh.SHBlock(3.0, -0.25, 0.5)),
                       interval=(-2.0, 2.0))
    text = sh.combo_to_json(combo)
    back = sh.combo_from_json(text)
    assert back.s == combo.s
    assert back.interval == combo.interval
    assert len(back.blocks) == 2
    for orig, rb in zip(combo.blocks, back.blocks):
        assert rb.t == orig.t and rb.c == orig.c and rb.r == orig.r
    # serialization is idempotent through a parse cycle
    assert sh.combo_to_json(back) == text


def test_json_roundtrip_extended_precision():
    values = (0.0, 0.0, 2.0, 0.0)
    group, _ = sh.match_polynomial(values, sh.default_nodes(3), 0.5, 1.0 / 16.0)
    back = sh.combo_from_json(sh.combo_to_json(group))
    assert back.has_mp_coefficients
    xs = np.linspace(-0.9, 0.9, 11)
    direct = sh.combo_eval(group, xs)
    revived = sh.combo_eval(back, xs)
    assert np.max(np.abs(direct - revived)) <= 1e-10


def test_json_carries_coefficients_past_the_int_str_digit_limit():
    # 4520 digits, and a 5001-digit literal: each past CPython's default
    # 4300 digits for one int/str conversion, which stays as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    c = Dyadic.exact((1 << 15000) + 1, -15000)
    text = sh.combo_to_json(sh.SHCombo(0.5, (sh.SHBlock(2.0, c),)))
    written = json.loads(text, parse_float=str)["blocks"][0]["c"]
    assert len(written) == len("1.") + 4519
    back = sh.combo_from_json(text).blocks[0].c
    assert to_str(back._mpf_, 4520) == written
    literal = "3." + "1" * 5000
    loaded = sh.combo_from_json(text.replace(written, literal)).blocks[0].c
    num = 3 * 10**5000 + (10**5000 - 1) // 9
    assert loaded._mpf_ == rounded_ratio(num, 10**5000, dps_to_prec(5011))
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(1, 8), st.data(), st.floats(1e-8, 0.1),
       st.floats(0.1, 10.0))
def test_loaded_group_matches_memory(s, big_n, data, eps, cj):
    # a loaded artifact carries only blocks; its derived series must
    # reproduce the in-memory group without the per-point mp path
    j = data.draw(st.integers(0, big_n))
    values = tuple(cj * math.factorial(j) if i == j else 0.0 for i in range(big_n + 1))
    group, _ = sh.match_polynomial(values, sh.default_nodes(big_n), s, eps)
    back = sh.combo_from_json(sh.combo_to_json(group))
    xs = np.linspace(-0.99, 0.99, 101)
    with mock.patch.object(sh.blocks, "_combo_eval_mp",
                           side_effect=AssertionError("per-point path inside the radius")):
        for order in range(3):
            want = sh.combo_derivative(group, xs, order)
            got = sh.combo_derivative(back, xs, order)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@functools.cache
def _one_point_combos():
    """A built combination (sin at 1e-6), its JSON copy and a float combination."""
    built, _ = sh.approximate(sh.target_from_spec("sin"), 1e-6, 0.5)
    floats = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0), sh.SHBlock(2.5, -0.7),
                              sh.SHBlock(3.0, 0.3, 0.5)))
    return built, sh.combo_from_json(sh.combo_to_json(built)), floats


@settings(max_examples=80, deadline=None)
@given(st.floats(-0.99, 0.99), st.integers(0, 4), st.integers(0, 2))
def test_one_point_gives_the_same_bits_in_every_form(x, order, which):
    # a float, a 0-d array and a one-element array take the one-point path;
    # the pair (x, -x) has the same largest |x| and takes the array path
    combo = _one_point_combos()[which]
    assert combo.has_mp_coefficients == (which < 2)
    got = [sh.combo_derivative(combo, v, order) for v in (x, np.array(x))]
    assert all(type(v) is float for v in got)
    got.append(float(sh.combo_derivative(combo, np.array([x]), order)[0]))
    got.append(float(sh.combo_derivative(combo, np.array([x, -x]), order)[0]))
    assert len({repr(v) for v in got}) == 1, got


@pytest.mark.parametrize("which", [0, 2], ids=["extended", "float"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", [float, np.array, lambda v: np.array([0.25, v])],
                         ids=["float", "0-d", "array"])
def test_combo_derivative_refuses_a_nonfinite_point(which, bad, form):
    # a float combination read NaN as the dead side and returned 0, and the
    # extended route failed inside the integer conversion
    with pytest.raises(DomainError, match=rf"points must be finite, got x={bad}"):
        sh.combo_derivative(_one_point_combos()[which], form(bad))


@functools.cache
def _artifacts():
    """The built x2, sin and exp artifacts at s = 0.5 and their JSON copies."""
    built = [sh.approximate(sh.target_from_spec(spec), eps, 0.5)[0]
             for spec, eps in (("x2", 1.0 / 16.0), ("sin", 1e-6), ("exp", 1e-8))]
    return tuple(built) + tuple(sh.combo_from_json(sh.combo_to_json(c)) for c in built)


def _repr(value) -> str:
    # exact per element, signed zeros included, with the container's type
    return repr((type(value), np.shape(value), np.asarray(value).tolist()))


@settings(max_examples=150, deadline=None)
@given(st.floats(-1.5, 1.5), st.integers(0, 6), st.data())
def test_tables_give_the_bits_of_the_per_call_evaluation(x, order, data):
    # at orders 2-6, mostly past |x| = 1, the series' omitted terms can
    # exceed its rounding, so both routes, series and mpmath, are covered
    floats = st.lists(st.builds(sh.SHBlock, st.floats(0.5, 60.0), st.floats(-2.0, 2.0),
                                st.floats(0.05, 1.0)), min_size=1, max_size=3)
    combo = data.draw(st.one_of(st.sampled_from(_artifacts()),
                                floats.map(lambda b: sh.SHCombo(0.5, tuple(b)))))
    for v in (x, np.array(x), np.array([x]), np.array([x, -0.5 * x, 0.25 * x])):
        assert _repr(sh.combo_derivative(combo, v, order)) == _repr(
            combo_derivative_reference(combo, v, order))


def test_json_malformed():
    with pytest.raises(DomainError):
        sh.combo_from_json('{"s": 0.5}')
    with pytest.raises(DomainError):
        sh.combo_from_json('{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": 1}]}')
    with pytest.raises(DomainError, match="working interval must be a pair"):
        sh.combo_from_json('{"s": 0.5, "interval": [-1, 0, 1], "blocks": []}')
    for text in ('{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": 1, "c": "abc", "r": 1}]}',
                 '{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": "x", "c": 1, "r": 1}]}',
                 '{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": 1, "c": 1, "r": "y"}]}',
                 '{"s": "half", "interval": [-1, 1], "blocks": []}',
                 '{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": 1, "c": NaN, "r": 1}]}',
                 '{"s": 0.5, "interval": [-1, 1], "blocks": '
                 '[{"t": 1, "c": "123456789012345678901234567890abc", "r": 1}]}',
                 'not json', ''):
        with pytest.raises(DomainError, match="malformed combination JSON"):
            sh.combo_from_json(text)


def _significant(cstr: str) -> int:
    """The significant digits of a decimal literal."""
    mantissa = cstr.split("e")[0].split("E")[0].replace("-", "").replace(".", "")
    return len(mantissa.lstrip("0"))


def _workdps_parse(cstr: str) -> mpf:
    """The parse of a long coefficient before it called libmp directly: mpf
    in a context of 10 digits past the significant digits of the string."""
    with workdps(_significant(cstr) + 10):
        return mpf(cstr)


@st.composite
def _long_decimals(draw) -> str:
    """JSON numbers of 18-400 significant digits, either sign, written with
    or without leading zeros, a point and an exponent in [-400, 400]."""
    digits = draw(st.text("0123456789", min_size=17, max_size=399))
    digits = draw(st.sampled_from("123456789")) + digits
    point = draw(st.integers(1, len(digits)))
    body = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
    if draw(st.booleans()):
        body = "0." + "0" * draw(st.integers(0, 30)) + digits
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        body += draw(st.sampled_from(["e", "E", "e+", "E+"])) + str(exponent)
        body = body.replace("+-", "-")
    return draw(st.sampled_from(["", "-"])) + body


@settings(max_examples=300, deadline=None)
@given(_long_decimals(), st.integers(5, 60))
def test_long_coefficients_parse_as_in_a_workdps_context(cstr, outer_dps):
    text = f'{{"s": 0.5, "interval": [-1, 1], "blocks": [{{"t": 2, "c": {cstr}, "r": 1}}]}}'
    with workdps(outer_dps):  # the caller's precision plays no part
        got = sh.combo_from_json(text).blocks[0].c
    assert isinstance(got, Dyadic)
    value = Fraction(cstr)  # the exact value, rounded once to nearest
    assert got._mpf_ == from_rational(value.numerator, value.denominator,
                                      dps_to_prec(_significant(cstr) + 10), round_nearest)
    if abs(str_to_man_exp(cstr)[1]) <= 400:  # libmp rounds once only there
        assert got._mpf_ == _workdps_parse(cstr)._mpf_


def test_a_long_coefficient_reads_as_the_nearest_value_far_past_float_range():
    # 18 digits, so read at 96 bits; libmp's from_str rounds m and 10^-582
    # apart first and lands one unit off the nearest
    text = ('{"s": 0.5, "interval": [-1, 1], "blocks": '
            '[{"t": 2, "c": 6.86395437967802538e-565, "r": 1}]}')
    got = sh.combo_from_json(text).blocks[0].c._mpf_
    nearest = from_rational(686395437967802538, 10**582, 96, round_nearest)
    assert got == nearest != _workdps_parse("6.86395437967802538e-565")._mpf_


def _refused_promptly(build) -> None:
    """build raises DomainError naming the magnitude bound, with a traced
    peak far below a power of ten of 10^9 digits."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"2\\^\\+-{MAGNITUDE_BITS}.*MAGNITUDE_BITS"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_coefficient_past_the_magnitude_bound_is_refused_promptly():
    text = ('{"s": 0.5, "interval": [-1, 1], "blocks": '
            '[{"t": 2, "c": 1.2345678901234567890e1000000000, "r": 1}]}')
    _refused_promptly(lambda: sh.combo_from_json(text))
    _refused_promptly(lambda: sh.SHBlock(2.0, mpf("1e1000000000")))
    _refused_promptly(lambda: sh.SHBlock(2.0, mpf("-1e-1000000000")))
    _refused_promptly(lambda: sh.SHBlock(2.0, Dyadic.exact(1, MAGNITUDE_BITS)))
    for c in (Dyadic.exact(-1, MAGNITUDE_BITS - 1), Dyadic.exact(3, -MAGNITUDE_BITS - 2)):
        assert sh.SHBlock(2.0, c).c == c  # binary magnitude +-MAGNITUDE_BITS


@pytest.mark.parametrize("t", [mpf(2), Fraction(3, 2)])
def test_block_rejects_an_offset_that_is_not_a_float(t):
    with pytest.raises(DomainError, match=f"block offset must be a float, got .*{type(t).__name__}"):
        sh.SHBlock(t, 1.0)


def test_block_rejects_an_offset_past_float64():
    # an int too large for float64 is not finite as an offset
    with pytest.raises(DomainError, match=r"block offset must be positive and finite, got t=1000"):
        sh.SHBlock(10**400, 1.0)


@pytest.mark.parametrize("c", [10**400, -(10**400)])
def test_block_rejects_a_coefficient_past_float64(c):
    with pytest.raises(DomainError, match=r"block coefficient must be finite, got c=-?1000"):
        sh.SHBlock(2.0, c)


@pytest.mark.parametrize("r", [0.0, -0.5, 1.5, math.nan])
def test_block_rejects_a_scale_outside_the_unit_interval(r):
    with pytest.raises(DomainError, match=r"block scale must lie in \(0, 1\], got r="):
        sh.SHBlock(2.0, 1.0, r)


@pytest.mark.parametrize("t", [2, 2.0, np.float64(2.0), np.float32(2.0)])
def test_block_accepts_a_real_float_offset(t):
    assert sh.SHBlock(t, 1.0).t == 2.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_block_rejects_nonfinite_mp_coefficient(value):
    # a non-finite mpf would evaluate to nan and serialize as JSON that
    # json.loads cannot read back
    with pytest.raises(DomainError, match="finite"):
        sh.SHBlock(2.0, mpf(value))


@pytest.mark.parametrize("c, stored", [
    (1.5, 1.5), (-3, -3.0), (True, 1.0), (np.float64(-0.25), -0.25),
    (1e308, 1e308), (mpf("1e400"), Dyadic(mpf("1e400")._mpf_))])
def test_block_accepts_finite_coefficients(c, stored):
    # python and numpy floats and ints are stored as float, an mpf as the
    # Dyadic of its raw tuple
    block = sh.SHBlock(2.0, c)
    assert block.c == stored and type(block.c) is type(stored)


@pytest.mark.parametrize("c, match", [
    (math.inf, "finite"), (-math.inf, "finite"), (math.nan, "finite"),
    (np.float64(np.inf), "finite"), (np.float64(np.nan), "finite"),
    (mpf("-inf"), "finite"), (np.float32(1.0), "float or mpf"),
    ("1.0", "float or mpf"), (Fraction(1, 2), "float or mpf")])
def test_block_rejects_nonfinite_or_foreign_coefficients(c, match):
    with pytest.raises(DomainError, match=match):
        sh.SHBlock(2.0, c)


def test_float_arrays_refuse_an_extended_coefficient_past_float64():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, Dyadic.exact(3, 2000)),))
    with pytest.raises(DomainError, match="overflow float64"):
        combo.float_arrays


def test_float_arrays_are_built_once_and_read_only():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0), sh.SHBlock(3.0, -0.5, 0.5)))
    ts, cs, rs = combo.float_arrays
    assert combo.float_arrays[0] is ts
    assert ts.tolist() == [2.0, 3.0] and cs.tolist() == [1.0, -0.5] and rs.tolist() == [1.0, 0.5]
    with pytest.raises(ValueError):
        cs[0] = 2.0
