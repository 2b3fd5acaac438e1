"""Blocks: closed-form derivatives, derivative matching, serialization."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import sharmonic as sh
from sharmonic.blocks import DerivSpec, assemble_scaled_group
from sharmonic.errors import ConditioningError, DomainError

from conftest import richardson_derivative


# ---------------------------------------------------------------------------
# closed-form derivatives of (x + t)_+^s at the origin


def test_block_derivative_hand_value():
    # s (s - 1) t^(s-2) at t=2, s=0.5: 0.5 * (-0.5) * 2^(-1.5)
    got = sh.block_derivative_at_zero(2.0, 2, 0.5)
    assert got == pytest.approx(-0.08838834764831845, rel=1e-14)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_block_derivative_matches_finite_differences(s, t, j):
    f = lambda z: (z + t) ** s
    # step grows with the order: deep extrapolation levels divide h by 16,
    # and roundoff scales like eps / h^j
    want = richardson_derivative(f, 0.0, j, h=(0.02 + 0.03 * j) * t)
    got = sh.block_derivative_at_zero(t, j, s)
    assert got == pytest.approx(want, rel=1e-5)
    if j >= 1:
        # non-integrality of s keeps every derivative alive
        assert got != 0.0


def test_block_derivative_validation():
    with pytest.raises(DomainError):
        sh.block_derivative_at_zero(0.0, 1, 0.5)
    with pytest.raises(DomainError):
        sh.block_derivative_at_zero(-1.0, 1, 0.5)
    with pytest.raises(DomainError):
        sh.block_derivative_at_zero(2.0, -1, 0.5)


def test_falling_factorial():
    s = 0.4
    assert sh.blocks.falling_factorial(s, 0) == 1.0
    assert sh.blocks.falling_factorial(s, 3) == pytest.approx(
        s * (s - 1) * (s - 2), rel=1e-15)


def test_block_eval_dead_side():
    blk = sh.SHBlock(1.0, 2.0)
    assert sh.block_eval(blk, -1.5, 0.5) == 0.0
    assert sh.block_eval(blk, -1.0, 0.5) == 0.0
    assert sh.block_eval(blk, 0.0, 0.5) == 2.0


def test_shcombo_validation():
    with pytest.raises(DomainError):
        sh.SHCombo(0.0, (sh.SHBlock(1.0, 1.0),))
    with pytest.raises(DomainError):
        sh.SHCombo(1.0, (sh.SHBlock(1.0, 1.0),))
    with pytest.raises(DomainError):
        sh.SHCombo(0.5, (sh.SHBlock(1.0, 1.0),), interval=(1.0, -1.0))
    combo = sh.SHCombo(0.5, ())
    assert sh.combo_eval(combo, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# derivative matching


def test_scaled_system_is_vandermonde():
    # row i scaled by 1/fall(s, i), column k by t_k^-s: entries (1/t_k)^i
    nodes = np.array([2.0, 2.25, 2.5, 2.75, 3.0])
    for i in range(nodes.size):
        for k, t in enumerate(nodes):
            scaled = (sh.block_derivative_at_zero(t, i, 0.5)
                      / sh.blocks.falling_factorial(0.5, i) / t**0.5)
            assert scaled == pytest.approx(t**-i, rel=1e-14)


def _values_at(coefs, xs):
    """Exact values of sum_i coefs[i] x^i, by Horner's rule in integers."""
    den = math.lcm(*(c.denominator for c in coefs))
    ints = [c.numerator * (den // c.denominator) for c in reversed(coefs)]
    out = []
    for x in xs:
        acc, qpow = 0, 1
        for c in ints:
            acc = acc * x.numerator + c * qpow
            qpow *= x.denominator
        out.append(Fraction(acc, den * qpow // x.denominator))
    return out


def _assert_exact_inverse(nodes):
    # row k is the Lagrange polynomial of x_k = 1/t_k: the inverse times the
    # Vandermonde matrix in 1/t is the identity, with no rounding at all
    inverse, cont = sh.blocks._vandermonde_inverse(tuple(float(t) for t in nodes))
    xs = [1 / Fraction(float(t)) for t in nodes]
    for k, row in enumerate(inverse):
        assert _values_at(row, xs) == [int(m == k) for m in range(len(xs))]
    # the continuation rows are x^i mod prod_k (x - x_k), equal to x^i at nodes
    for i, row in enumerate(cont, start=len(xs)):
        assert _values_at(row, xs) == [x**i for x in xs]


def test_exact_inverse_of_default_nodes():
    for order in range(31):
        _assert_exact_inverse(sh.default_nodes(order))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True))
def test_exact_inverse_of_arbitrary_nodes(nodes):
    _assert_exact_inverse(nodes)


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_solve_readback_identity(order):
    values = tuple(((-1.0) ** i) * (1.0 + i) for i in range(order + 1))
    nodes = sh.default_nodes(order)
    combo = sh.solve_derivative_match(DerivSpec(values), nodes, 0.45)
    got = sh.readback_derivatives(combo, order + 1)
    scale = 1.0 + max(abs(v) for v in values)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * scale


def test_solve_readback_wide_nodes():
    values = (0.5, -1.0, 2.0, 0.25)
    nodes = np.array([2.0, 3.0, 4.0, 5.0])
    combo = sh.solve_derivative_match(DerivSpec(values), nodes, 0.6)
    got = sh.readback_derivatives(combo, 4)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * 3.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=31),
    st.floats(0.05, 0.95),
)
def test_solve_readback_property(values, s):
    values = tuple(values)
    nodes = sh.default_nodes(len(values) - 1)
    combo = sh.solve_derivative_match(DerivSpec(values), nodes, s)
    got = sh.readback_derivatives(combo, len(values))
    scale = 1.0 + max(abs(v) for v in values)
    assert np.max(np.abs(got - np.array(values))) <= 1e-8 * scale


def test_solve_validation():
    spec = DerivSpec((1.0, 2.0))
    with pytest.raises(DomainError):
        sh.solve_derivative_match(spec, [2.0], 0.5)
    with pytest.raises(DomainError):
        sh.solve_derivative_match(spec, [2.0, -1.0], 0.5)
    with pytest.raises(DomainError):
        sh.solve_derivative_match(spec, [2.0, 2.0], 0.5)
    with pytest.raises(DomainError):
        sh.solve_derivative_match(spec, [2.0, 2.5], 1.5)


def test_series_matches_function_derivatives():
    values = (1.0, -0.5, 2.0)
    combo = sh.solve_derivative_match(DerivSpec(values), sh.default_nodes(2), 0.5)
    series = combo.series[0]
    stripped = sh.SHCombo(combo.s, combo.blocks)  # forces the raw block sum
    f = lambda z: float(sh.combo_eval(stripped, float(z)))
    for x in (0.05, -0.2, 0.4):
        assert series.eval(np.array([x]), 0)[0] == pytest.approx(f(x), rel=1e-6)
        want = richardson_derivative(f, x, 1, h=5e-3)
        assert series.eval(np.array([x]), 1)[0] == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# rescaling


def test_rescaled_group_blocks_match_series():
    # the stored blocks must reproduce the monomial without the series
    values = (0.0, 0.0, 2.0, 0.0)
    base = sh.solve_derivative_match(DerivSpec(values), sh.default_nodes(3), 0.5)
    group = sh.rescale_for_defect(base, 2, 3, 1.0 / 32.0)
    assert group.has_mp_coefficients
    xs = np.linspace(-1.0, 1.0, 21)
    via_series = sh.combo_eval(group, xs)
    stripped = sh.SHCombo(group.s, group.blocks, group.interval)
    via_blocks = sh.combo_eval(stripped, xs)
    assert np.max(np.abs(via_series - via_blocks)) <= 1e-12
    assert np.max(np.abs(via_series - xs**2)) <= 1.0 / 32.0


def test_rescaled_group_defect_small_in_c2():
    values = (0.0, 0.0, 0.0, 6.0)
    eps = 0.01
    base = sh.solve_derivative_match(DerivSpec(values), sh.default_nodes(3), 0.3)
    group = sh.rescale_for_defect(base, 3, 3, eps)
    xs = np.linspace(-1.0, 1.0, 201)
    for order in range(3):
        got = sh.combo_derivative(group, xs, order)
        fall = math.prod(range(3, 3 - order, -1))
        want = fall * xs ** (3 - order)
        assert np.max(np.abs(got - want)) <= eps


def test_rescale_validation():
    base = sh.solve_derivative_match(DerivSpec((1.0, 0.0)), np.array([2.0, 2.5]), 0.5)
    with pytest.raises(DomainError):
        sh.rescale_for_defect(base, 3, 1, 0.1)
    with pytest.raises(DomainError):
        sh.rescale_for_defect(base, 0, 1, -0.1)
    plain = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),))
    with pytest.raises(DomainError):
        sh.rescale_for_defect(plain, 0, 0, 0.1)
    low = sh.solve_derivative_match(DerivSpec((1.0, 0.0)), np.array([0.5, 2.5]), 0.5)
    with pytest.raises(DomainError):
        sh.rescale_for_defect(low, 0, 1, 0.1)


def test_assemble_scaled_group_scale_validation():
    with pytest.raises(DomainError):
        assemble_scaled_group((0.0, 1.0), (2.0, 2.5), 0.5, 1, 1, 0.0,
                              (-1.0, 1.0), 0.1)
    with pytest.raises(DomainError):
        assemble_scaled_group((0.0, 1.0), (2.0, 2.5), 0.5, 1, 1, 2.0,
                              (-1.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# algebra


def test_combo_add_and_scale():
    a = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),))
    b = sh.SHCombo(0.5, (sh.SHBlock(3.0, -0.5),))
    c = sh.combo_add(a, b)
    xs = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(sh.combo_eval(c, xs),
                       sh.combo_eval(a, xs) + sh.combo_eval(b, xs), rtol=1e-14)
    d = sh.combo_scale(a, -2.0)
    assert np.allclose(sh.combo_eval(d, xs), -2.0 * sh.combo_eval(a, xs),
                       rtol=1e-14)


def test_combo_add_rejects_mismatch():
    a = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),))
    b = sh.SHCombo(0.6, (sh.SHBlock(2.0, 1.0),))
    with pytest.raises(DomainError):
        sh.combo_add(a, b)
    c = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0),), interval=(0.0, 1.0))
    with pytest.raises(DomainError):
        sh.combo_add(a, c)


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
    base = sh.solve_derivative_match(DerivSpec(values), sh.default_nodes(3), 0.5)
    group = sh.rescale_for_defect(base, 2, 3, 1.0 / 16.0)
    back = sh.combo_from_json(sh.combo_to_json(group))
    assert back.has_mp_coefficients
    xs = np.linspace(-0.9, 0.9, 11)
    direct = sh.combo_eval(group, xs)
    revived = sh.combo_eval(back, xs)
    assert np.max(np.abs(direct - revived)) <= 1e-10


def test_json_malformed():
    with pytest.raises(DomainError):
        sh.combo_from_json('{"s": 0.5}')
    with pytest.raises(DomainError):
        sh.combo_from_json('{"s": 0.5, "interval": [-1, 1], "blocks": [{"t": 1}]}')
