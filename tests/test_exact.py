"""Certified canonical-constant evaluation and exact residual bounds."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workdps, workprec

import sharmonic as sh
from conftest import canonical_constant_closed_form, power_block_reference
from sharmonic import exact
from sharmonic.errors import DomainError


# ---------------------------------------------------------------------------
# canonical constant


@pytest.mark.parametrize("s", [0.25, 0.4, 0.5, 0.61, 0.75])
def test_canonical_constant_vanishes_when_power_equals_exponent(s):
    # the block (z + t)_+^s is annihilated by the operator, so the constant
    # must vanish; the evaluation never assumes that cancellation, so a
    # certified near-zero here is evidence, not tautology
    value, err = sh.canonical_constant(s, s, dps=40)
    assert abs(value) <= err
    assert err < 1e-38


@pytest.mark.parametrize(
    "p,s",
    [(0.3, 0.45), (0.8, 0.55), (0.2, 0.61), (1.1, 0.7), (0.05, 0.35)],
)
def test_canonical_constant_matches_gamma_closed_form(p, s):
    # [DERIVED] Mellin-continuation closed form computed by an entirely
    # separate code path (three Gamma evaluations, no quadrature)
    value, err = sh.canonical_constant(p, s, dps=40)
    closed = canonical_constant_closed_form(p, s, dps=50)
    assert abs(value - closed) <= err + mpf("1e-38")
    # the reported error bound is honest but not absurdly loose
    assert err < 1e-30


def test_canonical_constant_error_bound_shrinks_with_precision():
    _, err_lo = sh.canonical_constant(0.3, 0.45, dps=20)
    _, err_hi = sh.canonical_constant(0.3, 0.45, dps=40)
    assert err_hi < float(err_lo) * 1e-10


def test_canonical_constant_sign_for_small_power():
    # p < s removes mass from the cancellation, leaving a positive constant:
    # concavity of w -> (1+w)^p for p < 1 makes 2 - (1+w)^p - (1-w)^p >= 0
    value, err = sh.canonical_constant(0.2, 0.5, dps=30)
    assert value > err


def test_canonical_constant_rejects_nonconvergent_powers():
    with pytest.raises(DomainError):
        sh.canonical_constant(1.2, 0.5, dps=30)  # p >= 2s: tail diverges
    with pytest.raises(DomainError):
        sh.canonical_constant(0.0, 0.5, dps=30)  # p <= 0: origin diverges
    with pytest.raises(DomainError):
        sh.canonical_constant(-0.3, 0.5, dps=30)
    with pytest.raises(DomainError):
        sh.canonical_constant(0.5, 0.0, dps=30)
    with pytest.raises(DomainError):
        sh.canonical_constant(0.5, 1.0, dps=30)


@pytest.mark.parametrize("p,s,want", [
    (0.5, 0.75, lambda s: mpf(2) / 3),               # -Gamma(-3/2) / Gamma(-1/2)
    (1.0, 0.7, lambda s: 1 / (2 * s * (1 - 2 * s))),  # -Gamma(-2s) / Gamma(2 - 2s)
])
def test_closed_form_through_denominator_poles(p, s, want):
    # 1 + p - 2s = 0 and -p = -1 are poles of denominator Gammas, where
    # 1/Gamma vanishes and the closed form stays valid
    value, err = sh.canonical_constant(p, s, dps=40)
    closed = canonical_constant_closed_form(p, s, dps=60)
    assert abs(value - closed) <= err
    with workdps(60):
        assert abs(closed - want(mpf(s))) < mpf(10) ** -55


def test_closed_form_reports_gamma_poles():
    # 2s integer: Gamma(-2s) pole
    with pytest.raises(DomainError):
        canonical_constant_closed_form(0.3, 0.5)
    # 2s - p a nonpositive integer: Gamma(2s - p) pole
    with pytest.raises(DomainError):
        canonical_constant_closed_form(1.5, 0.75)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.01, 0.99), st.integers(20, 120))
def test_canonical_constant_error_bound_is_honest(s, frac, dps):
    # s near 0 and 1 included; p = frac * 2s stays inside (0, 2s)
    p = 2 * s * frac
    value, err = sh.canonical_constant(p, s, dps)
    assert err < mpf(10) ** -dps
    zero, zero_err = sh.canonical_constant(s, s, dps)
    assert abs(zero) <= zero_err
    if s == 0.5:
        return  # Gamma(-2s) pole of the closed form, not of Phi
    closed = canonical_constant_closed_form(p, s, dps + 40)
    assert abs(value - closed) <= err


@settings(max_examples=30, deadline=None)
@given(st.floats(0.02, 0.98), st.integers(20, 340))
def test_canonical_constant_bound_is_tight_at_p_equal_s(s, dps):
    # five tails below 10^-(dps+10) each, plus the running rounding bounds
    # at dps + 15 digits, stay below 10^-(dps+9)
    value, err = sh.canonical_constant(s, s, dps)
    assert abs(value) <= err <= mpf(10) ** -(dps + 9)


@pytest.mark.parametrize("p,s,dps", [(0.3, 0.45, 40), (0.8, 0.55, 80), (1.9, 0.98, 30),
                                     (0.03, 0.02, 60)])
def test_canonical_constant_covers_its_rounding_at_few_guard_digits(monkeypatch, p, s, dps):
    # at 11 guard digits the rounding outweighs the tails (together below
    # 10^-(dps+9)), so only the running bound can cover the error
    monkeypatch.setattr(exact, "_GUARD_DIGITS", 11)
    monkeypatch.setattr(exact, "_phi_cache", {})
    value, err = sh.canonical_constant(p, s, dps)
    assert err > mpf(10) ** -(dps + 9)
    closed = canonical_constant_closed_form(p, s, dps + 40)
    assert abs(value - closed) <= err


def test_canonical_constant_never_calls_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_constant must sum series, not integrate")

    monkeypatch.setattr(mpmath, "quad", refuse)
    monkeypatch.setattr(exact, "_phi_cache", {})
    for p, s in [(0.3, 0.45), (0.5, 0.5), (0.03, 0.02), (1.9, 0.98)]:
        value, err = sh.canonical_constant(p, s, dps=60)
        assert err < 1e-60


def test_canonical_constant_series_stop_at_their_term_cap(monkeypatch):
    monkeypatch.setattr(exact, "_MAX_TERMS", 20)
    monkeypatch.setattr(exact, "_phi_cache", {})
    with pytest.raises(ArithmeticError):
        sh.canonical_constant(0.3, 0.45, dps=40)


def test_canonical_constant_is_cached():
    first = sh.canonical_constant(0.33, 0.44, dps=30)
    second = sh.canonical_constant(0.33, 0.44, dps=30)
    assert first[0] is second[0]
    assert first[1] is second[1]


# ---------------------------------------------------------------------------
# power block reference


def test_power_block_reference_against_direct_quadrature():
    # [DERIVED] evaluate the defining integral head-on with adaptive
    # arbitrary-precision quadrature: no zone series, no scaling reduction.
    # A small cutoff at the origin avoids catastrophic cancellation in the
    # second difference; its contribution is bounded analytically.
    t, p, s = 2.0, 0.8, 0.55
    with workdps(60):
        tm, pm, sm = mpf(t), mpf(p), mpf(s)
        two_u0 = 2 * tm**pm

        def u(z):
            zz = z + tm
            return zz**pm if zz > 0 else mpf(0)

        def integrand(y):
            return (two_u0 - u(y) - u(-y)) * y ** (-1 - 2 * sm)

        cut = mpf("1e-12")
        inner = mpmath.quad(integrand, [cut, mpf("0.5"), tm])
        outer = mpmath.quad(integrand, [tm, 10, mpmath.inf])
        # |2 u(0) - u(y) - u(-y)| <= |p (p-1)| t^(p-2) y^2 on [0, cut]
        remainder = abs(pm * (pm - 1)) * tm ** (pm - 2) * cut ** (2 - 2 * sm) / (2 - 2 * sm)
        direct = float(inner + outer)
        assert float(remainder) < 1e-11
    ref = power_block_reference(t, p, s, 0.0)
    assert ref == pytest.approx(direct, rel=1e-10)


def test_power_block_reference_point_dependence():
    # the reduction predicts a pure power law in the distance to the kink
    t, p, s = 1.5, 0.6, 0.45
    r1 = power_block_reference(t, p, s, 0.0)
    r2 = power_block_reference(t, p, s, 2.0)
    expected_ratio = ((2.0 + t) / t) ** (p - 2 * s)
    assert r2 / r1 == pytest.approx(expected_ratio, rel=1e-12)


def test_power_block_reference_outside_smooth_region():
    with pytest.raises(DomainError):
        power_block_reference(1.0, 0.6, 0.45, -1.0)
    with pytest.raises(DomainError):
        power_block_reference(1.0, 0.6, 0.45, -2.0)


# ---------------------------------------------------------------------------
# residual bounds for block combinations


def _residual_with_phi(combo, xs):
    """combo_residual(combo, xs) and the (Phi, error) it used, recorded at
    the precision it chose."""
    used = []
    original = exact.canonical_constant

    def record(p, s, dps):
        used.append(original(p, s, dps))
        return used[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "canonical_constant", record)
        got = sh.combo_residual(combo, xs)
    ((phi, err),) = used
    return got, phi, err


def _exact_products(combo, xs, phi, err, dps=80):
    """(|Phi| + err) times the cancellation mass at each x, at dps digits,
    with each r_k x + t_k formed exactly."""
    with workdps(dps):
        bound, sm = abs(phi) + abs(err), mpf(combo.s)
        return [bound * mpmath.fsum(
            abs(mpf(b.c)) * mpf(b.r) ** (2 * sm) * mpmath.fadd(
                mpmath.fmul(mpf(b.r), mpf(float(x)), exact=True), mpf(b.t), exact=True) ** -sm
            for b in combo.blocks) for x in xs]


def _assert_within_slack(got, wants):
    """exact <= got <= exact (1 + delta) at each point, delta = 2^-51 +
    2^-103 < 4.45e-16 as combo_residual derives it; below 2^-1022 the result
    is rounded up to the subnormal grid, so it may sit one subnormal step
    above that."""
    delta = mpf(4.45e-16)
    with workdps(80):
        for value, want in zip(got, wants):
            assert want <= mpf(value) <= want * (1 + delta) + mpf(2) ** -1074


def test_combo_residual_matches_hand_reduction():
    s = 0.5
    combo = sh.SHCombo(
        s,
        (sh.SHBlock(2.0, 3.0, 1.0), sh.SHBlock(1.5, -4.0, 0.5)),
    )
    xs = np.array([0.0, 0.7])
    got, phi, err = _residual_with_phi(combo, xs)
    with workdps(60):
        wants = []
        for x in xs:
            acc = mpf(0)
            for b in combo.blocks:
                xi = mpf(x) + mpf(b.t) / mpf(b.r)
                acc += abs(mpf(b.c)) * mpf(b.r) ** mpf(s) * xi ** (-mpf(s))
            wants.append((abs(phi) + abs(err)) * acc)
    _assert_within_slack(got, wants)


_FLOAT_BLOCKS = st.lists(
    st.builds(sh.SHBlock, t=st.floats(1.5, 4.0), c=st.floats(-10.0, 10.0),
              r=st.floats(0.0, 1.0, exclude_min=True)),
    min_size=1, max_size=6)
# with adjacent floats, whose arguments r x + t round to the same 53 bits
_POINTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20).map(
    lambda xs: xs + [math.nextafter(x, math.inf) for x in xs[:3]] + [0.0, 5e-324])


@st.composite
def _blocks_and_points_by_the_kink(draw):
    """Float blocks, points in [-1, 1], and a few points one to four ulps
    right of the blocks' rightmost kink, where the mass is largest."""
    blocks = draw(_FLOAT_BLOCKS)
    xs = draw(_POINTS)
    for ulps in draw(st.lists(st.integers(1, 4), max_size=3)):
        x = max(b.kink for b in blocks)
        for _ in range(ulps):
            x = math.nextafter(x, math.inf)
        xs.append(x)
    return blocks, xs


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), _FLOAT_BLOCKS, _POINTS)
def test_combo_residual_is_nonincreasing_in_x(s, blocks, xs):
    # every term of the cancellation mass decreases in x, which is what
    # lets approximate certify [-1, 1] from its left end alone
    res = sh.combo_residual(sh.SHCombo(s, tuple(blocks)), np.sort(xs))
    assert np.all(np.diff(res) <= 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), _blocks_and_points_by_the_kink())
def test_combo_residual_is_never_below_the_exact_product(s, blocks_and_points):
    blocks, xs = blocks_and_points
    got, phi, err = _residual_with_phi(sh.SHCombo(s, tuple(blocks)), xs)
    with workdps(60):
        bound, sm = abs(phi) + abs(err), mpf(s)
        for x, value in zip(xs, got):
            mass = mpmath.fsum(abs(mpf(b.c)) * mpf(b.r) ** sm
                               * (mpf(x) + mpf(b.t) / mpf(b.r)) ** -sm for b in blocks)
            assert mpf(value) >= bound * mass


@pytest.mark.parametrize("t, r", [(1.0, 7e-6), (2.0, 3e-7)])
def test_combo_residual_holds_at_the_float_next_to_a_kink(t, r):
    # rounding the offset t/r would be amplified by (t/r) / (x + t/r) here,
    # past the slack; the exactly formed r x + t is not
    block = sh.SHBlock(t, 1.0, r)
    x = math.nextafter(block.kink, math.inf)
    (got,), phi, err = _residual_with_phi(sh.SHCombo(0.5, (block,)), [x])
    with workdps(80):
        want = (abs(phi) + abs(err)) * mpf(r) ** mpf(0.5) * (mpf(x) + mpf(t) / mpf(r)) ** -mpf(0.5)
        assert mpf(got) >= want


def test_combo_residual_raises_each_scale_once_with_the_same_digits():
    xs = [-1.0, -0.25, 0.0, 0.8]
    pipeline, _ = sh.approximate(sh.target_from_spec("sin"), 1e-4, 0.3)
    hand = sh.SHCombo(0.7, tuple(sh.SHBlock(t, c, r) for t, c, r in (
        (2.0, 1.5, 0.1), (2.5, -3.0, 1.0 / 3.0), (3.0, 0.25, 0.1), (2.25, 7.0, 1.0 / 3.0),
        (4.0, -1e30, 2.0**-40))))
    # the pipeline matches every monomial at one scale; the hand-built
    # combination keeps the path of several scales covered
    assert len(pipeline.groups) == 1
    assert len(hand.groups) >= 2
    for combo in (pipeline, hand):
        got, phi, err = _residual_with_phi(combo, xs)
        _assert_within_slack(got, _exact_products(combo, xs, phi, err))


def test_combo_residual_single_block_is_certifiably_tiny():
    # one block is exactly annihilated; the residual bound inherits the
    # certified smallness of the canonical constant
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0, 1.0),))
    res = sh.combo_residual(combo, np.array([0.0, 0.5, 3.0]))
    assert np.all(res < 1e-20)
    assert np.all(res >= 0.0)


def test_combo_residual_rejects_points_at_or_past_kinks():
    combo = sh.SHCombo(0.5, (sh.SHBlock(1.0, 1.0, 0.5),))  # kink at -2
    with pytest.raises(DomainError):
        sh.combo_residual(combo, np.array([-2.0]))
    with pytest.raises(DomainError):
        sh.combo_residual(combo, np.array([-3.0]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
def test_combo_residual_refuses_a_nonfinite_point(x):
    combo = sh.SHCombo(0.5, (sh.SHBlock(1.0, 1.0, 0.5),))
    with pytest.raises(DomainError, match="points must be finite"):
        sh.combo_residual(combo, x)


def test_ceil_log10_is_exact_next_to_powers_of_ten():
    # the float estimate is low for 285 of 10^k - 1, 10^k and 10^k + 1, and
    # for v 2^53 2^-53 also high for some, so both correction loops run
    misses = set()
    for k in range(1, 300):
        for v in (10**k - 1, 10**k, 10**k + 1):
            want = len(str(v - 1))  # 10^(want - 1) < v <= 10^want
            for m, n in ((v, 0), (v << 53, -53)):
                assert exact._ceil_log10(m, n) == want
                misses.add(math.ceil(math.log10(m) + n * math.log10(2.0)) - want)
    assert misses == {-1, 0, 1}


def test_combo_residual_empty_combo_is_zero():
    combo = sh.SHCombo(0.5, ())
    res = sh.combo_residual(combo, np.array([-5.0, 0.0, 5.0]))
    assert res.shape == (3,)
    assert np.all(res == 0.0)


@pytest.mark.parametrize("man, exp, want", [
    (0, 5, 0.0),
    (2**53 + 1, 0, 2.0**53 + 2),  # 54 bits round up, not to even
    (2**53 - 1, 0, 2.0**53 - 1),  # exact
    (1, -1074, 5e-324),
    (3, -1075, 1e-323),  # half-way between two subnormals
    (1, -2000, 5e-324),  # below the smallest subnormal
    (2**60 + 1, -1090, 2.0**-1030 + 2.0**-1074),  # subnormal: up at 2^-1074
    (2**53 - 1, 971, sys.float_info.max),
    (2**53 + 1, 971, math.inf),
    (1, 1024, math.inf),
])
def test_float_up_rounds_up_on_every_grid(man, exp, want):
    assert exact._float_up(man, exp) == want


def test_combo_residual_accepts_scalars():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0, 1.0),))
    res = sh.combo_residual(combo, 0.0)
    assert res.shape == (1,)


def test_combo_residual_handles_huge_coefficients():
    # rescaled blocks carry coefficients far beyond float overflow of any
    # naive quadrature; the exact reduction stays finite and meaningful
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1e120, 1e-6),))
    res = sh.combo_residual(combo, np.array([0.0]))
    assert np.isfinite(res[0])
    expected_mass = 1e120 * (1e-6) ** 0.5 * (2.0 / 1e-6) ** -0.5
    phi, err = sh.canonical_constant(0.5, 0.5, dps=160)
    assert res[0] == pytest.approx(float(abs(phi) + err) * expected_mass, rel=1e-6)


def test_combo_residual_mass_at_fixed_precision_matches_60_digits():
    # a pipeline combo: 13 blocks at one scale, with mp coefficients whose
    # digits float64 cannot hold
    combo, _ = sh.approximate(sh.target_from_spec("exp"), 1e-8, 0.5)
    assert len(combo.blocks) == 13
    xs = np.linspace(-1.0, 1.0, 23)[1:-1]
    got, phi, err = _residual_with_phi(combo, xs)
    with workdps(60):
        sm = mpf(0.5)
        wants = []
        for x in xs:
            acc = mpf(0)
            for b in combo.blocks:
                xi = mpf(x) + mpf(b.t) / mpf(b.r)
                acc += abs(mpf(b.c)) * mpf(b.r) ** sm * xi ** (-sm)
            wants.append((abs(phi) + abs(err)) * acc)
    _assert_within_slack(got, wants)


def test_combo_residual_covers_the_mass_of_ten_thousand_float_blocks():
    rng = np.random.default_rng(7)
    blocks = tuple(sh.SHBlock(float(t), float(c), float(r)) for t, c, r in zip(
        rng.uniform(1.5, 4.0, 10050), rng.uniform(-10.0, 10.0, 10050),
        rng.uniform(1e-3, 1.0, 10050)))
    combo = sh.SHCombo(0.5, blocks)
    got, phi, err = _residual_with_phi(combo, [-1.0])
    _assert_within_slack(got, _exact_products(combo, [-1.0], phi, err, dps=60))


def _coefficient(mantissa: float, exponent: int):
    """A float, or an mpf of 200 bits mantissa * 10^exponent."""
    if exponent == 0:
        return mantissa
    with workprec(200):
        return mpf(mantissa) * mpf(10) ** exponent + mpf(mantissa) / 3


_WIDE_BLOCKS = st.lists(
    st.builds(sh.SHBlock, t=st.floats(1.5, 4.0),
              c=st.builds(_coefficient, st.floats(-10.0, 10.0),
                          st.one_of(st.just(0), st.integers(-400, 400))),
              r=st.floats(0.0, 1.0, exclude_min=True)),
    min_size=1, max_size=6)


@st.composite
def _wide_combos_on_dense_grids(draw):
    """s in [0.02, 0.98]; float and mpf coefficients with |c| from 1e-400 to
    1e400; a dense sorted grid on [-1, 1] and points one to four ulps right
    of the rightmost kink."""
    blocks = draw(_WIDE_BLOCKS)
    xs = list(np.linspace(-1.0, 1.0, draw(st.integers(2, 400))))
    for ulps in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        x = max(b.kink for b in blocks)
        for _ in range(ulps):
            x = math.nextafter(x, math.inf)
        xs.append(x)
    return sh.SHCombo(draw(st.floats(0.02, 0.98)), tuple(blocks)), np.sort(xs)


@settings(max_examples=30, deadline=None)
@given(_wide_combos_on_dense_grids())
def test_combo_residual_is_within_twice_the_slack_of_80_digits(combo_and_points):
    combo, xs = combo_and_points
    got, phi, err = _residual_with_phi(combo, xs)
    picks = sorted({0, 1, 2, xs.size // 2, xs.size - 1})
    _assert_within_slack(got[picks], _exact_products(combo, xs[picks], phi, err))
    assert np.all(np.diff(got) <= 0.0)
    # a point's value does not depend on the array it is evaluated in: the
    # largest mass sets Phi's precision, and with the same Phi every point
    # alone gives the bits it gives in the array
    (first,), _, _ = _residual_with_phi(combo, xs[0])
    assert first == got[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "canonical_constant", lambda p, s, dps: (phi, err))
        for i in picks:
            assert sh.combo_residual(combo, xs[i:i + 1])[0] == got[i]


@settings(max_examples=30, deadline=None)
@given(st.floats(0.02, 0.98), _WIDE_BLOCKS, _POINTS)
def test_mass_encloses_the_powers_of_the_rounded_arguments(s, blocks, xs):
    # each term's upper lies within the factor 1 + 2^(19-w) < 1 + 2^-100 of
    # |c_k| r_k^(2s) a'^-s, a' = r_k x + t_k rounded down to 53 bits, far
    # closer than the float rounding of the result could show
    combo = sh.SHCombo(s, tuple(blocks))
    with workdps(80):
        sm = mpf(s)
        for x, (m, e) in zip(xs, exact._mass(combo, np.array(xs))):
            want = mpmath.fsum(abs(mpf(b.c)) * mpf(b.r) ** (2 * sm) * mpf(mpmath.fadd(
                mpmath.fmul(mpf(b.r), mpf(x), exact=True), mpf(b.t), exact=True),
                prec=53, rounding="f") ** -sm for b in blocks)
            assert want <= mpmath.ldexp(mpf(m), e) <= want * (1 + mpf(2) ** -100)
