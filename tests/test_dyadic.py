"""Extended precision in integers against mpmath as the independent oracle."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import from_rational, from_str, round_nearest, to_str
from mpmath.libmp.libmpf import str_to_man_exp

from sharmonic import _dyadic
from sharmonic._dyadic import Dyadic

_BASES = st.tuples(st.integers(1, 2**80), st.integers(-200, 200))  # man 2^exp
_EXPONENTS = st.floats(-8.0, 8.0).filter(lambda x: x != 0.0)


def _value(man: int, exp: int) -> mpf:
    return mpf(man) * mpf(2) ** exp


@settings(max_examples=200, deadline=None)
@given(_BASES, _EXPONENTS, st.integers(40, 700))
def test_power_enclosure_contains_the_power(base, x, w):
    man, exp = base
    xn, xd = x.as_integer_ratio()
    v, e, f = _dyadic.fixed_pow(man, exp, xn, xd, w)
    with workprec(w + 40 * 4 + abs(exp) + 200):  # 40 digits past the enclosure
        want = _value(man, exp) ** (mpf(xn) / xd)
        assert abs(mpf(v) * mpf(2) ** f - want) <= mpf(e) * mpf(2) ** f
    # and it is tight: within a few hundred units of 2^f, v of about w bits
    assert e < 2**12 + abs(math.log2(man) + exp) * 2**8 and v.bit_length() >= w - 2


@settings(max_examples=100, deadline=None)
@given(_BASES, st.integers(-40, 40), st.integers(1, 16), st.integers(40, 400))
@example((1, 13), -5, 13, 40)
def test_power_boxes_contain_the_power(base, xn, xd, w):
    man, exp = base
    lo, hi = _dyadic.pow_box(man, exp, xn, xd, w)
    # containment exactly, raised to the power xd: mpmath's xn / xd is
    # rounded, which moves an exact power such as 8192^(-5/13) = 2^-5 off
    # the end that pow_box puts on it
    power = Fraction(man) ** xn * Fraction(2) ** (exp * xn + w * xd)
    assert (lo <= 0 or lo ** xd <= power) and hi > 0 and power <= hi ** xd
    with workprec(w + 400 + abs(xn) * (man.bit_length() + abs(exp))):
        want = _value(man, exp) ** (mpf(xn) / xd) * mpf(2) ** w
    assert hi - lo <= 2 + want * mpf(2) ** -(w + 40)  # tight at its relative precision


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**200), st.integers(-300, 300))
def test_ln_encloses_the_logarithm(man, exp):
    x, e = _dyadic.fixed_ln(man, exp, 160)
    with workprec(400):
        assert abs(mpf(x) / mpf(2) ** 160 - mpmath.log(_value(man, exp))) <= mpf(e) / mpf(2) ** 160


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 50.0), st.floats(-0.99, 0.99).filter(bool), st.integers(60, 600))
def test_rounded_power_is_the_nearest(base, x, prec):
    got = _dyadic.rounded_pow(base, x, prec)
    with workprec(prec + 200):
        exact = mpf(base) ** mpf(x)
    assert got._mpf_ == mpf(exact, prec=prec, rounding="n")._mpf_


def test_rounded_power_where_mpmath_is_one_ulp_off():
    # mpmath's power is not always correctly rounded; here it is one ulp off
    t, s, prec = 2.734375, 0.07843965464114701, _dyadic.dps_to_prec(80)
    with workprec(prec + 200):
        exact = mpf(t) ** -mpf(s)
    with workprec(prec):
        theirs = mpf(t) ** -mpf(s)
    got = _dyadic.rounded_pow(t, -s, prec)
    assert got._mpf_ == mpf(exact, prec=prec, rounding="n")._mpf_ != theirs._mpf_


@st.composite
def _decimals(draw) -> str:
    """Decimal literals of 18-400 significant digits, either sign, with an
    exponent anywhere in [-2000, 2000]."""
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", min_size=17,
                                                               max_size=399))
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-2000, 2000))}"


def _nearest(text: str, prec: int) -> tuple:
    """The exact value of a decimal literal rounded to nearest at prec bits,
    by libmp.from_rational."""
    value = Fraction(text)
    return from_rational(value.numerator, value.denominator, prec, round_nearest)


def _half_up(raw: tuple, dps: int) -> str:
    """nstr's text (strip_zeros, min_fixed=1, max_fixed=0) of the exact
    value of a raw tuple rounded half up to dps digits, from Fractions."""
    sign, man, exp, _ = raw
    if not man:
        return "0.0"
    value = man * Fraction(2) ** exp
    point = math.floor(math.log10(man) + exp * math.log10(2))  # within one of the exponent
    point += (value >= Fraction(10) ** (point + 1)) - (value < Fraction(10) ** point)
    n = math.floor(value / Fraction(10) ** (point - dps + 1) + Fraction(1, 2))
    if n == 10**dps:
        n, point = n // 10, point + 1
    head, tail = str(n)[0], str(n)[1:].rstrip("0") or "0"
    return ("-" if sign else "") + f"{head}.{tail}" + (f"e{point:+d}" if point else "")


def _libmp_formats_exactly(raw: tuple, dps: int) -> bool:
    """libmp.to_str's digits are the exact ones: the mantissa fits in its
    working bits and no power of ten scales the value first."""
    _, man, exp, bc = raw
    return dps >= int(0.30103 * bc) + 5 and abs(exp + bc) <= 3500


@settings(max_examples=300, deadline=None)
@given(_decimals(), st.integers(0, 30))
@example("6.86395437967802538e-565", 10)  # libmp rounds twice, away from the nearest
def test_parse_and_format_match_mpmath(text, extra):
    prec = _dyadic.dps_to_prec(len(text.split("e")[0].lstrip("-")) - 1 + extra)
    raw = _dyadic.from_str(text, prec)
    assert raw == _nearest(text, prec)
    if abs(str_to_man_exp(text)[1]) <= 400:  # libmp rounds once only there
        assert raw == from_str(text, prec, round_nearest)
    digits = max(20, int(raw[3] * 0.30103) + 5)
    assert _dyadic.to_str(raw, digits) == _half_up(raw, digits)
    if _libmp_formats_exactly(raw, digits):
        assert _dyadic.to_str(raw, digits) == mpmath.nstr(
            mpmath.mp.make_mpf(raw), digits, strip_zeros=True, min_fixed=1, max_fixed=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**400, 2**400), st.integers(-5000, 5000), st.integers(1, 120))
@example(2**53 - 1, 3600, 30)  # past 2^3500 libmp divides by an approximate power of ten
@example(5, -1, 1)  # 2.5 to one digit: a tie, rounded up to 3.0
@example(-19, -1, 1)  # -9.5 to one digit carries into the exponent: -1.0e+1
def test_format_matches_mpmath_far_past_float_range(man, exp, digits):
    raw = Dyadic.exact(man, exp)._mpf_
    assert _dyadic.to_str(raw, digits) == _half_up(raw, digits)
    if _libmp_formats_exactly(raw, digits):
        assert _dyadic.to_str(raw, digits) == to_str(raw, digits, strip_zeros=True, min_fixed=1,
                                                      max_fixed=0)


@pytest.mark.parametrize("text", ["1.2345678901234567890e1000000000",
                                  "-1.2345678901234567890e-1000000000"])
def test_parse_refuses_a_literal_past_the_magnitude_bound_before_any_power(text):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"past 2\\^\\+-{_dyadic.MAGNITUDE_BITS}"):
            _dyadic.from_str(text, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # 10^(10^9) alone would take 415 MB


def test_parse_reads_zero_at_any_exponent_and_the_bound_itself():
    assert _dyadic.from_str("0.000e1000000000", 100) == (0, 0, 0, 0)
    top = Dyadic.exact(1, _dyadic.MAGNITUDE_BITS - 1)  # binary magnitude MAGNITUDE_BITS
    _, _, exp, bc = _dyadic.from_str(_dyadic.to_str(top._mpf_, 40), 140)
    assert exp + bc in (_dyadic.MAGNITUDE_BITS - 1, _dyadic.MAGNITUDE_BITS)
    with pytest.raises(ValueError, match="MAGNITUDE_BITS"):
        _dyadic.from_str(_dyadic.to_str(Dyadic.exact(1, _dyadic.MAGNITUDE_BITS)._mpf_, 40), 100)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**300, 2**300), st.integers(-1200, 1200))
def test_dyadic_is_its_exact_value(man, exp):
    c = Dyadic.exact(man, exp)
    exact = Fraction(man) * Fraction(2) ** exp
    with workprec(max(c._mpf_[3], 1)):
        assert mpmath.mpf(c)._mpf_ == c._mpf_  # mpmath reads it back exactly
    assert mpmath.mpmathify(c)._mpf_ == c._mpf_ and mpmath.mp.make_mpf(c._mpf_) == c
    try:
        want = float(exact)
    except OverflowError:
        want = math.copysign(math.inf, man)
    assert float(c) == want  # rounded to nearest, like Fraction
    assert (c < 1) == (exact < 1) and (c >= -2.5) == (exact >= -2.5)
    assert bool(c) == bool(man) and abs(c) == Dyadic.exact(abs(man), exp)
    assert -c == Dyadic.exact(-man, exp) and hash(c) == hash(Dyadic(c._mpf_))
    total = (c + Dyadic.exact(3, -7))._mpf_
    assert (-1) ** total[0] * total[1] * Fraction(2) ** total[2] == exact + Fraction(3, 128)


@pytest.mark.parametrize("text", ["abc", "1.2.3", "", "12345678901234567890abc"])
def test_parse_refuses_what_float_refuses(text):
    with pytest.raises(ValueError):
        _dyadic.from_str(text, 100)


_PAIRS = st.tuples(st.integers(-2**200, 2**200), st.integers(-5000, 5000))  # m 2^f


def _exact(value) -> Fraction:
    """The exact value of an int, a float, or anything with a finite _mpf_."""
    raw = getattr(value, "_mpf_", None)
    if raw is None:
        return Fraction(value)
    sign, man, exp, _ = raw
    return (-1) ** sign * man * Fraction(2) ** exp


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAIRS, max_size=8))
def test_exact_sum_is_the_fraction_sum(terms):
    total, low = _dyadic.exact_sum(iter(terms))
    assert low == min((f for _, f in terms), default=0)
    assert total * Fraction(2) ** low == sum((m * Fraction(2) ** f for m, f in terms),
                                             Fraction(0))


_DYADICS = st.builds(Dyadic.exact, st.integers(-2**200, 2**200), st.integers(-5000, 5000))
_ORDERED = st.one_of(
    st.integers(-2**1100, 2**1100), st.floats(allow_nan=False, allow_infinity=False),
    _DYADICS, _DYADICS.map(lambda c: mpmath.mp.make_mpf(c._mpf_)))


@settings(max_examples=400, deadline=None)
@given(_DYADICS, _ORDERED)
@example(Dyadic.exact(0, 0), 0.0)
@example(Dyadic.exact(0, 0), -0.0)
@example(Dyadic.exact(-1, -1074), -5e-324)
@example(Dyadic.exact(3, 4), 48)
@example(Dyadic.exact(3, 4), mpf(48))
@example(Dyadic.exact(1, 5000), 1e308)
def test_dyadic_order_is_the_exact_order(c, other):
    a, b = _exact(c), _exact(other)
    assert [c < other, c <= other, c > other, c >= other] == [a < b, a <= b, a > b, a >= b]
    assert [other > c, other >= c, other < c, other <= c] == [a < b, a <= b, a > b, a >= b]


@pytest.mark.parametrize("other", [math.inf, -math.inf, math.nan, "1", None])
def test_dyadic_refuses_to_order_against_a_nonfinite_float_or_a_non_number(other):
    for compare in (lambda c: c < other, lambda c: c >= other, lambda c: other > c):
        with pytest.raises(TypeError):
            compare(Dyadic.exact(3, -1))


@pytest.mark.parametrize("c, other, sign", [  # sign: of c - other
    (Dyadic.exact(3, -1), mpmath.mp.make_mpf((0, 1, 2**27, 1)), -1),
    (Dyadic.exact(-3, 2**27), -1.0, -1),
    (Dyadic.exact(3, -2**27), 5e-324, -1),
    (Dyadic.exact(1, 2**27), 1e308, 1),
    (Dyadic.exact(-1, -2**27), -5e-324, 1)])
def test_dyadic_orders_values_far_apart_without_aligning_them(c, other, sign):
    tracemalloc.start()
    try:
        got = [c < other, c <= other, c > other, c >= other, other > c]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [sign < 0, sign <= 0, sign > 0, sign >= 0, sign < 0]
    assert peak < 2**16  # aligned at one exponent they would take 16 MB
