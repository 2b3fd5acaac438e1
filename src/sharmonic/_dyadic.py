"""Extended precision in Python integers.

Three things the package needs past float64:

* exact binary fractions: integer pairs (m, e) for m 2^e, added by exact_sum,
  and Dyadic, mpmath's normalised raw tuple (sign, odd mantissa, exponent,
  bit count), which mpmath reads as the exact value of any object with it;
* fixed-point logarithms, exponentials and powers of dyadic numbers, each
  an integer X with an error bound E: the true value lies within E units
  of X, as in exact._zone;
* exactly rounded decimal output and input within MAGNITUDE_BITS: the
  digits and bits of mpmath's libmp.to_str and libmp.from_str wherever
  those are exact, as for every artifact the command line writes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator


def round_bits(man: int, exp: int, prec: int, mode: str = "n") -> tuple[int, int]:
    """man 2^exp for an integer man >= 0, rounded to prec bits (prec 0:
    exactly) to nearest with ties to even ("n"), toward zero ("d") or away
    from zero ("u"), as mpmath's normalize: (odd mantissa, exponent), or
    (0, 0) for zero."""
    if not man:
        return 0, 0
    n = man.bit_length() - prec
    if prec and n > 0:
        if mode == "n":
            t = man >> (n - 1)
            man = (t >> 1) + bool(t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)))
        else:
            man = man >> n if mode == "d" else -(-man >> n)
        exp += n
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def rounded_ratio(num: int, den: int, prec: int) -> tuple[int, int, int, int]:
    """The raw tuple of num / den for integers num and den > 0, rounded to
    nearest at prec bits, as mpmath's libmp.from_rational: the quotient of
    at least prec + 5 bits with a sticky bit, rounded once."""
    extra = max(prec - abs(num).bit_length() + den.bit_length() + 5, 5)
    quot, rem = divmod(abs(num) << extra, den)
    m, e = round_bits(2 * quot + bool(rem), -extra - 1, prec)
    return int(num < 0) if m else 0, m, e, m.bit_length()


def to_float(man: int, exp: int) -> float:
    """man 2^exp correctly rounded to float64, +-inf past its range."""
    try:
        return float(man << exp) if exp >= 0 else man / (1 << -exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def exact_sum(terms) -> tuple[int, int]:
    """The exact sum of the numbers m 2^f over the integer pairs (m, f) in
    terms, as (M, e) aligned at their lowest f: M 2^e, or (0, 0) for none."""
    terms = iter(terms)
    total, low = next(terms, (0, 0))
    for m, f in terms:  # one pass: the sum so far is shifted only when f is lower
        total, low = ((total << low - f) + m, f) if f < low else (total + (m << f - low), low)
    return total, low


def _exact_parts(value) -> tuple[int, int] | None:
    """(m, e) with m 2^e exactly a finite Dyadic, mpf, int or float, else None."""
    raw = getattr(value, "_mpf_", None)
    if raw is not None:  # mpmath's inf and nan have mantissa 0 and exponent not 0
        return None if not raw[1] and raw[2] else parts(Dyadic(raw))
    if isinstance(value, int):
        return int(value), 0
    return parts(value) if isinstance(value, float) and math.isfinite(value) else None


class Dyadic:
    """An exact binary fraction (-1)^sign man 2^exp, kept as mpmath's raw
    tuple _mpf_ = (sign, man, exp, bc): man odd, or 0 with exp 0 for zero,
    and bc its bit length.  Equal values have equal tuples, so equality and
    hashing go by the tuple; ordering against finite ints, floats and
    anything with _mpf_ goes by sign and binary magnitude (_rank), and where
    both tie by the sign of the exact difference (exact_sum); float() rounds
    to nearest."""

    __slots__ = ("_mpf_",)

    def __init__(self, raw: tuple[int, int, int, int]):
        self._mpf_ = raw

    @classmethod
    def exact(cls, man: int, exp: int) -> Dyadic:
        """man 2^exp for any integer man."""
        m, e = round_bits(abs(man), exp, 0)
        return cls((int(man < 0), m, e, m.bit_length()))

    def __float__(self) -> float:
        sign, man, exp, _ = self._mpf_
        return to_float(-man if sign else man, exp)

    def __abs__(self) -> Dyadic:
        return Dyadic((0,) + self._mpf_[1:]) if self._mpf_[0] else self

    def __neg__(self) -> Dyadic:
        sign, man, exp, bc = self._mpf_
        return Dyadic((sign ^ 1 if man else 0, man, exp, bc))

    def __add__(self, other):
        """The exact sum of two Dyadics."""
        if not isinstance(other, Dyadic):
            return NotImplemented
        return Dyadic.exact(*exact_sum(parts(v) for v in (self, other) if v))

    def __bool__(self) -> bool:
        return bool(self._mpf_[1])

    def __hash__(self) -> int:
        return hash(self._mpf_)

    def __eq__(self, other):
        return self._mpf_ == other._mpf_ if isinstance(other, Dyadic) else NotImplemented

    def _compare(self, other, op):
        theirs = _exact_parts(other)
        if theirs is None:
            return NotImplemented
        mine = parts(self)
        if _rank(*mine) != _rank(*theirs):  # decided without aligning the two
            return op(_rank(*mine), _rank(*theirs))
        return op(exact_sum((mine, (-theirs[0], theirs[1])))[0], 0)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __repr__(self) -> str:
        return f"Dyadic('{to_str(self._mpf_, 20)}')"


def _rank(m: int, e: int) -> tuple[int, int]:
    """(sign, sign times binary magnitude e + bit length of m) of m 2^e:
    where two ranks differ, the values are in their order."""
    sign = (m > 0) - (m < 0)
    return sign, sign * (e + m.bit_length())


def parts(value) -> tuple[int, int]:
    """(m, e) with m 2^e exactly a Dyadic or a finite float."""
    if isinstance(value, Dyadic):
        sign, man, exp, _ = value._mpf_
        return (-man if sign else man), exp
    num, den = float(value).as_integer_ratio()
    return num, 1 - den.bit_length()


# ---------------------------------------------------------------------------
# fixed-point logarithms, exponentials and powers


def _atanh(p: int, q: int, w: int) -> tuple[int, int]:
    """atanh(p / q) for integers 0 <= 3p <= q as (X, E) at w bits, from its
    series with every step floored.  The first power 2^w p / q lies within
    1 unit, and each next power is p^2 / q^2 <= 1/9 times the one before,
    floored, so within 1/9 of the error before plus 1: within 1 + 1/8
    units.  Each term past the first is its power floored by the odd index,
    within 11/8 units, and the first power to floor to 0 was below 9/8
    units, so the rest of the series from its term on is under 1/2.  With n
    terms past the first that is under 1 + 11 (n - 1) / 8 + 1/2 units in
    all, below E = k + 1 = 2n + 2, k the last odd index.  Each step
    multiplies and divides by small integers only."""
    p2, q2 = p * p, q * q
    power = (p << w) // q
    total, k = power, 1
    while power:
        power = power * p2 // q2
        k += 2
        total += power // k
    return total, k + 1


# precisions of the cached logarithms: from 128 bits up by a quarter each,
# in multiples of 64 bits
_LN_PRECISIONS = tuple(itertools.accumulate(
    range(100), lambda p, _: (p * 5 // 4 + 63) // 64 * 64, initial=128))


@functools.lru_cache(maxsize=4096)
def _ln_int(man: int, w: int) -> tuple[int, int]:
    """ln man for an integer man >= 1 as (X, E) at w bits: ln man = b ln 2 +
    2 atanh((man - 2^b) / (man + 2^b)) with 2^b <= man < 2^(b+1), a ratio
    below 1/3, and ln 2 = 2 atanh(1/3), the same form with b = 0.  E is
    twice _atanh's plus b times the cached ln 2's: at most 2n + 2 units for
    n <= w / 3.17 + 1 terms past the first, so for b <= 11 below 16 w + 144
    units."""
    b = 0 if man == 2 else man.bit_length() - 1
    x, e = _atanh(man - (1 << b), man + (1 << b), w)
    l2, e2 = _ln_int(2, w) if b else (0, 0)
    return 2 * x + b * l2, 2 * e + b * e2


def _ln_cut(man: int, w: int) -> tuple[int, int]:
    """_ln_int cut to w bits from the cached value at the first of
    _LN_PRECISIONS at or past w + 32, so that nearby precisions share one
    table."""
    wq = _LN_PRECISIONS[bisect.bisect_left(_LN_PRECISIONS, w + 32)]
    x, e = _ln_int(man, wq)
    return x >> (wq - w), (e >> (wq - w)) + 2


def fixed_ln(man: int, exp: int, w: int) -> tuple[int, int]:
    """ln(man 2^exp) for an integer man > 0 as (X, E): within E units 2^-w
    of X 2^-w.  man 2^exp = j 2^m rho with j the leading 12 bits of man
    (all of it when shorter, as for every matching node's odd part) and
    rho in [1, 1 + 2^-11): ln j and ln 2 from _ln_cut, and ln rho = 2
    atanh(u), u = (rho - 1) / (rho + 1) < 2^-12, from its series in u^2
    with every product floored: u within 1 unit, each term within 1.34
    units, the tail under 1."""
    k = max(0, man.bit_length() - 12)
    j = man >> k
    (x, e), (l2, e2) = _ln_cut(j, w), _ln_cut(2, w)
    x, e = x + (k + exp) * l2, e + abs(k + exp) * e2
    rest = man - (j << k)
    if rest:
        u = (rest << w) // (man + (j << k))
        u2 = u * u >> w
        term, total, i = u, u, 1
        while term:
            term = term * u2 >> w
            i += 2
            total += term // i
        x, e = x + 2 * total, e + 2 * i + 4
    return x, e


def fixed_exp(z: int, ez: int, w: int) -> tuple[int, int, int]:
    """(X, E, f) with e^y within E units 2^f of X 2^f for every y within
    ez units 2^-w of z 2^-w, for ez < 2^w.

    y = n ln 2 + g with n the integer nearest z / ln 2, so |g| < 0.35, and
    e^g = (e^(g / 2^r))^(2^r), r = max(8, isqrt(w) / 2): the Taylor series
    at w + r + 16 bits, each term floored twice (within 2.01 units, the
    tail under 1), then r squarings, each floored, (X + E)^2 - X^2 =
    (2X + E) E; last, the spread d of g, |e^(g + d) - e^g| <= 2 |d| e^g
    for |d| <= 1.
    """
    l2, e2 = _ln_cut(2, w)
    n = (2 * z + l2) // (2 * l2)
    g, eg = z - n * l2, ez + abs(n) * e2
    r = max(8, math.isqrt(w) // 2)
    wi = w + r + 16
    g <<= 16  # g / 2^r in units 2^-wi
    term = total = 1 << wi
    k = 0
    while term:
        k += 1
        term = (term * g >> wi) // k
        total += term
    err = 3 * k + 2
    for _ in range(r):
        err = ((2 * total + err) * err >> wi) + 2
        total = total * total >> wi
    x, err = total >> (wi - w), (err >> (wi - w)) + 2
    return x, err + (2 * (x + err) * eg >> w) + 1, n - w


def fixed_pow(man: int, exp: int, xn: int, xd: int, w: int) -> tuple[int, int, int]:
    """(man 2^exp)^(xn / xd) for integers man > 0 and xd > 0, as
    fixed_exp's (X, E, f) of x ln b at w bits."""
    lx, le = fixed_ln(man, exp, w)
    return fixed_exp(lx * xn // xd, le * abs(xn) // xd + 2, w)


def pow_box(man: int, exp: int, xn: int, xd: int, w: int) -> tuple[int, int]:
    """Integers lo <= (man 2^exp)^(xn / xd) 2^w <= hi for integers man > 0
    and xd > 0, with the ends mpmath's interval power (mpi_pow) rounds to
    units: an integer power and a square root exactly, any other power from
    fixed_pow at w + 64 bits, where an exact power of two is kept as mpmath's
    interval exponential ends it, on the value above and one unit below."""
    n, rem = divmod(xn, xd)
    if not rem:
        num, den = (man**n, 1) if n >= 0 else (1, man**-n)
        num, den = (num << exp * n + w, den) if exp * n + w >= 0 else (num, den << -exp * n - w)
        return num // den, -(-num // den)
    if 2 * xn == xd and exp + 2 * w >= 0:
        root = math.isqrt(man << exp + 2 * w)
        return root, root + (root * root != man << exp + 2 * w)
    q, rem = divmod(exp * xn, xd)
    if man == 1 and not rem and q + w >= 0:
        return (1 << q + w) - 1, 1 << q + w
    x, e, f = fixed_pow(man, exp, xn, xd, w + 64)
    shift = f + w
    if shift >= 0:
        return (x - e) << shift, (x + e) << shift
    return (x - e) >> -shift, -(-(x + e) >> -shift)


def rounded_pow(base: float, x: float, prec: int) -> Dyadic:
    """base^x for floats base > 0 and -1 < x < 1, rounded to nearest at
    prec bits, where prec >= 53 for x > 0: from fixed_pow's enclosure at
    prec + 32 bits, redone with twice the guard bits while its ends round
    apart.

    That ends unless base^x is a tie at prec bits, which needs a dyadic
    base^x of prec + 1 bits.  Write x = p / 2^k with p odd (x = 0 gives 1),
    base = m 2^e and base^x = n 2^f with m and n odd.  For p < 0, as for
    t^-s, n^(2^k) m^-p = 1 gives n = 1: a dyadic base^x is a power of two,
    never a tie at any prec.  For p > 0, n^(2^k) = m^p with p and 2^k
    coprime, so m = a^(2^k) and n = a^p for an integer a, and n <= m as
    p < 2^k: n has at most m's 53 bits and prec >= 53 leaves no tie.  Past
    |x| < 1 a power of a float has more bits (base^1 is base), so the loop
    could run forever: other arguments raise ValueError."""
    if not (-1 < x <= 0 or (0 < x < 1 and prec >= 53)):
        raise ValueError(f"rounded_pow needs -1 < x <= 0, or 0 < x < 1 and prec >= 53, where "
                         f"base^x is never a tie at prec bits; got x={x!r}, prec={prec}")
    bm, be = parts(base)
    xn, xd = float(x).as_integer_ratio()
    guard = 32
    while True:
        v, e, f = fixed_pow(bm, be, xn, xd, prec + guard)
        man, exp = round_bits(v - e, f, prec)
        if (man, exp) == round_bits(v + e, f, prec):
            return Dyadic((0, man, exp, man.bit_length()))
        guard *= 2


def log10(man: int, exp: int) -> float:
    """log10(man 2^exp) for an integer man > 0, from fixed_ln at 96 bits,
    within a few units of 2^-80 before its rounding to float."""
    return fixed_ln(man, exp, 96)[0] / fixed_ln(5, 1, 96)[0]


# ---------------------------------------------------------------------------
# decimal conversion, exactly rounded

# the largest binary magnitude |exp + bit length| that exact decimal
# conversion takes on, derived in blocks.SHBlock
MAGNITUDE_BITS = 1 << 17


# digits per conversion between int and str, below the 4300 that CPython
# allows by default (sys.int_info.default_max_str_digits); longer numbers
# are converted in pieces, and the process-wide limit is left as it is
_CHUNK = 4000


def _decimal(n: int) -> str:
    """The decimal digits of an integer n >= 0, _CHUNK at a time."""
    pieces = []
    while n.bit_length() > 3 * _CHUNK:  # else n < 2^12000 < 10^_CHUNK
        n, low = divmod(n, 10**_CHUNK)
        pieces.append(f"{low:0{_CHUNK}d}")
    return str(n) + "".join(reversed(pieces))


def _integer(digits: str) -> int:
    """The integer of a string of decimal digits, _CHUNK at a time."""
    head = len(digits) % _CHUNK or _CHUNK
    n = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        n = n * 10**_CHUNK + int(digits[i:i + _CHUNK])
    return n


def dps_to_prec(dps: int) -> int:
    """Bits for dps decimal digits, as mpmath's libmp.dps_to_prec."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def to_str(raw: tuple[int, int, int, int], dps: int) -> str:
    """The exact value of a finite raw tuple rounded half up to dps
    significant digits, in mpmath.nstr's form with strip_zeros=True,
    min_fixed=1 and max_fixed=0 (one digit before the point, an exponent
    unless it is 0): libmp.to_str's text wherever its digits are exact, for
    dps >= int(0.30103 bc) + 5 below 2^3500 in magnitude either way."""
    sign, man, exp, _ = raw
    if not man:
        return "0.0"
    point = math.floor(math.log10(man) + exp * math.log10(2))  # the exponent, or one off
    while True:  # n: the value times 10^(dps - 1 - point) as a / b, rounded half up
        shift = dps - 1 - point
        a, b = (man << max(exp, 0)) * 10 ** max(shift, 0), 10 ** max(-shift, 0) << max(-exp, 0)
        n = (2 * a + b) // (2 * b)
        if 10 ** (dps - 1) <= n < 10**dps:
            break
        point += 1 if n >= 10**dps else -1
    digits = _decimal(n)
    text = f"{'-' if sign else ''}{digits[0]}.{digits[1:].rstrip('0') or '0'}"
    return text + (f"e{point:+d}" if point else "")


def from_str(text: str, prec: int) -> tuple[int, int, int, int]:
    """The raw tuple of a finite decimal literal rounded once to nearest at
    prec bits: mpmath's libmp.from_str(text, prec, round_nearest) where
    libmp's decimal exponent (str_to_man_exp) is at most 400 in magnitude.
    Raises ValueError where float() would, and, before any digit is
    converted, where the value lies past MAGNITUDE_BITS in binary magnitude."""
    x = text.lower().strip()
    float(x)
    mantissa, _, power = x.replace("_", "").partition("e")
    whole, _, frac = mantissa.partition(".")
    k = (int(power) if power else 0) - len(frac)
    digits = (whole.lstrip("+-") + frac).lstrip("0")
    if not digits:
        return 0, 0, 0, 0
    # 10^(d-1) <= |m 10^k| < 10^d for d = k + the digits of m, and 3 < log2 10
    # < 3.33: past this d the binary magnitude is past the bound
    if abs(k + len(digits)) <= MAGNITUDE_BITS // 3 + 2:
        num = -_integer(digits) if whole.startswith("-") else _integer(digits)
        raw = rounded_ratio(num * 10 ** max(k, 0), 10 ** max(-k, 0), prec)
        if abs(raw[2] + raw[3]) <= MAGNITUDE_BITS:
            return raw
    raise ValueError(f"decimal literal {text.strip()[:40]!r} lies past 2^+-{MAGNITUDE_BITS} "
                     f"(_dyadic.MAGNITUDE_BITS), beyond any coefficient a build stores")
