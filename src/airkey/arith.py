"""Arbitrary-precision decimal arithmetic for the protocol signal path.

Everything the protocols transmit is a real number carried as a base-10
``decimal.Decimal``.  Base-10 matters: the digit-agreement analysis of the
eavesdropper reasons about decimal digits, so a binary significand would make
those statements untestable.

One rule decides how many digits to carry.  A :class:`PrecisionContext` of
``digits`` digits has the tolerance exponent ``T = digits // 4``: a value is
accepted as an integer when it lies within ``10**-T`` of one.  A value whose
result has ``m`` integer digits is carried at

    max(digits, m + T + 2 * GUARD)

digits, so at least its integer part and ``T + 2 * GUARD`` fractional
digits are resolved.  :meth:`PrecisionContext.sized` applies the rule, and
only the one sizing step of every exchange,
:func:`airkey.halfduplex.sized_exchange`, calls it, so the logs a protocol
takes carry every digit the product needs.  That step alone decides what
happens to a product whose decimal exponent lies beyond ``MAX_EXPONENT``:
it leaves the context unsized.  ``ln`` and ``exp`` are pure kernels: they
round to ``ctx.digits`` and never choose a precision; ``exp`` raises
:class:`Overflow` for a result beyond ``MAX_EXPONENT`` either way, before
any digit is computed.  Ambient ``+``/``*``/``/`` run at ``digits + GUARD``
(:meth:`PrecisionContext.local`) so sums of logs keep their digits.

``ln`` and ``exp`` take and return Decimals but compute in binary fixed
point on Python ints (Brent and Zimmermann, *Modern Computer Arithmetic*,
ch. 4): the argument becomes an int scaled by 2**w, with w the bits of the
carried digits plus guard bits; it is reduced by multiples of ln 10 and
ln 2 and summed as a series.  Every kernel step carries a bound on its
error, and libmpdec rounds both ends of that error bracket half-even to the
carried digits; when they disagree the result is computed again with twice
the guard bits (Ziv's test).  Results are therefore correctly rounded,
within 0.5 ulp and inside the 2-ulp contract, and equal libmpdec's
``Decimal.ln``/``Decimal.exp`` digit for digit and exponent for exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    localcontext,
)
from functools import cache

from .errors import NonPositiveInput, Overflow

# Real-valued signals are plain Decimals; the alias marks intent in signatures.
BigReal = Decimal

_LN10 = math.log(10)
_EMAX = 10**9

# Products and sums of finite decimals are finite decimals: with unbounded
# precision and exponents they never round, and Inexact is trapped if one does.
EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, InvalidOperation]
)

# Headroom in digits: a sized value keeps 2 * GUARD fractional digits below
# the tolerance, and ambient arithmetic GUARD digits beyond the carried ones.
GUARD = 16

# Bound on the decimal exponent of any value the rule sizes, so no log or
# exponential is ever asked for millions of digits.
MAX_EXPONENT = 1_000_000


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for all transcendental arithmetic.

    digits
        significant decimal digits carried (>= 16); no value is ever carried
        at fewer.
    """

    digits: int = 50

    def __post_init__(self):
        if self.digits < 16:
            raise ValueError("precision context needs at least 16 digits")

    @property
    def tolerance(self) -> Decimal:
        """Integer-rounding tolerance 10^-T, T = digits // 4.

        Leaves large headroom over the 2-ulp arithmetic error while still
        rejecting genuinely corrupted values.
        """
        return Decimal(1).scaleb(-(self.digits // 4))

    def sized(self, m: int) -> "PrecisionContext":
        """This context carrying ``max(digits, m + T + 2 * GUARD)`` digits.

        ``m`` is the number of integer digits of the result.  Exponentiating
        amplifies any error in its argument by the size of the result, so
        the log-domain inputs must already carry as many digits as the
        product will have; the caller bounds ``m``.
        """
        return PrecisionContext(max(self.digits, m + self.digits // 4 + 2 * GUARD))

    def local(self):
        """Run ambient Decimal arithmetic at ``digits + GUARD`` digits.

        Plain ``+``/``*`` on Decimals obey the thread's current context
        (28 digits by default), so callers composing BigReals must wrap the
        arithmetic:  ``with ctx.local(): y = ln(a, ctx) + ln(b, ctx)``.
        ``localcontext`` installs a copy of the shared :attr:`ambient`
        context, so the block may change its copy freely.
        """
        return localcontext(self.ambient)

    @property
    def ambient(self) -> Context:
        """The shared context of :meth:`local`, for one-off operations.

        ``ctx.ambient.divide(a, b)`` rounds as ``a / b`` does inside
        ``ctx.local()`` without installing a context.
        """
        return _context(self.digits + GUARD)


@cache
def _context(prec: int) -> Context:
    """The decimal context of ``prec`` digits, built once per precision.

    Rounds half-even with exponents bounded by ``10**9``.  Every caller
    shares the one instance: nothing may set its ``prec``, rounding or
    traps, and the flags its operations raise are never read.
    """
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emax=_EMAX, Emin=-_EMAX)


def to_bigreal(value) -> BigReal:
    """Convert int/str/float/Decimal to a BigReal without binary noise."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(value))
    return Decimal(value)


def ln(x: BigReal, ctx: PrecisionContext) -> BigReal:
    """Natural logarithm of ``x`` (> 0), correctly rounded to ctx.digits.

    The binary fixed-point kernel rounds half-even, within 0.5 ulp, so the
    result is inside the 2-ulp contract; ``ln(1)`` is exactly ``0``.
    """
    x = to_bigreal(x)
    if not x.is_finite() or x <= 0:
        raise NonPositiveInput(f"ln requires a positive finite input, got {x}")
    if x == 1:
        return Decimal(0)
    e = x.as_tuple().exponent
    c = int(x.scaleb(-e, EXACT))
    # Split off the decimal exponent away from 1, where ln x = ln(x/10^j) +
    # j ln 10 cannot cancel; near 1 keep x whole so no power of 10 is huge.
    adjusted = x.adjusted()
    j = adjusted if abs(adjusted) > 1 else 0
    f = e - j
    num, den = (c * 10**f, 1) if f >= 0 else (c, 10**-f)
    return _correctly_rounded(lambda w: _ln_kernel(num, den, j, w), ctx.digits)


def exp(x: BigReal, ctx: PrecisionContext) -> BigReal:
    """e**x, correctly rounded to ``ctx.digits``.

    The binary fixed-point kernel rounds half-even, within 0.5 ulp, so the
    result is inside the 2-ulp contract; ``exp(0)`` is exactly ``1``.  It
    carries ``ctx.digits`` whatever the result's size: a result with more
    integer digits than that is rounded in its integer part, so callers
    size ``ctx`` first.  A result whose decimal exponent lies beyond
    ``MAX_EXPONENT`` raises :class:`Overflow`.
    """
    x = to_bigreal(x)
    if not x.is_finite():
        raise NonPositiveInput(f"exp requires a finite input, got {x}")
    if x.adjusted() > 18:
        raise Overflow(f"exp argument {x} is out of any representable range")
    approx = float(x)
    magnitude = math.floor(approx / _LN10)  # decimal exponent of the result
    if abs(magnitude) > MAX_EXPONENT:
        raise Overflow(f"result exponent {magnitude} exceeds bound {MAX_EXPONENT}")
    if x.is_zero():
        return Decimal(1)
    # bits that x / ln 2 and the reduction's error take up: 2**nb >= 4 (|x| + 16)
    nb = (int(abs(approx)) + 16).bit_length() + 2
    return _correctly_rounded(lambda w: _exp_kernel(x, nb, w), ctx.digits)


# --- binary fixed-point kernel -------------------------------------------
#
# A fixed-point value is an int v standing for v / 2**w.  Each kernel
# function returns its result with a bound on its error in units of 2**-w,
# and _correctly_rounded evaluates at the bits of the requested digits plus
# guard bits until the bound decides the half-even rounding (Ziv's test).
# ln x and e**x are transcendental for every rational x other than 1 and 0,
# so no result lies exactly on a rounding boundary and the loop ends.

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_ZIV_GUARD = 32  # guard bits of the first try

# Machin-type formulas: ln 2 and ln 10 as sums of c * acoth(q).
_MACHIN = {
    "ln2": ((18, 26), (-2, 4801), (8, 8749)),
    "ln10": ((46, 31), (34, 49), (20, 161)),
}
# name -> (constant * 2**bits, bits), at the widest precision computed so far
_CONSTANTS: dict[str, tuple[int, int]] = {}


def _acoth(q: int, w: int) -> int:
    """acoth(q) * 2**w for an integer q > 1, low by less than its terms + 2."""
    q2 = q * q
    term = (1 << w) // q
    total, k = term, 3
    while term:
        term //= q2
        total += term // k
        k += 2
    return total


def _constant(name: str, w: int) -> int:
    """ln 2 or ln 10 times 2**w, within 3 units.

    Computed on first use and kept at the widest precision asked for so
    far; narrower requests shift it down.
    """
    value, bits = _CONSTANTS.get(name, (0, 0))
    if bits < w:
        bits = max(w, 2 * bits)
        extra = bits.bit_length() + 10  # the acoth sums' error stays below 1.2
        value = sum(c * _acoth(q, bits + extra) for c, q in _MACHIN[name]) >> extra
        _CONSTANTS[name] = value, bits
    return value >> (bits - w)


def _exp_fixed(t: int, w: int) -> tuple[int, int]:
    """e**(t / 2**w) * 2**w for |t| <= 2**w, and its error bound in units.

    The argument is read at s more fractional bits, which halves it s times
    exactly; its Taylor series is summed at v = w + s + 16 bits in even and
    odd halves, and the sum is squared s times.  The series is off by less
    than 4k units of 2**-v after k terms, each squaring at most doubles the
    relative error, and 16 spare bits absorb both.
    """
    s = math.isqrt(w) // 2
    v = w + s + 16
    x = t << 16
    one = 1 << v
    x2 = (x * x) >> v
    even = odd = one
    a, k = x2, 2
    while a:
        a //= k
        even += a
        a //= k + 1
        odd += a
        a = (a * x2) >> v
        k += 2
    y = even + ((odd * x) >> v)
    for _ in range(s):
        y = (y * y) >> v
    return y >> (v - w), 2 + (k >> 10)


def _exp_kernel(x: Decimal, nb: int, w: int):
    """e**x as (man, err, shift, dexp), for |x| below 2**(nb-2) - 16.

    x = a ln 10 + n ln 2 + r with |r| <= ln(2) / 2, so e**x is
    man * 2**-shift * 10**a with the decimal exponent a worked out exactly
    and the mantissa in [1, 10).  The reduction runs at nb more bits, which
    keep its error below 1 unit of 2**-w.
    """
    w2 = w + nb
    digits = int(w2 * _LOG10_2) + 2
    # x * 10**digits truncated, so X is within 1.01 units of x * 2**w2
    X = (int(x.scaleb(digits, EXACT)) << w2) // 10**digits
    L10 = _constant("ln10", w2)
    L2 = _constant("ln2", w2)
    a = X // L10
    r = X - a * L10
    n = (2 * r + L2) // (2 * L2)
    y, err = _exp_fixed((r - n * L2) >> nb, w)
    # the reduced argument is within 2 units, which moves e**r by 3 units
    return y, err + 3, w - n, a


def _ln_kernel(num: int, den: int, j: int, w: int):
    """ln(num / den * 10**j) as (man, err, shift, 0), num/den in [0.1, 100).

    num/den = m * 2**k with m in [0.75, 1.5).  From a float y0 ~ ln m,
    ln m = y0 + 2 atanh((m - e**y0) / (m + e**y0)), whose argument is below
    2**-50, so the atanh series gains about 100 bits a term.  Near 1 the
    kernel adds the bits that ln x = ln m loses to cancellation.
    """
    k = num.bit_length() - den.bit_length()
    if (num << max(-k, 0)) < (den << max(k, 0)):
        k -= 1
    if (2 * num << max(-k, 0)) >= (3 * den << max(k, 0)):
        k += 1
    if j == 0 and k == 0:
        w += max(0, den.bit_length() - abs(num - den).bit_length() + 2)
    one = 1 << w
    m = (num << (w - k)) // den
    y0 = int(math.ldexp(math.log1p((m - one) / one), 60)) << (w - 60)
    ey0, err = _exp_fixed(y0, w)
    z = ((m - ey0) << w) // (m + ey0)
    term = series = abs(z)
    z2 = (term * term) >> w
    i = 3
    while term:
        term = (term * z2) >> w
        series += term // i
        i += 2
    man = y0 + 2 * (series if z >= 0 else -series)
    if k or j:
        kb = (abs(k) + abs(j)).bit_length() + 2
        wide = w + kb
        logs = k * _constant("ln2", wide)
        if j:
            logs += j * _constant("ln10", wide)
        man += logs >> kb
    # z is within err + 2 units, each series term within 2
    return man, 3 * err + 2 * i + 12, w, 0


def _correctly_rounded(kernel, digits: int) -> Decimal:
    """The kernel's value rounded half-even to ``digits`` digits (Ziv's loop)."""
    bits = int(digits * _LOG2_10) + 1
    guard = _ZIV_GUARD
    while True:
        result = _round_half_even(*kernel(bits + guard), digits)
        if result is not None:
            return result
        guard *= 2


def _round_half_even(man: int, err: int, shift: int, dexp: int, digits: int):
    """man * 2**-shift * 10**dexp rounded half-even to ``digits`` digits.

    The value is known to within ``err`` units of 2**-shift.  libmpdec
    rounds both ends of that bracket; half-even rounding is monotone, so
    when the ends round alike every value between them does too, and
    powers of ten and halves need no case of their own.  Otherwise the
    result is None and Ziv's loop retries.  A quotient exact in fewer than
    ``digits`` digits would keep its short form, but that needs ``man ± err``
    to end in more than 2.3 * digits + 32 zero bits.
    """
    context = _context(digits)
    den = Decimal(1 << shift)
    lo = context.divide(Decimal(man - err), den)
    hi = context.divide(Decimal(man + err), den)
    if lo != hi or lo.is_zero():
        return None
    return lo.scaleb(dexp, context)


def nearest_integer(x: BigReal):
    """Nearest integer to ``x`` and the exact distance to it."""
    x = to_bigreal(x)
    n = x.to_integral_value(rounding=ROUND_HALF_EVEN)
    return int(n), EXACT.abs(EXACT.subtract(x, n))


def leading_digit_overlap(a: BigReal, b: BigReal) -> int:
    """Count of identical most-significant decimal digits of ``a`` and ``b``.

    Digits are compared after aligning decimal exponents; numbers of
    different order of magnitude share zero leading digits by definition.
    """
    a, b = to_bigreal(a), to_bigreal(b)
    if a <= 0 or b <= 0:
        raise NonPositiveInput("digit comparison is defined for positive values")
    if a.adjusted() != b.adjusted():
        return 0
    da = a.as_tuple().digits
    db = b.as_tuple().digits
    # A terminating decimal continues with zeros; pad so 1234 vs 1234.005
    # compares the full expansions rather than stopping at the short one.
    width = max(len(da), len(db))
    da = da + (0,) * (width - len(da))
    db = db + (0,) * (width - len(db))
    count = 0
    for x, y in zip(da, db):
        if x != y:
            break
        count += 1
    return count
