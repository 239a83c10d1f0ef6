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
(:attr:`PrecisionContext.ambient`) so sums of logs keep their digits.

Every integer's log and every exponential run in binary fixed point on
Python ints (Brent and Zimmermann, *Modern Computer Arithmetic*, ch. 4);
any other log is libmpdec's ``Decimal.ln``.  A fixed-point kernel works
at w bits, those of the carried digits plus guard bits, and every step
carries a bound on its error.  Both ends of that error bracket are rounded
half-even to the carried digits, each by one integer product with a power
of ten and a shift (libmpdec rounds the rare end that is exact or a tie);
when they disagree the result is computed again with twice the guard bits
(Ziv's test).  Results are therefore correctly rounded, within 0.5 ulp and
inside the 2-ulp contract, and equal libmpdec's ``Decimal.ln``/``Decimal.exp``
digit for digit and exponent for exponent.

One cache holds every constant the kernels read: ln q for the primes q
below 1009, at the widest precision asked for so far.  Each is made on
first use by one recursion, ln q = ln(q - 1) + 2 atanh(1 / (2q - 1)),
from the logs of the primes of q - 1; ln 2 is 2 atanh(1/3).

- The log of an integer n is that of 2**k s plus 2 atanh((n - 2**k s) /
  (n + 2**k s)), where s is the integer nearest the top bits n >> k, below
  2**18, whose primes all lie below 1009, so ln(2**k s) is a sum of
  cached logs.  For a prime of five digits s is one or two away, so the
  argument is about 2**-17.  :func:`airkey.integers.smooth_neighbour`
  finds s and factors it by the small-prime walk ``factorize`` runs.
- e**x reduces x by multiples of ln 10 = ln 2 + ln 5 and ln 2 and sums a
  series.  A cheaper reduction comes first: :func:`integer_logs` keeps
  an exchange's logs in fixed point, and a listener hands ``exp`` its
  product P with ln P from them (:meth:`IntegerLogs.near`).  When x - ln
  P is tiny, e**x = P e**(x - ln P) takes two terms of a series;
  otherwise, or when that bracket does not decide, the full kernel runs.
  The identity holds for every P, so the hint is an argument reduction
  whose result the bracket decides: the product, which a simulator takes
  from its own exponents, can change how fast a result comes, never a
  digit of it.
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
)
from functools import cache, cached_property, lru_cache, partial
from itertools import compress, starmap
from operator import mul

from .errors import NonPositiveInput, Overflow
from .integers import smooth_neighbour

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

    @property
    def ambient(self) -> Context:
        """The shared context of ``digits + GUARD`` digits for composing BigReals.

        Plain ``+``/``*`` on Decimals obey the thread's current context (28
        digits by default), so callers use its operations, as in
        ``ctx.ambient.divide(a, b)``, or wrap plain arithmetic in
        ``with localcontext(ctx.ambient):``, which installs a copy.
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

    An integral ``x`` below 10**40, which covers every prime a config
    accepts, takes the integer kernel of :func:`integer_logs`; any other
    ``x`` takes libmpdec's ``Decimal.ln``.  Both round half-even, within
    0.5 ulp, so the result is inside the 2-ulp contract; ``ln(1)`` is
    exactly ``0``.
    """
    x = to_bigreal(x)
    if not x.is_finite() or x <= 0:
        raise NonPositiveInput(f"ln requires a positive finite input, got {x}")
    if x == 1:
        return Decimal(0)
    if x.adjusted() < 40 and x == x.to_integral_value():
        kernel = partial(_ln_smooth_kernel, int(x))
        return _correctly_rounded(kernel, ctx.digits, _ZIV_GUARD)
    return x.ln(_context(ctx.digits))


@dataclass(frozen=True)
class Near:
    """A product of powers n**e and its log times 2**bits, within ``err`` units.

    :meth:`IntegerLogs.near` builds it; :func:`exp` reduces by it, and the
    full-duplex factor step compares the received integer with ``product``,
    which is multiplied out on first read only: a listener whose value is
    past what its context resolves never reads it.
    """

    powers: tuple[tuple[int, int], ...]
    log: int
    err: int
    bits: int

    @cached_property
    def product(self) -> int:
        return math.prod(starmap(pow, self.powers))


@dataclass(frozen=True)
class IntegerLogs:
    """ln n_i of integers n_i >= 2, correctly rounded and in fixed point.

    ``values[i]`` is ``ln(integers[i], ctx)`` digit for digit; ``fixed[i]``
    is ln n_i times 2**bits within ``errors[i]`` units, the kernel's result
    at the first width of Ziv's loop, from which ``values[i]`` was rounded.
    An exchange takes the table once and its transcript carries it, so the
    eavesdropper reads her logs from it (:meth:`rounded`) too.
    """

    integers: tuple[int, ...]
    values: tuple[Decimal, ...]
    fixed: tuple[int, ...]
    errors: tuple[int, ...]
    bits: int

    def near(self, column) -> Near:
        """The powers ``integers[i] ** column[i]`` and the log of their product.

        The exponents are non-negative ints (or bools).  The log is the
        same sum of ``fixed`` logs, so it is within the summed errors of
        ln of that product, whatever the exponents.
        """
        powers = tuple(compress(zip(self.integers, column), column))
        log = sum(map(mul, column, self.fixed))
        err = sum(map(mul, column, self.errors))
        return Near(powers, log, err, self.bits)

    def rounded(self, ctx: PrecisionContext) -> tuple[Decimal, ...]:
        """``integer_logs(integers, ctx).values``, read from this table.

        At the table's own digits that is ``values``; at fewer, each
        ``fixed`` log rounded half-even, by the kernel only where its
        bracket does not decide; at more, the kernel's logs.
        """
        bits = int(ctx.digits * _LOG2_10) + 1 + _ZIV_GUARD
        if bits == self.bits:
            return self.values
        if bits > self.bits:
            return integer_logs(self.integers, ctx).values
        values = []
        for n, man, err in zip(self.integers, self.fixed, self.errors):
            value = _round_half_even(man, err, self.bits, 0, ctx.digits)
            if value is None:
                kernel = partial(_ln_smooth_kernel, n)
                value = _correctly_rounded(kernel, ctx.digits, _ZIV_GUARD)
            values.append(value)
        return tuple(values)


def integer_logs(integers, ctx: PrecisionContext) -> IntegerLogs:
    """One log per integer at ``ctx``, kept in fixed point for :func:`exp`.

    Each kernel runs once, at the first width of Ziv's loop; a log whose
    rounding that width leaves undecided runs the rest of the loop, from
    twice the guard bits.  Every integer, of any size, takes the integer
    kernel.
    """
    bits = int(ctx.digits * _LOG2_10) + 1 + _ZIV_GUARD
    values, fixed, errors = [], [], []
    for n in integers:
        if n < 2:
            raise NonPositiveInput(f"integer_logs needs integers >= 2, got {n}")
        man, err, _, _ = _ln_smooth_kernel(n, bits)
        value = _round_half_even(man, err, bits, 0, ctx.digits)
        if value is None:
            kernel = partial(_ln_smooth_kernel, n)
            value = _correctly_rounded(kernel, ctx.digits, 2 * _ZIV_GUARD)
        values.append(value)
        fixed.append(man)
        errors.append(err)
    return IntegerLogs(
        tuple(integers), tuple(values), tuple(fixed), tuple(errors), bits
    )


def exp(x: BigReal, ctx: PrecisionContext, near: Near | None = None) -> BigReal:
    """e**x, correctly rounded to ``ctx.digits``.

    The binary fixed-point kernel rounds half-even, within 0.5 ulp, so the
    result is inside the 2-ulp contract; ``exp(0)`` is exactly ``1``.  It
    carries ``ctx.digits`` whatever the result's size: a result with more
    integer digits than that is rounded in its integer part, so callers
    size ``ctx`` first.  A result whose decimal exponent lies beyond
    ``MAX_EXPONENT`` raises :class:`Overflow`.

    ``near``, from :meth:`IntegerLogs.near`, is an integer P, a product of
    powers, with ln P in fixed point.  When x - ln P is tiny, e**x =
    P e**(x - ln P) takes two terms of a series; its error bracket decides
    the rounding as the kernel's does, and otherwise the kernel runs.  The
    identity holds for every P, so ``near`` changes how fast the result
    comes, never a digit.
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
    bracket = None if near is None else _exp_near(x, near)
    if bracket is not None:
        result = _round_half_even(*bracket, ctx.digits)
        if result is not None:
            return result
    # bits that x / ln 2 and the reduction's error take up: 2**nb >= 4 (|x| + 16)
    nb = (int(abs(approx)) + 16).bit_length() + 2
    kernel = partial(_exp_kernel, x, nb)
    return _correctly_rounded(kernel, ctx.digits, _ZIV_GUARD)


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

# The integer kernel keeps the top bits m = n >> k below 2**_TOP_BITS and
# takes the log of m's nearest neighbour whose primes all lie below 1009.
# Measured per log: 20 bits cost 7-12-digit primes 5-12 % at 245-460 bits,
# where the neighbour search outweighs the series; 16 cost 6- and 7-digit
# primes 6 % at 1 300 bits, where the longer series does.
_TOP_BITS = 18
# (bits, v, {q: ln q * 2**v}), v = bits + bits.bit_length() + 5, for the
# primes q below 1009 computed so far; bits is the widest precision asked for
_PRIME_LOGS: tuple[int, int, dict[int, int]] = (0, 0, {})


def _atanh(d: int, t: int, w: int) -> tuple[int, int]:
    """atanh(d / t) * 2**w for 0 <= d < t, and i, twice its terms less 1.

    Each series term is the last times d**2 / t**2, a product and a
    quotient, so for short d and t it costs linear time: the quotient is
    floor(x / t**2), taken in one division, or in two by t, floor(floor(x
    / t) / t), where t fits one 30-bit limb of a CPython int and t**2 does
    not, since a one-limb divisor takes CPython's short division.  Where t
    is wider than an eighth of w, that division costs more than a product
    of two w-bit ints, so z**2 = d**2 / t**2 is read once at w bits and each
    term is one product and a shift.  Either way a step adds less than 2
    units, all low, so for d / t <= 1/3 a term is within 2.25 units, since
    (d / t)**2 <= 1/9 damps earlier errors, and dividing it by its odd
    index i >= 3 leaves it within 1.75; the first term is within 1 and the
    tail left when a term reaches 0 is below 0.85.  So the sum is low by
    less than i + 1 units.
    """
    d2, t2 = d * d, t * t
    term = total = (d << w) // t
    i = 1
    if 8 * t.bit_length() > w:
        z2 = (d2 << w) // t2
        while term:
            term = (term * z2) >> w
            i += 2
            total += term // i
        return total, i
    twice = t2 >> 30 and not t >> 30
    while term:
        term = term * d2 // t // t if twice else term * d2 // t2
        i += 2
        total += term // i
    return total, i


def _prime_logs(w: int) -> tuple[int, int, dict[int, int]]:
    """The cache (bits, v, logs) of ln q * 2**v, widened to bits >= ``w``.

    A request wider than bits, the widest so far, empties the cache and
    starts it again at least twice as wide; :func:`_prime_log` fills it.
    """
    global _PRIME_LOGS
    if _PRIME_LOGS[0] < w:
        bits = max(w, 2 * _PRIME_LOGS[0])
        _PRIME_LOGS = bits, bits + bits.bit_length() + 5, {}
    return _PRIME_LOGS


def _prime_log(q: int, v: int, logs: dict[int, int]) -> int:
    """ln q times 2**v from ``logs``, computing it and those below on first use.

    ln q = ln(q - 1) + 2 atanh(1 / (2q - 1)): the logs of the primes of
    q - 1, which is below 1009 and so its own neighbour, and one series of
    short ints whose argument is at most 1/3.  ln 2 is the series alone,
    since 1 has no primes.  The series of i terms is low by less than
    i + 1 units, and i <= v / log2(2q - 1) + 2, so ln q is low by less than
    B(q) = sum e B(p) + 2 (i + 1) units of 2**-v, over the p**e of q - 1.
    Unrolled over the primes below 1009 that is below 14v + 90 (the worst
    is q = 967), and below 4.5v + 24 for ln 2 + ln 5.  With v = bits +
    bits.bit_length() + 5, 2**(v - bits) > 32 bits exceeds 14v + 90 from
    bits = 13 on, so every cached log is off by less than one unit of
    2**-bits, and ln 2 + ln 5 by less than 0.3.
    """
    log = logs.get(q)
    if log is None:
        factors = smooth_neighbour(q - 1)[1]
        below = sum(e * _prime_log(p, v, logs) for p, e in factors)
        log = logs[q] = below + 2 * _atanh(1, 2 * q - 1, v)[0]
    return log


def _smooth_log(k: int, factors, w: int) -> int:
    """ln(2**k s) times 2**w, within 2 units, for s = prod q**e over ``factors``.

    Every q is a prime below 1009 and s is below 2**(_TOP_BITS + 1), so
    s has fewer than _TOP_BITS + 1 prime factors.  Their logs come from
    :func:`_prime_log` at v bits, for bits >= w + kb, 2**(kb - 2) > k +
    _TOP_BITS + 1.  Each is off by less than one unit of 2**-bits (the
    worst, q = 967, by less than 14v + 90 units of 2**-v), so the sum is
    off by less than a quarter unit of 2**-w before the shift down to w
    bits.
    """
    wide = w + (k + _TOP_BITS + 1).bit_length() + 2
    bits, v, logs = _PRIME_LOGS  # read in place: a call costs 1 % per log
    if bits < wide:
        bits, v, logs = _prime_logs(wide)
    total = k * (logs[2] if 2 in logs else _prime_log(2, v, logs))
    for q, e in factors:
        total += e * (logs[q] if q in logs else _prime_log(q, v, logs))
    return total >> (v - w)


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
    and the mantissa in [1, 10).  ln 2 and ln 10 = ln 2 + ln 5, from
    :func:`_prime_log`, are within 1.3 units of 2**-(w + nb), and the nb
    more bits keep the reduction's error below 1 unit of 2**-w.
    """
    w2 = w + nb
    X = _to_fixed(x, w2)
    _, v, logs = _prime_logs(w2)
    ln2 = _prime_log(2, v, logs)
    L2 = ln2 >> (v - w2)
    L10 = (ln2 + _prime_log(5, v, logs)) >> (v - w2)
    a = X // L10
    r = X - a * L10
    n = (2 * r + L2) // (2 * L2)
    y, err = _exp_fixed((r - n * L2) >> nb, w)
    # the reduced argument is within 2 units, which moves e**r by 3 units
    return y, err + 3, w - n, a


def _ln_smooth_kernel(n: int, w: int):
    """ln n as (man, err, w, 0) for an integer n >= 1.

    The top bits m = n >> k lie below 2**_TOP_BITS, and s is the integer
    nearest m whose primes all lie below 1009, so that
    ln n = ln(2**k s) + 2 atanh((n - 2**k s) / (n + 2**k s)).  Every m below
    1009 is its own s, and the argument is below (|m - s| + 1) / (m + s),
    at most 1/21.  Twice its series of i terms is off by less than 2i + 2
    units, and ln(2**k s) by less than 2.
    """
    k = max(n.bit_length() - _TOP_BITS, 0)
    s, factors = smooth_neighbour(n >> k)
    d = n - (s << k)
    series, i = _atanh(abs(d), n + (s << k), w)
    man = _smooth_log(k, factors, w) + 2 * (series if d >= 0 else -series)
    return man, 2 * i + 4, w, 0


def _exp_near(x: Decimal, near: Near):
    """e**x as P e**d, d = x - ln P, in (man, err, shift, 0) form, or None.

    With x read at w = ``near.bits`` bits, D = (x - ln P) * 2**w is within
    e = err + 2 units.  When |D| + e < 2**(2w/3), 1 + d + d**2 / 2 leaves
    out less than 0.2 units and the square's error is below e, so
    E = 2**w + D + D**2 / 2**(w+1) is within 2e + 2 units of e**d * 2**w.
    P E is then scaled to about w bits.  None when d is not that small or
    P is wider than w bits.
    """
    w = near.bits
    D = _to_fixed(x, w) - near.log
    e = near.err + 2
    if (abs(D) + e) >> (2 * w // 3):
        return None
    product = near.product
    s = product.bit_length() - 1
    if s > w:
        return None
    E = (1 << w) + D + ((D * D) >> (w + 1))
    # P < 2**(s+1), so shifting P E by s bits leaves it within 2 (2e + 2) + 1
    return (product * E) >> s, 4 * e + 5, w - s, 0


def _to_fixed(x: Decimal, w: int) -> int:
    """x * 2**w, from x * 10**k truncated, within 1.1 units."""
    k = int(w * _LOG10_2) + 2
    return (int(x.scaleb(k, EXACT)) << w) // 10**k


def _correctly_rounded(kernel, digits: int, guard: int) -> Decimal:
    """The kernel's value rounded half-even to ``digits`` digits (Ziv's loop).

    The first try carries ``guard`` bits beyond those of the digits, and
    each next one twice as many.
    """
    bits = int(digits * _LOG2_10) + 1
    while True:
        result = _round_half_even(*kernel(bits + guard), digits)
        if result is not None:
            return result
        guard *= 2


def _round_half_even(man: int, err: int, shift: int, dexp: int, digits: int):
    """man * 2**-shift * 10**dexp rounded half-even to ``digits`` digits.

    The value is known to within ``err`` units of 2**-shift; half-even
    rounding is monotone, so when both ends of that bracket round alike
    every value between them does too, and otherwise the result is None
    and Ziv's loop retries.  A float estimate of the decimal exponent E of
    |man| 2**-shift gives K = digits - 1 - E; each end times 10**K is one
    product, and a shift splits it into an integer part c and a remainder.
    When both c have ``digits`` digits and neither remainder is 0 or a
    half, each end rounds to c or c + 1 by its remainder alone, and only
    the decided integer becomes a Decimal.  Any other bracket, whose
    exponent the estimate missed, which crosses a power of ten, or whose
    end is exact or a tie, is rounded by libmpdec: both ends divided by
    2**shift.  An exact quotient keeps the short form libmpdec gives it.
    """
    lo, hi = man - err, man + err
    if lo <= 0 <= hi:
        return None
    mag = abs(man)
    K = digits - 1 - math.floor(math.log10(mag) - shift * _LOG10_2)
    if K >= 0 and shift > 0:
        scale = _pow10(K)
        x, e = mag * scale, err * scale
        c_lo, c_hi = (x - e) >> shift, (x + e) >> shift
        r_lo, r_hi = x - e - (c_lo << shift), x + e - (c_hi << shift)
        half = 1 << (shift - 1)
        if (
            _pow10(digits - 1) <= c_lo <= c_hi < _pow10(digits)
            and r_lo and r_hi and r_lo != half and r_hi != half
        ):
            c_lo += r_lo > half
            c_hi += r_hi > half
            if c_lo != c_hi:
                return None
            c = c_lo if man > 0 else -c_lo
            return Decimal(c).scaleb(dexp - K, _context(digits))
    context = _context(digits)
    den = Decimal(1 << shift)
    lo, hi = context.divide(Decimal(lo), den), context.divide(Decimal(hi), den)
    if lo != hi:
        return None
    return lo.scaleb(dexp, context)


@lru_cache(maxsize=64)
def _pow10(k: int) -> int:
    """10**k, kept for the 64 most recently used k."""
    return 10**k


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
