"""Arbitrary-precision decimal arithmetic for the protocol signal path.

Everything the protocols transmit is a real number carried as a base-10
``decimal.Decimal``.  Base-10 matters: the digit-agreement analysis of the
eavesdropper reasons about decimal digits, so a binary significand would make
those statements untestable.

One rule decides how many digits to carry.  A :class:`PrecisionContext` of
``digits`` digits has the tolerance exponent ``T = digits // 4``: a value is
accepted as an integer when it lies within ``10**-T`` of one.  A value whose
result has ``m`` integer digits is carried at

    digits_for(m) = max(digits, m + T + 2 * GUARD)

digits, so at least its integer part and ``T + 2 * GUARD`` fractional
digits are resolved.  A protocol applies the rule once to its worst receiver
with :meth:`PrecisionContext.sized`, so the logs it takes carry every digit
the product needs.  ``exp`` applies it only when its result's integer part
does not fit with ``GUARD`` digits to spare (decimal exponent + GUARD >
digits), so ``exp`` on a sized context adds no digits.  A strict context
(``elastic=False``) is never widened: ``exp`` raises :class:`Overflow` in
that case instead.  ``ln``/``exp`` are evaluated directly at the carried
precision: libmpdec returns them correctly rounded (half-even), which is well
inside a 2-ulp error bound.  Ambient ``+``/``*``/``/`` run at
``digits + GUARD`` (:meth:`PrecisionContext.local`) so sums of logs keep
their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Context, Decimal, ROUND_HALF_EVEN, localcontext

from .errors import NonPositiveInput, NotNearInteger, Overflow

# Real-valued signals are plain Decimals; the alias marks intent in signatures.
BigReal = Decimal

_LN10 = math.log(10)
_EMAX = 10**9

# Headroom in digits: a sized value keeps 2 * GUARD fractional digits below
# the tolerance, and ambient arithmetic GUARD digits beyond the carried ones.
GUARD = 16


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for all transcendental arithmetic.

    digits
        significant decimal digits carried (>= 16); no value is ever carried
        at fewer.
    elastic
        when True, :meth:`sized` and ``exp`` carry a result at the digits the
        module's rule gives it; when False the context is never widened and
        ``exp`` raises :class:`Overflow` instead of ever mis-rounding.
    max_exponent
        hard bound on the decimal exponent of any ``exp`` result.
    """

    digits: int = 50
    elastic: bool = True
    max_exponent: int = 1_000_000

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

    def digits_for(self, m: int) -> int:
        """Digits to carry for a result with ``m`` integer digits."""
        return max(self.digits, m + self.digits // 4 + 2 * GUARD)

    def sized(self, m: int) -> "PrecisionContext":
        """This context carrying ``digits_for(m)`` digits.

        Exponentiating amplifies any error in its argument by the size of the
        result, so the log-domain inputs must already carry as many digits as
        the product will have.  Size the caller's context once and keep
        reading the tolerance from the caller's context.  A strict context
        is returned unchanged: ``exp`` then raises Overflow instead of being
        silently rescued here.
        """
        if not self.elastic:
            return self
        return replace(self, digits=self.digits_for(m))

    def _context(self, prec: int) -> Context:
        return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emax=_EMAX, Emin=-_EMAX)

    def local(self):
        """Run ambient Decimal arithmetic at ``digits + GUARD`` digits.

        Plain ``+``/``*`` on Decimals obey the thread's current context
        (28 digits by default), so callers composing BigReals must wrap the
        arithmetic:  ``with ctx.local(): y = ln(a, ctx) + ln(b, ctx)``.
        """
        return localcontext(self._context(self.digits + GUARD))


def to_bigreal(value) -> BigReal:
    """Convert int/str/float/Decimal to a BigReal without binary noise."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(value))
    return Decimal(value)


def ln(x: BigReal, ctx: PrecisionContext) -> BigReal:
    """Natural logarithm of ``x`` (> 0), correctly rounded to ctx.digits.

    libmpdec rounds ``ln`` correctly, so the result is within 0.5 ulp, inside
    the 2-ulp contract.
    """
    x = to_bigreal(x)
    if not x.is_finite() or x <= 0:
        raise NonPositiveInput(f"ln requires a positive finite input, got {x}")
    return x.ln(ctx._context(ctx.digits))


def exp(x: BigReal, ctx: PrecisionContext) -> BigReal:
    """e**x, correctly rounded to the carried precision.

    libmpdec rounds ``exp`` correctly, so the result is within 0.5 ulp,
    inside the 2-ulp contract.  The carried precision is ``ctx.digits``
    unless the result's decimal exponent plus GUARD exceeds it; an elastic
    context then carries ``ctx.digits_for(m)`` for a result of ``m`` integer
    digits, a strict context raises :class:`Overflow`.
    """
    x = to_bigreal(x)
    if not x.is_finite():
        raise NonPositiveInput(f"exp requires a finite input, got {x}")
    if x.adjusted() > 18 and x > 0:
        raise Overflow(f"exp argument {x} is out of any representable range")
    magnitude = math.floor(float(x) / _LN10)  # decimal exponent of the result
    if abs(magnitude) > ctx.max_exponent:
        raise Overflow(
            f"exp result exponent {magnitude} exceeds bound {ctx.max_exponent}"
        )
    carried = ctx.digits
    if magnitude + GUARD > ctx.digits:
        if not ctx.elastic:
            raise Overflow(
                f"result needs about {magnitude + 1} integer digits but the "
                f"context carries only {ctx.digits} (guard {GUARD})"
            )
        carried = ctx.digits_for(magnitude + 1)
    return x.exp(ctx._context(carried))


def nearest_integer(x: BigReal):
    """Nearest integer to ``x`` and the exact distance to it."""
    x = to_bigreal(x)
    n = x.to_integral_value(rounding=ROUND_HALF_EVEN)
    with localcontext(Context(prec=max(len(x.as_tuple().digits) + 10, 28),
                              Emax=_EMAX, Emin=-_EMAX)):
        distance = abs(x - n)
    return int(n), distance


def round_to_integer(x: BigReal, tol: BigReal) -> int:
    """Round ``x`` to the nearest integer if it is within ``tol`` of one.

    Raises :class:`NotNearInteger` otherwise; the recorded distance tells a
    caller whether precision ran out or the value is genuinely corrupted.
    """
    tol = to_bigreal(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n, distance = nearest_integer(x)
    if distance > tol:
        raise NotNearInteger(x, n, distance, tol)
    return n


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
