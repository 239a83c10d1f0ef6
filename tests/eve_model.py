"""Closed-form model of Eve's error, the reference the attack tests compare with."""

from decimal import Decimal, localcontext

from airkey import PrecisionContext, PrimeInput, exp, ln


def error_factor_from_deltas(primes, deltas, ctx: PrecisionContext) -> Decimal:
    """1 - prod(p_i ** delta_i): the multiplicative gap Eve's value carries."""
    with localcontext(ctx.ambient):
        s = Decimal(0)
        for p, d in zip(primes, deltas):
            value = p.value if isinstance(p, PrimeInput) else p
            s += Decimal(d) * ln(value, ctx)
    return 1 - exp(s, ctx)
