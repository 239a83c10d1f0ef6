"""Passive eavesdropper analysis.

Eve hears every transmission through her own taps, knows the protocol, the
post-processing functions and the public reference gain, and works with
unlimited precision and zero noise: only the fading realizations protect
the key.  Because her taps differ from the legitimate gains, each prime
reaches her raised to a slightly wrong exponent; the resulting value
differs from the legitimate product by a multiplicative error factor that
vanishes only when every exponent ratio is exactly 1.

Eve's decisions use the listener step of the legitimate receivers,
:func:`airkey.halfduplex.receive`, on her own taps ``ch.h_eve`` with zero
noise, and against the full-duplex exchange also its factor step
:func:`airkey.fullduplex.factor`.  A reception rejected with
``not-near-integer``, ``not-a-prime-product`` or ``factor-bound-exceeded``
means she did not recover the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .arith import BigReal, PrecisionContext, exp, leading_digit_overlap, ln
from .channel import ChannelState
from .fullduplex import factor
from .halfduplex import pre_process, receive
from .integers import PrimeInput
from .transcript import Reception


@dataclass
class EveReport:
    """Outcome of one eavesdropping attempt against one execution."""

    mode: str
    psi_eve: BigReal
    psi_legit: BigReal
    ratios: list[BigReal]
    error_factor: BigReal
    abs_discrepancy: BigReal
    digit_overlap: int
    per_factor_overlap: list[int]
    key_equal: bool
    v: list[BigReal] | None = None


def error_factor_from_deltas(primes, deltas, ctx: PrecisionContext) -> BigReal:
    """1 - prod(p_i ** delta_i): the multiplicative gap Eve's value carries."""
    with ctx.local():
        s = Decimal(0)
        for p, d in zip(primes, deltas):
            value = p.value if isinstance(p, PrimeInput) else p
            s += Decimal(d) * ln(value, ctx)
    return 1 - exp(s, ctx)


def _power(base: int, exponent: BigReal, ctx: PrecisionContext) -> BigReal:
    with ctx.local():
        return exp(Decimal(exponent) * ln(base, ctx), ctx)


def _discrepancy(psi_legit, psi_eve, ctx):
    with ctx.local():
        gap = abs(psi_legit - psi_eve)
        e_r = 1 - psi_eve / psi_legit
    return +gap, +e_r


def eve_attack_half(
    record: Reception,
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    true_secret: int | None = None,
    second_record: Reception | None = None,
) -> EveReport:
    """Eve against a half-duplex round (noiseless sniffing, worst case).

    With a single round Eve can never assemble the full secret (the
    listener's prime never flew), so ``key_equal`` can only hold in the
    two-round interception mode: given the rounds of two different
    listeners she receives both and, if both are accepted, recombines them
    via their least common multiple.
    """
    first = receive(None, record.signals, ch.h_eve, ctx, ctx.tolerance)
    psi_eve = first.post_value
    psi_legit = record.post_value
    transmitters = [i for i, s in enumerate(record.signals) if s is not None]
    with ctx.local():
        # effective exponent of p_i at Eve: tap times signal over ln(p_i)
        ratios = [
            +(ch.h_eve[i] * record.signals[i] / ln(primes[i].value, ctx))
            for i in transmitters
        ]
    per_factor = [
        leading_digit_overlap(primes[i].value, _power(primes[i].value, r, ctx))
        for i, r in zip(transmitters, ratios)
    ]
    gap, e_r = _discrepancy(psi_legit, psi_eve, ctx)

    key_equal = False
    mode = "half-single"
    if second_record is not None:
        mode = "half-two-round"
        if first.recovered is not None and true_secret is not None:
            second = receive(None, second_record.signals, ch.h_eve, ctx, ctx.tolerance)
            key_equal = (
                second.recovered is not None
                and math.lcm(first.recovered, second.recovered) == true_secret
            )
    return EveReport(
        mode=mode,
        psi_eve=psi_eve,
        psi_legit=psi_legit,
        ratios=ratios,
        error_factor=e_r,
        abs_discrepancy=gap,
        digit_overlap=leading_digit_overlap(psi_legit, psi_eve),
        per_factor_overlap=per_factor,
        key_equal=key_equal,
    )


def eve_attack_full(
    primes: list[PrimeInput],
    observations: list[Reception],
    ch: ChannelState,
    ctx: PrecisionContext,
    receiver: int = 0,
    true_secret: int | None = None,
) -> EveReport:
    """Eve against the full-duplex exchange.

    She hears all N terms (no self-interference cancellation on her side)
    with exponents h_eve[i] / h_star.  Her decision procedure is the
    legitimate receiver's: round to an integer, factorize, take the radical,
    and compare the reassembled secret; only the measure-zero event of every
    tap landing on an exact integer multiple of h_star lets it succeed.
    """
    if ch.c is None:
        raise ValueError("full-duplex attack needs an integer-fading channel")
    magnitude = int(
        sum(
            float(ch.h_eve[i]) / float(ch.h_star) * math.log10(primes[i].value)
            for i in range(ch.n_users)
        )
    )
    work = ctx.sized(magnitude + 1)
    signals = [pre_process(p, ch.h_star, work) for p in primes]
    eve = factor(receive(None, signals, ch.h_eve, work, ctx.tolerance))
    psi_eve = eve.post_value
    psi_legit = observations[receiver].post_value
    with ctx.local():
        ratios = [+(ch.h_eve[i] / ch.h_star) for i in range(ch.n_users)]
        v = [
            +(ratios[i] / ch.c[i][receiver])
            for i in range(ch.n_users)
            if i != receiver
        ]
    per_factor = [
        leading_digit_overlap(
            primes[i].value ** ch.c[i][receiver],
            _power(primes[i].value, ratios[i], ctx),
        )
        for i in range(ch.n_users)
        if i != receiver
    ]
    gap, e_r = _discrepancy(psi_legit, psi_eve, ctx)

    if true_secret is None:
        true_secret = math.prod(p.value for p in primes)
    return EveReport(
        mode="full",
        psi_eve=psi_eve,
        psi_legit=psi_legit,
        ratios=ratios,
        error_factor=e_r,
        abs_discrepancy=gap,
        digit_overlap=leading_digit_overlap(psi_legit, psi_eve),
        per_factor_overlap=per_factor,
        key_equal=eve.recovered == true_secret,
        v=v,
    )
