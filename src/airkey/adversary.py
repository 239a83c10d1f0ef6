"""Passive eavesdropper analysis.

Eve hears every transmission through her own taps, knows the protocol, the
post-processing functions and the public reference gain, and works with
unlimited precision and zero noise: only the fading realizations protect
the key.  Because her taps differ from the legitimate gains, each prime
reaches her raised to a slightly wrong exponent; the resulting value
differs from the legitimate product by a multiplicative error factor that
vanishes only when every exponent ratio is exactly 1.

Each attack runs the listener step of the legitimate receivers,
:func:`airkey.halfduplex.receive`, on her own taps ``ch.h_eve`` with zero
noise, and against the full-duplex exchange also its factor step
:func:`airkey.fullduplex.factor`.  Her reception, and each prime raised to
her ratio, is sized like any exchange by
:func:`airkey.halfduplex.sized_exchange`, on the ratios her primes reach
her with.  A reception rejected with
``not-near-integer``, ``not-a-prime-product`` or ``factor-bound-exceeded``
means she did not recover the key.  One scoring step compares her
reception with the legitimate receiver's: the gap is
``|psi_legit - eve.post_value|`` and the error factor
``1 - eve.post_value / psi_legit``.  A value or power past
``arith.MAX_EXPONENT`` shares no digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .arith import BigReal, PrecisionContext, exp, leading_digit_overlap, ln
from .channel import ChannelState
from .errors import Overflow
from .fullduplex import factor
from .halfduplex import pre_process, receive, sized_exchange
from .integers import PrimeInput
from .transcript import Reception


@dataclass
class EveReport:
    """Eve's reception in one execution, scored against a legitimate one.

    ``eve`` is her reception and ``psi_legit`` the post-processed value of
    the legitimate receiver she is compared with.  ``ratios`` are the
    exponents the primes reach her with: one per transmitter of the
    half-duplex round, h_eve[i] / h_star per user of the full-duplex
    exchange.  ``digit_overlap`` counts the leading digits her value shares
    with ``psi_legit``; ``per_factor_overlap`` those each factor of the
    legitimate product shares with its prime raised to her ratio.
    ``key_equal`` says whether she recovered the group secret.
    """

    eve: Reception
    psi_legit: BigReal
    ratios: list[BigReal]
    digit_overlap: int
    per_factor_overlap: list[int]
    key_equal: bool


def error_factor_from_deltas(primes, deltas, ctx: PrecisionContext) -> BigReal:
    """1 - prod(p_i ** delta_i): the multiplicative gap Eve's value carries."""
    with ctx.local():
        s = Decimal(0)
        for p, d in zip(primes, deltas):
            value = p.value if isinstance(p, PrimeInput) else p
            s += Decimal(d) * ln(value, ctx)
    return 1 - exp(s, ctx)


def _score(eve, psi_legit, ratios, factors, key_equal, ctx) -> EveReport:
    """The report on Eve's reception.

    ``factors`` holds (prime, legitimate exponent, Eve's ratio) for each
    factor of the legitimate product.
    """
    per_factor = []
    for p, e, r in factors:
        try:
            work = sized_exchange([p], [[r]], ctx)
            with work.local():
                power = exp(r * ln(p.value, work), work)
        except Overflow:
            # past MAX_EXPONENT a power shares no digit with p**e, as in receive
            per_factor.append(0)
        else:
            per_factor.append(leading_digit_overlap(p.value**e, power))
    # a value recorded as 0 or infinite (receive) shares no digit
    values = (psi_legit, eve.post_value)
    carried = all(v.is_finite() and v > 0 for v in values)
    return EveReport(
        eve=eve,
        psi_legit=psi_legit,
        ratios=ratios,
        digit_overlap=leading_digit_overlap(*values) if carried else 0,
        per_factor_overlap=per_factor,
        key_equal=key_equal,
    )


def eve_attack_half(
    record: Reception,
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    second_record: Reception | None = None,
) -> EveReport:
    """Eve against a half-duplex round (noiseless sniffing, worst case).

    With a single round Eve can never assemble the full secret (the
    listener's prime never flew), so ``key_equal`` can only hold in the
    two-round interception mode: given the rounds of two different
    listeners she receives both and, if both are accepted, recombines them
    via their least common multiple; both rounds are received at the
    context sized for the first.
    """
    transmitters = [i for i, s in enumerate(record.signals) if s is not None]
    with ctx.local():
        # effective exponent of p_i at Eve: tap times signal over ln(p_i)
        ratios = [
            +(ch.h_eve[i] * record.signals[i] / ln(primes[i].value, ctx))
            for i in transmitters
        ]
    try:
        work = sized_exchange([primes[i] for i in transmitters], [ratios], ctx)
    except Overflow:
        work = ctx  # receive records a value past MAX_EXPONENT as infinite
    eve = receive(None, record.signals, ch.h_eve, work, ctx.tolerance)
    key_equal = False
    if second_record is not None and eve.recovered is not None:
        second = receive(None, second_record.signals, ch.h_eve, work, ctx.tolerance)
        key_equal = second.recovered is not None and math.lcm(
            eve.recovered, second.recovered
        ) == math.prod(p.value for p in primes)
    factors = [(primes[i], 1, r) for i, r in zip(transmitters, ratios)]
    return _score(eve, record.post_value, ratios, factors, key_equal, ctx)


def eve_attack_full(
    record: Reception,
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
) -> EveReport:
    """Eve against the full-duplex exchange, compared with ``record``'s receiver.

    She hears all N terms (no self-interference cancellation on her side)
    with exponents h_eve[i] / h_star.  Her decision procedure is the
    legitimate receiver's: round to an integer, factorize, take the radical,
    and compare the reassembled secret; only the measure-zero event of every
    tap landing on an exact integer multiple of h_star lets it succeed.
    """
    if ch.c is None:
        raise ValueError("full-duplex attack needs an integer-fading channel")
    with ctx.local():
        ratios = [+(h / ch.h_star) for h in ch.h_eve]
    work = sized_exchange(primes, [ratios], ctx)
    signals = [pre_process(ln(p.value, work), ch.h_star, work) for p in primes]
    eve = factor(receive(None, signals, ch.h_eve, work, ctx.tolerance))
    j = record.receiver
    factors = [
        (p, ch.c[i][j], ratios[i]) for i, p in enumerate(primes) if i != j
    ]
    key_equal = eve.recovered == math.prod(p.value for p in primes)
    return _score(eve, record.post_value, ratios, factors, key_equal, ctx)
