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
:func:`airkey.fullduplex.factor`.  Her reception is sized like any
exchange by :func:`airkey.halfduplex.sized_exchange`, on the ratios her
primes reach her with, under one ceiling for both attacks.  If every ratio
is an integer her value is an exact product of the primes, which can be the
key (matched integer taps on the full-duplex exchange): the ceiling is the
exchanges' own.  Otherwise it is one digit above the larger of the group
secret and ``psi_legit``: such a value can neither be the key, nor divide
it, nor share a digit with ``psi_legit``.  Past the ceiling her reception is
unsized, and ``receive`` records it as infinite when ``ctx`` cannot resolve
it.  A reception rejected with
``not-near-integer``, ``not-a-prime-product`` or ``factor-bound-exceeded``
means she did not recover the key.  The report compares her reception
with the legitimate receiver's: the gap is ``|psi_legit - eve.post_value|``
and the error factor ``1 - eve.post_value / psi_legit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import MAX_EXPONENT, BigReal, PrecisionContext, leading_digit_overlap, ln
from .channel import ChannelState
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
    exchange.  ``key_equal`` says whether she recovered the group secret.
    ``digit_overlap`` counts the leading digits her value shares with
    ``psi_legit``; a value recorded as 0 or infinite shares none.
    """

    eve: Reception
    psi_legit: BigReal
    ratios: list[BigReal]
    key_equal: bool
    digit_overlap: int = field(init=False)

    def __post_init__(self):
        values = (self.psi_legit, self.eve.post_value)
        carried = all(v.is_finite() and v > 0 for v in values)
        self.digit_overlap = leading_digit_overlap(*values) if carried else 0


def _ceiling(ratios: list[BigReal], secret: int, record: Reception):
    """The decimal exponent from which Eve's reception is left unsized."""
    if all(r == r.to_integral_value() for r in ratios):
        return MAX_EXPONENT + 1
    psi = record.post_value  # an infinite or zero value counts as 0 digits
    legit = psi.adjusted() + 1 if psi.is_finite() and psi > 0 else 0
    return max(math.log10(secret), legit) + 1


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
    secret = math.prod(p.value for p in primes)
    ceiling = _ceiling(ratios, secret, record)
    work = sized_exchange([primes[i] for i in transmitters], [ratios], ctx, ceiling)
    eve = receive(None, record.signals, ch.h_eve, work, ctx.tolerance)
    key_equal = False
    if second_record is not None and eve.recovered is not None:
        second = receive(None, second_record.signals, ch.h_eve, work, ctx.tolerance)
        key_equal = second.recovered is not None and math.lcm(
            eve.recovered, second.recovered
        ) == secret
    return EveReport(eve, record.post_value, ratios, key_equal)


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
    secret = math.prod(p.value for p in primes)
    work = sized_exchange(primes, [ratios], ctx, _ceiling(ratios, secret, record))
    signals = [pre_process(ln(p.value, work), [ch.h_star], work)[0] for p in primes]
    eve = factor(receive(None, signals, ch.h_eve, work, ctx.tolerance))
    return EveReport(eve, record.post_value, ratios, eve.recovered == secret)
