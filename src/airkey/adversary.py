"""Passive eavesdropper analysis.

Eve hears every transmission through her own taps ``ch.h_eve``, knows the
protocol, the post-processing functions and the public reference gain, and
works with zero noise.  What she hears depends on the scheme:

- against ``hmac`` she hears the physical exchange: the signals of the
  first round, as transmitted;
- against ``fmac`` she rebuilds every signal, ``ln p / h*``, at her own
  sized precision, as the exchange itself makes them: the "unlimited
  precision" worst case.

Because her taps differ from the legitimate gains, each prime reaches her
raised to a slightly wrong exponent; the resulting value differs from the
legitimate product by a multiplicative error factor that vanishes only when
every exponent ratio is exactly 1.  Against ``hmac`` she does not know the
estimated gains ĥ_ij, so her ratios are unknown to her.  Against ``fmac``
with a public h* she knows every ratio h_eve_i / h*, so her observation is
one real equation over primes of a public digit count, which in this model
almost surely fixes the key: a search over the candidates found it in
every trial tried, and the cost of that search is what protects the key.

The one attack, :func:`eve_attack`, runs the listener step of the
legitimate receivers, :func:`airkey.halfduplex.receive`, on her taps, and
against ``fmac`` also its factor step :func:`airkey.fullduplex.factor`.
She reads her logs from the exchange's table, ``transcript.logs``, by
:meth:`airkey.arith.IntegerLogs.rounded`, so the log kernel runs again
only where she carries more digits than the exchange.  Her reception is
sized like any exchange by
:func:`airkey.halfduplex.sized_exchange`, on the ratios her primes reach
her with, under one ceiling.  If every ratio is an integer her value is an
exact product of the primes, which can be the key (matched integer taps
against ``fmac``): the ceiling is the exchanges' own.  Otherwise it is one
digit above the larger of the group secret and ``psi_legit``: such a value
can neither be the key, nor divide it, nor share a digit with
``psi_legit``.  Past the ceiling her reception is unsized, and ``receive``
records it as infinite when ``ctx`` cannot resolve it.  A reception
rejected with ``not-near-integer``, ``not-a-prime-product`` or
``factor-bound-exceeded`` means she did not recover the key.  The report
compares her reception with the legitimate receiver's: the gap is
``|psi_legit - eve.post_value|`` and the error factor
``1 - eve.post_value / psi_legit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import MAX_EXPONENT, BigReal, PrecisionContext, leading_digit_overlap
from .channel import ChannelState
from .fullduplex import factor
from .halfduplex import pre_process, receive, sized_exchange
from .integers import PrimeInput
from .transcript import ProtocolTranscript, Reception


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


def eve_attack(
    transcript: ProtocolTranscript,
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    two_round: bool = False,
) -> EveReport:
    """Eve against ``transcript``, compared with its first receiver.

    Against ``hmac`` she hears round 0, in which the listener's prime never
    flew, so she can never assemble the secret from it alone: ``key_equal``
    holds only with ``two_round``, when she also receives round 1 at the
    same context and the least common multiple of both accepted rounds is
    the secret.  Against ``fmac`` she hears all N terms (no
    self-interference cancellation on her side) with exponents
    h_eve[i] / h_star and decides as a legitimate receiver does: round,
    factorize, take the radical and compare it with the secret.
    """
    record = transcript.rounds[0]
    secret = math.prod(p.value for p in primes)
    multiply, divide = ctx.ambient.multiply, ctx.ambient.divide
    if transcript.protocol == "hmac":
        heard = [i for i, s in enumerate(record.signals) if s is not None]
        logs = transcript.logs.rounded(ctx)
        # effective exponent of p_i at Eve: tap times signal over ln(p_i)
        ratios = [
            divide(multiply(ch.h_eve[i], record.signals[i]), logs[i]) for i in heard
        ]
    else:
        heard = range(len(primes))
        ratios = [divide(h, ch.h_star) for h in ch.h_eve]
    ceiling = _ceiling(ratios, secret, record)
    work = sized_exchange([primes[i] for i in heard], [ratios], ctx, ceiling)

    def hear(signals):
        return receive(None, signals, ch.h_eve, work, ctx.tolerance)

    if transcript.protocol == "fmac":
        logs = transcript.logs.rounded(work)
        eve = factor(hear([pre_process(log, [ch.h_star], work)[0] for log in logs]))
        return EveReport(eve, record.post_value, ratios, eve.recovered == secret)
    eve = hear(record.signals)
    key_equal = False
    if two_round and eve.recovered is not None:
        second = hear(transcript.rounds[1].signals)
        key_equal = second.recovered is not None and math.lcm(
            eve.recovered, second.recovered
        ) == secret
    return EveReport(eve, record.post_value, ratios, key_equal)
