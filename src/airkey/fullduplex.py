"""Full-duplex group key agreement: one simultaneous exchange.

Every user divides its log-domain prime by the public reference gain h*
and transmits; because each link gain is an exact integer multiple c_ij of
h*, receiver j observes the sum of c_ij * ln(p_i) (own term removed by
ideal self-interference cancellation).  Exponentiating yields the integer
product of the other users' primes raised to the c_ij, which factorization
unwinds; the radical times the receiver's own prime is the shared secret.

Each receiver runs the listener step :func:`airkey.halfduplex.receive`,
which rejects a value with ``not-near-integer`` or ``not-a-prime-product``,
and then the factor step :func:`factor`, which rejects a product whose
cofactor resists the effort budget with ``factor-bound-exceeded``.  The
eavesdropper's full-duplex attack runs the same two steps.
"""

from __future__ import annotations

import math
import random

from .arith import PrecisionContext
from .channel import ChannelState
from .errors import DuplicatePrimeDetected, FactorBoundExceeded
from .halfduplex import pre_process, receive
from .integers import PrimeInput, factorize, radical
from .transcript import ProtocolTranscript, Reception


def _check_distinct(primes: list[PrimeInput]):
    values = [p.value for p in primes]
    if len(set(values)) != len(values):
        raise DuplicatePrimeDetected(
            "two users share a prime; the radical step would merge them"
        )


def factor(r: Reception) -> Reception:
    """Factorize an accepted reception; ``recovered`` becomes the radical.

    Fills ``exponent_map``.  A cofactor that resists the effort budget
    leaves ``recovered`` None with the failure ``factor-bound-exceeded``.
    """
    if r.failure is None:
        try:
            r.exponent_map = factorize(r.recovered)
            r.recovered = radical(r.exponent_map)
        except FactorBoundExceeded:
            r.recovered, r.failure = None, "factor-bound-exceeded"
    return r


def run_full_round(
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> list[Reception]:
    """The single simultaneous exchange, evaluated at every receiver.

    Needs a channel drawn in integer-fading mode.  Per-receiver recovery
    failures are recorded in the reception, not raised; an exponential
    overflow under a non-elastic precision context does raise, loudly.
    """
    if ch.c is None:
        raise ValueError("full-duplex exchange needs an integer-fading channel")
    if len(primes) != ch.n_users:
        raise ValueError("need one prime per user")
    _check_distinct(primes)
    # worst receiver decides the digit demand: sum of c_ij * digits(p_i);
    # the zero diagonal of c drops the receiver's own prime
    magnitude = max(
        int(sum(ch.c[i][j] * math.log10(p.value) for i, p in enumerate(primes)))
        for j in range(ch.n_users)
    )
    work = ctx.sized(magnitude + 1)
    signals = [pre_process(p, ch.h_star, work) for p in primes]
    return [
        factor(receive(
            j, signals, [row[j] for row in ch.h], work, ctx.tolerance,
            ch.noise_variance, rng,
        ))
        for j in range(ch.n_users)
    ]


def run_protocol_fmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> ProtocolTranscript:
    """Full-duplex execution; rounds_used is 1 by construction.

    A receiver's secret is its own prime times the recovered radical.
    """
    receptions = run_full_round(primes, ch, ctx, rng=rng)
    return ProtocolTranscript(
        protocol="fmac",
        n_users=ch.n_users,
        rounds_used=1,
        rounds=receptions,
        per_user_secret=[
            None if r.recovered is None else p.value * r.recovered
            for p, r in zip(primes, receptions)
        ],
    )
