"""Full-duplex group key agreement: one simultaneous exchange.

Every user divides its log-domain prime by the public reference gain h*
and transmits; because each link gain is an exact integer multiple c_ij of
h*, receiver j observes the sum of c_ij * ln(p_i) (own term removed by
ideal self-interference cancellation).  Exponentiating yields the integer
product of the other users' primes raised to the c_ij, which factorization
unwinds; the radical times the receiver's own prime is the shared secret.

The exchange runs the steps of a half-duplex round once: one sizing,
:func:`airkey.halfduplex.sized_exchange`, one log per prime divided by h*,
and at each receiver the listener step :func:`airkey.halfduplex.receive`,
which rejects a value with ``not-near-integer`` or ``not-a-prime-product``,
then the factor step :func:`factor`, which rejects a product whose cofactor
resists the effort budget with ``factor-bound-exceeded``.  A legitimate
receiver whose integer equals the product its column of c names, all of
whose primes are at most ``integers.SMOOTH_BOUND``, takes the column as its
exponent map: by unique factorization it is the map the general factorizer
returns for such an integer, by its small-prime gcd alone.  Every other
integer, and the eavesdropper's, is factorized.

Each receiver's ``exp`` is reduced by the product its column of c names,
with that product's log summed from the exchange's fixed-point logs of
the primes.  It is an argument reduction whose result the kernel's error
bracket decides, so the column changes how fast the value comes, never a
digit of it; noise takes the full kernel.
"""

from __future__ import annotations

import random

from .arith import Near, PrecisionContext, integer_logs
from .channel import ChannelState
from .errors import DuplicatePrimeDetected, FactorBoundExceeded
from .halfduplex import pre_process, receive, sized_exchange
from .integers import SMOOTH_BOUND, Factorization, PrimeInput, factorize, radical
from .transcript import ProtocolTranscript, Reception


def _check_distinct(primes: list[PrimeInput]):
    values = [p.value for p in primes]
    if len(set(values)) != len(values):
        raise DuplicatePrimeDetected(
            "two users share a prime; the radical step would merge them"
        )


def factor(r: Reception, near: Near | None = None) -> Reception:
    """Factorize an accepted reception; ``recovered`` becomes the radical.

    Fills ``exponent_map``.  When ``recovered`` equals the product of
    ``near``, the listener's column, and all its primes are at most
    ``SMOOTH_BOUND``, its powers are the map :func:`factorize` would return
    and are taken as it; every other integer is factorized.  A cofactor
    that resists the effort budget leaves ``recovered`` None with the
    failure ``factor-bound-exceeded``.
    """
    if r.failure is None:
        try:
            if near is not None and r.recovered == near.product and all(
                p <= SMOOTH_BOUND for p, _ in near.powers
            ):
                r.exponent_map = Factorization(tuple(sorted(near.powers)))
            else:
                r.exponent_map = factorize(r.recovered)
            r.recovered = radical(r.exponent_map)
        except FactorBoundExceeded:
            r.recovered, r.failure = None, "factor-bound-exceeded"
    return r


def run_protocol_fmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> ProtocolTranscript:
    """The single simultaneous exchange, evaluated at every receiver.

    Needs a channel drawn in integer-fading mode; rounds_used is 1 by
    construction.  Per-receiver recovery failures are recorded in the
    reception, not raised.  The exchange is sized once, so when one
    receiver's product exceeds ``arith.MAX_EXPONENT`` every receiver runs
    at ``ctx`` unsized, and each whose value it cannot resolve is recorded
    ``not-near-integer``.  A receiver's secret is its own prime times the
    recovered radical.
    """
    if ch.c is None:
        raise ValueError("full-duplex exchange needs an integer-fading channel")
    if len(primes) != ch.n_users:
        raise ValueError("need one prime per user")
    _check_distinct(primes)
    # the zero diagonal of c drops each receiver's own prime
    columns = list(zip(*ch.c))
    work = sized_exchange(primes, columns, ctx)
    logs = integer_logs([p.value for p in primes], work)
    signals = [pre_process(log, [ch.h_star], work)[0] for log in logs.values]
    rounds = []
    for j, column in enumerate(columns):
        near = logs.near(column)
        rounds.append(factor(receive(
            j, signals, [row[j] for row in ch.h], work, ctx.tolerance,
            ch.noise_variance, rng, near,
        ), near))
    return ProtocolTranscript.of("fmac", 1, primes, rounds, logs)
