"""Half-duplex group key agreement: N rounds over the listening-user channel.

In round j user j stays silent and listens while every other user transmits
its log-domain prime, pre-divided by the estimated gain toward j.  The
channel superposes the signals, the receiver exponentiates and rounds, and
multiplying in its own prime yields the shared secret S = product of all
users' primes.  Repeating with each user as the listener gives everyone S
in exactly N rounds.

Every listener, whether an hmac round's silent user, a full-duplex receiver
or the eavesdropper, runs the one step :func:`receive`: superpose,
exponentiate, round to the nearest integer and check it.  A rejected
reception is recorded, never raised, with one of the reason codes
``not-near-integer`` (farther than the tolerance from any integer) or
``not-a-prime-product`` (an integer below 2); the full-duplex factor step
adds ``factor-bound-exceeded``.

Precision follows the one rule of :mod:`airkey.arith`.  Every round of a
run is carried at ``ctx.sized(m)``, ``max(digits, m + T + 2 * GUARD)``
digits, where ``m`` is the number of integer digits of the worst receiver's
product (every prime but the smallest), so each prime's log is taken once
per run.  The tolerance stays ``ctx.tolerance = 10**-T``.  A strict
context (``elastic=False``) is never widened: a product whose integer part
does not fit with ``GUARD`` digits to spare raises Overflow from ``exp``.
Signals are divided at ``ctx.local()`` precision, ``digits + GUARD``.
"""

from __future__ import annotations

import math
import random

from .arith import BigReal, PrecisionContext, exp, ln, nearest_integer
from .channel import ChannelState, CsiEstimate, superpose
from .errors import NonPositiveGain
from .integers import PrimeInput
from .transcript import ProtocolTranscript, Reception


def pre_process(
    p: PrimeInput,
    gain: BigReal,
    ctx: PrecisionContext,
    logs: dict[tuple[int, int], BigReal] | None = None,
) -> BigReal:
    """Transmit signal for one user: ln(p) divided by a gain.

    The half-duplex scheme divides by the estimated gain toward the
    listener, the full-duplex scheme by the public reference gain h*.
    ``logs`` memoizes ln(p) by (prime, digits) across the calls of one run.
    """
    if gain <= 0:
        raise NonPositiveGain(f"gain must be positive, got {gain}")
    logs = {} if logs is None else logs
    key = (p.value, ctx.digits)
    if key not in logs:
        logs[key] = ln(p.value, ctx)
    with ctx.local():
        return logs[key] / gain


def receive(
    j: int | None,
    signals: list[BigReal | None],
    taps,
    work: PrecisionContext,
    tol: BigReal,
    noise_variance=0,
    rng: random.Random | None = None,
) -> Reception:
    """One listener's reception: superpose, exponentiate, round, check.

    ``j`` names the receiver (None for the eavesdropper), ``taps`` are its
    gains from each user and ``work`` the sized context the signals were
    made at.  The nearest integer is accepted when it lies within ``tol``
    and is at least 2, the least product of primes; otherwise the record
    carries ``recovered`` None and the reason code.
    """
    observation = superpose(signals, taps, noise_variance, rng)
    post_value = exp(observation, work)
    nearest, distance = nearest_integer(post_value)
    failure = None
    if distance > tol:
        failure = "not-near-integer"
    elif nearest < 2:
        failure = "not-a-prime-product"
    return Reception(
        receiver=j,
        signals=signals,
        observation=observation,
        post_value=post_value,
        recovered=nearest if failure is None else None,
        distance=distance,
        failure=failure,
    )


def run_round(
    j: int,
    primes: list[PrimeInput],
    ch: ChannelState,
    csi: CsiEstimate,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
    logs: dict[tuple[int, int], BigReal] | None = None,
) -> Reception:
    """Execute the round in which user ``j`` listens.

    ``logs`` is passed on to :func:`pre_process`.  A failed recovery is
    recorded in the returned reception, not raised.
    """
    # the worst receiver hears every prime but the smallest
    log10s = sorted(math.log10(p.value) for p in primes)
    work = ctx.sized(int(sum(log10s[1:])) + 1)
    signals = [
        None if i == j else pre_process(primes[i], csi.h_hat[i][j], work, logs)
        for i in range(ch.n_users)
    ]
    return receive(
        j, signals, [row[j] for row in ch.h], work, ctx.tolerance,
        ch.noise_variance, rng,
    )


def run_protocol_hmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    csi: CsiEstimate,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> ProtocolTranscript:
    """Full half-duplex execution: every user listens exactly once.

    A failed round marks only that listener's secret as missing; the other
    rounds still run over the same (static) channel realization.  The
    listener folds its own prime into the recovered product.
    """
    n = ch.n_users
    if len(primes) != n:
        raise ValueError("need one prime per user")
    logs: dict[tuple[int, int], BigReal] = {}
    rounds = [run_round(j, primes, ch, csi, ctx, rng=rng, logs=logs) for j in range(n)]
    return ProtocolTranscript(
        protocol="hmac",
        n_users=n,
        rounds_used=n,
        rounds=rounds,
        per_user_secret=[
            None if r.recovered is None else p.value * r.recovered
            for p, r in zip(primes, rounds)
        ],
    )
