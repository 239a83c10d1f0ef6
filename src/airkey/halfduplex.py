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

Precision follows the one rule of :mod:`airkey.arith`, applied in one
place.  Every exchange, of either scheme, and every eavesdropper reception
is sized once by :func:`sized_exchange`: it is carried at
``max(digits, m + T + 2 * GUARD)`` digits, where ``m`` is the number of
integer digits of the largest product any of its listeners hears, so each
prime's log is taken once per run, by :func:`airkey.arith.integer_logs`,
which keeps it in fixed point too.  ``exp`` never widens, so
:func:`receive` rejects a value whose integer part its context cannot
resolve to the tolerance.  The tolerance stays ``ctx.tolerance = 10**-T``.
Signals are divided at ``digits + GUARD`` digits by that precision's
shared context (``ctx.ambient``) rather than by entering a local context
per signal, all of a transmitter's signals in one call of
:func:`pre_process`.

A legitimate listener passes ``receive`` the product its exponent column
names with that product's log (``near``), and ``exp`` reduces its
argument by them.  This is an argument reduction whose result the same
error bracket decides: when the observation is not close to the log, as
with noise or CSI error, or the bracket does not decide, ``exp`` runs its
full kernel, so the product changes how fast a value comes, never a digit
of it.  The eavesdropper passes none.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

from .arith import GUARD, MAX_EXPONENT, BigReal, Near, PrecisionContext, exp
from .arith import integer_logs, nearest_integer
from .channel import ChannelState, superpose
from .errors import NonPositiveGain, Overflow
from .integers import PrimeInput
from .transcript import ProtocolTranscript, Reception


def pre_process(log_p: BigReal, gains, ctx: PrecisionContext) -> list[BigReal]:
    """Transmit signals of one user: its prime's log divided by each gain.

    The half-duplex scheme divides by the estimated gain toward each
    listener, the full-duplex scheme by the public reference gain h*.  Each
    signal is ``log_p / gain`` rounded by ``ctx.ambient``; any gain
    that is not positive raises :class:`NonPositiveGain` before a division.
    """
    least = min(gains)
    if least <= 0:
        raise NonPositiveGain(f"gain must be positive, got {least}")
    divide = ctx.ambient.divide
    return [divide(log_p, gain) for gain in gains]


def sized_exchange(
    primes: list[PrimeInput], columns, ctx: PrecisionContext, ceiling=MAX_EXPONENT + 1
):
    """``ctx`` sized for the largest product prod p_i ** e_i of one exchange.

    ``columns`` holds one exponent column per listener: 0 or 1 per user for
    an hmac round, a column of ``ch.c`` for a full-duplex receiver, the
    ratios her primes reach the eavesdropper with.  A product whose decimal
    exponent is not below ``ceiling`` (lower than the default only for the
    eavesdropper) or not finite leaves ``ctx`` unsized for the whole
    exchange, and never raises: :func:`receive` then records each listener
    whose value ``ctx`` cannot resolve as infinite (``not-near-integer``)
    without calling ``exp``.
    """
    log10s = [math.log10(p.value) for p in primes]
    magnitude = max(
        sum(float(e) * d for d, e in zip(log10s, column)) for column in columns
    )
    if not magnitude < ceiling:  # also inf and nan
        return ctx
    return ctx.sized(int(magnitude) + 1)


def receive(
    j: int | None,
    signals: list[BigReal | None],
    taps,
    work: PrecisionContext,
    tol: BigReal,
    noise_variance=0,
    rng: random.Random | None = None,
    near: Near | None = None,
) -> Reception:
    """One listener's reception: superpose, exponentiate, round, check.

    ``j`` names the receiver (None for the eavesdropper), ``taps`` are its
    gains from each user and ``work`` the sized context the signals were
    made at.  The nearest integer is accepted when it lies within ``tol``
    and is at least 2, the least product of primes; otherwise the record
    carries ``recovered`` None and the reason code.  A value with more
    integer digits than ``work.digits - T - GUARD`` (``tol = 10**-T``) is
    not resolved to the tolerance, so it is recorded as infinite
    (``not-near-integer``) without calling ``exp``; a sized exchange leaves
    every valid product GUARD digits below that, so none gets there.
    A value whose decimal exponent is below ``-arith.MAX_EXPONENT`` is
    recorded as 0 (``not-a-prime-product``).  ``near``, from
    :meth:`airkey.arith.IntegerLogs.near`, goes to ``exp``.
    """
    observation = superpose(signals, taps, noise_variance, rng)
    resolved = work.digits + tol.adjusted() - GUARD  # integer digits
    unresolved = float(observation) >= resolved * math.log(10)
    try:
        post_value = (
            Decimal("Infinity") if unresolved else exp(observation, work, near)
        )
    except Overflow:
        post_value = Decimal("Infinity" if observation > 0 else 0)
    nearest, distance = (
        (0, post_value) if post_value.is_infinite() else nearest_integer(post_value)
    )
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


def run_protocol_hmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    h_hat,
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
    # in round j every user but j transmits
    columns = [[i != j for i in range(n)] for j in range(n)]
    work = sized_exchange(primes, columns, ctx)
    logs = integer_logs([p.value for p in primes], work)
    # sent[i][j]: user i's signal toward listener j, None for i == j
    sent = []
    for i, log_p in enumerate(logs.values):
        row = pre_process(log_p, [*h_hat[i][:i], *h_hat[i][i + 1 :]], work)
        row.insert(i, None)
        sent.append(row)
    rounds = [
        receive(
            j, [row[j] for row in sent], [row[j] for row in ch.h], work,
            ctx.tolerance, ch.noise_variance, rng, logs.near(columns[j]),
        )
        for j in range(n)
    ]
    return ProtocolTranscript.of("hmac", n, primes, rounds, logs)
