"""Half-duplex group key agreement: N rounds over the listening-user channel.

In round j user j stays silent and listens while every other user transmits
its log-domain prime, pre-divided by the estimated gain toward j.  The
channel superposes the signals, the receiver exponentiates and rounds, and
multiplying in its own prime yields the shared secret S = product of all
users' primes.  Repeating with each user as the listener gives everyone S
in exactly N rounds.

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
from dataclasses import dataclass

from .arith import BigReal, PrecisionContext, exp, ln, nearest_integer
from .channel import ChannelState, CsiEstimate, superpose
from .errors import NonPositiveGain, NotNearInteger, RoundRecoveryFailure
from .integers import PrimeInput
from .transcript import ProtocolTranscript


@dataclass
class HmacRoundRecord:
    """One listening round: who listened, what flew, what was recovered."""

    receiver: int
    signals: dict[int, BigReal]
    observation: BigReal
    post_value: BigReal
    recovered: int | None
    distance: BigReal
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "receiver": self.receiver,
            "observation": str(self.observation),
            "post_value": str(self.post_value),
            "recovered": str(self.recovered) if self.recovered is not None else None,
            "distance_to_integer": str(self.distance),
            "failure": self.failure,
        }


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


def run_round(
    j: int,
    primes: list[PrimeInput],
    ch: ChannelState,
    csi: CsiEstimate,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
    logs: dict[tuple[int, int], BigReal] | None = None,
) -> HmacRoundRecord:
    """Execute the round in which user ``j`` listens.

    ``logs`` is passed on to :func:`pre_process`.  Raises
    :class:`RoundRecoveryFailure` (carrying the partial record) when the
    post-processed value is not within ``ctx.tolerance`` of an integer.
    """
    # the worst receiver hears every prime but the smallest
    log10s = sorted(math.log10(p.value) for p in primes)
    work = ctx.sized(int(sum(log10s[1:])) + 1)
    signals: list[BigReal | None] = [
        None if i == j else pre_process(primes[i], csi.h_hat[i][j], work, logs)
        for i in range(ch.n_users)
    ]
    observation = superpose(
        signals, [row[j] for row in ch.h], ch.noise_variance, rng
    )
    post_value = exp(observation, work)
    nearest, distance = nearest_integer(post_value)
    near = distance <= ctx.tolerance
    record = HmacRoundRecord(
        receiver=j,
        signals={i: s for i, s in enumerate(signals) if s is not None},
        observation=observation,
        post_value=post_value,
        recovered=nearest if near else None,
        distance=distance,
        failure=None if near else "not-near-integer",
    )
    if not near:
        raise RoundRecoveryFailure(
            record, NotNearInteger(post_value, nearest, distance, ctx.tolerance)
        )
    return record


def derive_secret_half(p_own: PrimeInput, record: HmacRoundRecord) -> int:
    """The listener folds its own prime into the recovered product."""
    if record.recovered is None:
        raise RoundRecoveryFailure(record, "round did not recover an integer")
    return p_own.value * record.recovered


def run_protocol_hmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    csi: CsiEstimate,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> ProtocolTranscript:
    """Full half-duplex execution: every user listens exactly once.

    A failed round marks only that listener's secret as missing; the other
    rounds still run over the same (static) channel realization.
    """
    n = ch.n_users
    if len(primes) != n:
        raise ValueError("need one prime per user")
    rounds: list[HmacRoundRecord] = []
    secrets: list[int | None] = []
    logs: dict[tuple[int, int], BigReal] = {}
    for j in range(n):
        try:
            record = run_round(j, primes, ch, csi, ctx, rng=rng, logs=logs)
            secrets.append(derive_secret_half(primes[j], record))
        except RoundRecoveryFailure as e:
            record = e.record
            secrets.append(None)
        rounds.append(record)
    return ProtocolTranscript(
        protocol="hmac",
        n_users=n,
        rounds_used=n,
        rounds=rounds,
        per_user_secret=secrets,
    )
