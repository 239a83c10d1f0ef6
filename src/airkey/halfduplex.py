"""Half-duplex group key agreement: N rounds over the listening-user channel.

In round j user j stays silent and listens while every other user transmits
its log-domain prime, pre-divided by the estimated gain toward j.  The
channel superposes the signals, the receiver exponentiates and rounds, and
multiplying in its own prime yields the shared secret S = product of all
users' primes.  Repeating with each user as the listener gives everyone S
in exactly N rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .arith import (
    BigReal,
    PrecisionContext,
    elevate_for_magnitude,
    exp,
    ln,
    nearest_integer,
    to_bigreal,
)
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


def pre_process_half(
    p: PrimeInput,
    h_hat: BigReal,
    ctx: PrecisionContext,
    logs: dict[tuple[int, int], BigReal] | None = None,
) -> BigReal:
    """Transmit signal for one user: ln(p) divided by the estimated gain.

    ``logs`` memoizes ln(p) by (prime, digits) across the rounds of one run.
    """
    if h_hat <= 0:
        raise NonPositiveGain(f"estimated gain must be positive, got {h_hat}")
    logs = {} if logs is None else logs
    key = (p.value, ctx.digits)
    if key not in logs:
        logs[key] = ln(p.value, ctx)
    with localcontext(ctx._context(ctx._working_prec())):
        return logs[key] / h_hat


def run_round(
    j: int,
    primes: list[PrimeInput],
    ch: ChannelState,
    csi: CsiEstimate,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
    tol: BigReal | None = None,
    logs: dict[tuple[int, int], BigReal] | None = None,
) -> HmacRoundRecord:
    """Execute the round in which user ``j`` listens.

    ``logs`` is passed on to :func:`pre_process_half`.  Raises
    :class:`RoundRecoveryFailure` (carrying the partial record) when the
    post-processed value does not round to an integer.
    """
    tol = ctx.tolerance if tol is None else to_bigreal(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    # the product's digit count decides how many digits the logs must carry
    magnitude = int(sum(math.log10(primes[i].value) for i in range(ch.n_users) if i != j))
    work = elevate_for_magnitude(ctx, magnitude + 1)
    signals: list[BigReal | None] = [None] * ch.n_users
    kept: dict[int, BigReal] = {}
    for i in range(ch.n_users):
        if i == j:
            continue
        signals[i] = pre_process_half(primes[i], csi.h_hat[i][j], work, logs)
        kept[i] = signals[i]
    observation = superpose(signals, j, exclude_self=True, ch=ch, rng=rng, ctx=work)
    post_value = exp(observation, work)
    nearest, distance = nearest_integer(post_value)
    near = distance <= tol
    record = HmacRoundRecord(
        receiver=j,
        signals=kept,
        observation=observation,
        post_value=post_value,
        recovered=nearest if near else None,
        distance=distance,
        failure=None if near else "not-near-integer",
    )
    if not near:
        raise RoundRecoveryFailure(
            record, NotNearInteger(post_value, nearest, distance, tol)
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
    tol: BigReal | None = None,
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
            record = run_round(j, primes, ch, csi, ctx, rng=rng, tol=tol, logs=logs)
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
