"""Full-duplex group key agreement: one simultaneous exchange.

Every user divides its log-domain prime by the public reference gain h*
and transmits; because each link gain is an exact integer multiple c_ij of
h*, receiver j observes the sum of c_ij * ln(p_i) (own term removed by
ideal self-interference cancellation).  Exponentiating yields the integer
product of the other users' primes raised to the c_ij, which factorization
unwinds; the radical times the receiver's own prime is the shared secret.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arith import BigReal, PrecisionContext, exp, nearest_integer
from .channel import ChannelState, superpose
from .errors import DuplicatePrimeDetected, FactorBoundExceeded
from .halfduplex import pre_process
from .integers import Factorization, PrimeInput, factorize, radical
from .transcript import ProtocolTranscript


@dataclass
class FmacObservation:
    """What one full-duplex receiver saw and recovered."""

    receiver: int
    observation: BigReal
    post_value: BigReal
    exponent_map: Factorization | None
    recovered_radical: int | None
    distance: BigReal
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "receiver": self.receiver,
            "observation": str(self.observation),
            "post_value": str(self.post_value),
            "exponent_map": (
                self.exponent_map.to_text() if self.exponent_map is not None else None
            ),
            "recovered": (
                str(self.recovered_radical)
                if self.recovered_radical is not None
                else None
            ),
            "distance_to_integer": str(self.distance),
            "failure": self.failure,
        }


def _check_distinct(primes: list[PrimeInput]):
    values = [p.value for p in primes]
    if len(set(values)) != len(values):
        raise DuplicatePrimeDetected(
            "two users share a prime; the radical step would merge them"
        )


def run_full_round(
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> list[FmacObservation]:
    """The single simultaneous exchange, evaluated at every receiver.

    Needs a channel drawn in integer-fading mode.  Per-receiver recovery
    failures are recorded in the observation, not raised; an exponential
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
    observations: list[FmacObservation] = []
    for j in range(ch.n_users):
        y = superpose(signals, [row[j] for row in ch.h], ch.noise_variance, rng)
        post = exp(y, work)
        nearest, distance = nearest_integer(post)
        exponent_map = None
        rad = None
        failure = None
        if distance > ctx.tolerance:
            failure = "not-near-integer"
        else:
            try:
                exponent_map = factorize(nearest)
                rad = radical(exponent_map)
            except FactorBoundExceeded:
                failure = "factor-bound-exceeded"
        observations.append(
            FmacObservation(
                receiver=j,
                observation=y,
                post_value=post,
                exponent_map=exponent_map,
                recovered_radical=rad,
                distance=distance,
                failure=failure,
            )
        )
    return observations


def recover_secret_full(p_own: PrimeInput, obs: FmacObservation) -> int:
    """Receiver's shared secret: own prime times the recovered radical."""
    if obs.recovered_radical is None:
        raise ValueError(f"receiver {obs.receiver} has no recovered radical")
    return p_own.value * obs.recovered_radical


def run_protocol_fmac(
    primes: list[PrimeInput],
    ch: ChannelState,
    ctx: PrecisionContext,
    rng: random.Random | None = None,
) -> ProtocolTranscript:
    """Full-duplex execution; rounds_used is 1 by construction."""
    observations = run_full_round(primes, ch, ctx, rng=rng)
    secrets: list[int | None] = []
    for p, obs in zip(primes, observations):
        if obs.recovered_radical is None:
            secrets.append(None)
        else:
            secrets.append(recover_secret_full(p, obs))
    return ProtocolTranscript(
        protocol="fmac",
        n_users=ch.n_users,
        rounds_used=1,
        rounds=observations,
        per_user_secret=secrets,
    )
