"""Wireless multiple-access channel simulation.

Reciprocal fading among N users, independent eavesdropper taps, additive
superposition at each receiver, optional AWGN, and channel-state estimation.
Gains are positive real scalars (Rayleigh magnitudes): the protocols divide
logarithms by gains and compare real-valued products, so complex phase has
no place here.  A channel is immutable once drawn (block fading within one
protocol execution) and all randomness flows through explicit generators.

Neither drawing a channel nor observing through it depends on the
protocol's working precision.  A Rayleigh gain comes from one 53-bit
uniform, so it is computed in float and stored exactly as the float's
shortest round-trip decimal, at most 17 significant digits.  Integer-mode
gains c * h_star and relative CSI estimates h * (1 + e) are exact decimal
products, never rounded, and so is an observation: the sum of gain times
signal over the transmitters.  Precision is decided only where an
observation is exponentiated, by the one sizing step
:func:`airkey.halfduplex.sized_exchange`.

A draw resolves its fading model once, not once per gain, and every gain
equals what a per-gain draw from the same generator gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

from .arith import EXACT, BigReal, to_bigreal
from .errors import NonPositiveGain

# sqrt(-2 ln u) at the greatest and least uniform u = 1 - rng.random() below 1
_RAYLEIGH_FACTORS = [math.sqrt(-2.0 * math.log(u)) for u in (1 - 2.0**-53, 2.0**-53)]


@dataclass(frozen=True)
class FadingModel:
    """How link gains are drawn.

    ``ideal`` sets every gain to 1; ``rayleigh`` draws Rayleigh magnitudes
    with the given scale; ``integer`` draws c uniformly from {1..c_max} and
    sets the gain to c * h_star exactly (constructed, never rounded), which
    is the premise the full-duplex scheme needs.
    """

    kind: str
    scale: Decimal = Decimal(1)
    c_max: int = 1

    def __post_init__(self):
        if self.kind not in ("ideal", "rayleigh", "integer"):
            raise ValueError(f"unknown fading model {self.kind!r}")

    @classmethod
    def ideal(cls) -> "FadingModel":
        return cls("ideal")

    @classmethod
    def rayleigh(cls, scale) -> "FadingModel":
        scale = to_bigreal(scale)
        if not all(0 < float(scale) * f < math.inf for f in _RAYLEIGH_FACTORS):
            raise ValueError("rayleigh scale must keep draws finite and positive")
        return cls("rayleigh", scale=scale)

    @classmethod
    def integer(cls, c_max: int) -> "FadingModel":
        if c_max < 1:
            raise ValueError("c_max must be >= 1")
        return cls("integer", c_max=c_max)


@dataclass(frozen=True)
class ChannelState:
    """One realization of the network's fading state.

    ``h`` is the reciprocal N x N gain matrix (diagonal unused, held at 0),
    ``h_eve`` the eavesdropper's independent taps, ``h_star`` the public
    reference gain and ``c`` the integer quotients h[i][j] / h_star when the
    channel was drawn in integer mode (None otherwise).
    """

    n_users: int
    h: tuple[tuple[BigReal, ...], ...]
    h_eve: tuple[BigReal, ...]
    h_star: BigReal
    noise_variance: BigReal
    c: tuple[tuple[int, ...], ...] | None = None

    def with_eve_taps(self, taps) -> "ChannelState":
        """Same legitimate channel, different eavesdropper taps."""
        taps = tuple(to_bigreal(t) for t in taps)
        if len(taps) != self.n_users:
            raise ValueError("need one tap per user")
        return replace(self, h_eve=taps)


def _rayleigh_gain(scale: float, rng: random.Random) -> BigReal:
    """Rayleigh magnitude scale * sqrt(-2 ln U), U uniform on (0, 1)."""
    u = 1.0 - rng.random()
    while not 0.0 < u < 1.0:
        u = 1.0 - rng.random()
    return Decimal(repr(scale * math.sqrt(-2.0 * math.log(u))))


def _gain_source(model: FadingModel, h_star: BigReal, rng: random.Random):
    """A function that draws one (gain, c) pair of ``model`` from ``rng``.

    c is None outside integer mode.  In integer mode c comes from the
    ``getrandbits`` calls of ``rng.randint(1, c_max)``.
    """
    if model.kind == "ideal":
        unit = Decimal(1), None
        return lambda: unit
    if model.kind == "rayleigh":
        scale = float(model.scale)
        return lambda: (_rayleigh_gain(scale, rng), None)
    c_max, k = model.c_max, model.c_max.bit_length()

    def integer_gain():
        r = rng.getrandbits(k)
        while r >= c_max:
            r = rng.getrandbits(k)
        return EXACT.multiply(h_star, r + 1), r + 1

    return integer_gain


def draw_channel(
    n_users: int,
    model: FadingModel,
    h_star,
    noise_variance,
    rng: random.Random,
) -> ChannelState:
    """Draw a reciprocal channel plus independent eavesdropper taps.

    Eve's taps come from the same marginal distribution as the legitimate
    gains but are statistically independent of them (nodes sit more than
    half a wavelength apart).
    """
    if n_users < 2:
        raise ValueError("need at least two users")
    h_star = to_bigreal(h_star)
    if h_star <= 0:
        raise NonPositiveGain("h_star must be positive")
    noise_variance = to_bigreal(noise_variance)
    if noise_variance < 0:
        raise ValueError("noise variance cannot be negative")

    draw_gain = _gain_source(model, h_star, rng)
    h = [[Decimal(0)] * n_users for _ in range(n_users)]
    c = [[0] * n_users for _ in range(n_users)] if model.kind == "integer" else None
    for i in range(n_users):
        for j in range(i + 1, n_users):
            gain, cij = draw_gain()
            h[i][j] = h[j][i] = gain
            if c is not None:
                c[i][j] = c[j][i] = cij
    h_eve = tuple(draw_gain()[0] for _ in range(n_users))
    return ChannelState(
        n_users=n_users,
        h=tuple(tuple(row) for row in h),
        h_eve=h_eve,
        h_star=h_star,
        noise_variance=noise_variance,
        c=tuple(tuple(row) for row in c) if c is not None else None,
    )


def rayleigh_taps(n: int, scale, rng: random.Random) -> tuple[BigReal, ...]:
    """Continuous Rayleigh taps, e.g. for an eavesdropper of an integer-mode
    channel whose physical link is not integer-quantized."""
    scale = float(FadingModel.rayleigh(scale).scale)
    return tuple(_rayleigh_gain(scale, rng) for _ in range(n))


def superpose(
    signals,
    taps,
    noise_variance,
    rng: random.Random | None = None,
) -> BigReal:
    """One receiver's observation: sum of taps[i] * signals[i] plus noise.

    Receiver j passes column j of ``ch.h``; its zero diagonal drops the
    receiver's own term, which models both the silent half-duplex listener
    and ideal self-interference cancellation.  The eavesdropper passes
    ``ch.h_eve`` and zero noise.  Entries of ``signals`` may be None for
    users that do not transmit.  The sum is exact.
    """
    if len(signals) != len(taps):
        raise ValueError("need one signal slot per tap")
    with localcontext(EXACT):
        total = Decimal(0)
        for s, g in zip(signals, taps):
            if s is not None:
                total += g * s
        if noise_variance > 0:
            if rng is None:
                raise ValueError("a noisy channel needs an rng")
            total += to_bigreal(rng.gauss(0.0, float(noise_variance) ** 0.5))
    return total


def estimate_csi(
    ch: ChannelState,
    epsilon: float = 0.0,
    rng: random.Random | None = None,
) -> tuple[tuple[BigReal, ...], ...]:
    """The transmitters' gain estimate matrix ``h_hat``.

    With ``epsilon`` 0 it is ``ch.h``.  Otherwise each directed link is
    perturbed independently by a uniform relative factor in
    [-epsilon, epsilon]; estimates are drawn once per channel realization
    and reused for every round.  Each estimate is the exact product
    h * (1 + e), so even an error far below float resolution shows in it.
    """
    if epsilon < 0:
        raise ValueError("epsilon cannot be negative")
    if epsilon == 0:
        return ch.h
    if rng is None:
        raise ValueError("relative CSI error needs an rng")
    n = ch.n_users
    return tuple(
        tuple(
            EXACT.multiply(
                ch.h[i][j], EXACT.add(1, to_bigreal(rng.uniform(-epsilon, epsilon)))
            )
            if i != j
            else Decimal(0)
            for j in range(n)
        )
        for i in range(n)
    )
