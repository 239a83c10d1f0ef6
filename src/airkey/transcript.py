"""Records shared by both schemes: one receiver's reception, one execution."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arith import BigReal
from .integers import Factorization


@dataclass
class Reception:
    """What one listener heard and recovered.

    ``signals`` is the list handed to the superposition, None for users that
    stay silent.  ``recovered`` is the nearest integer of an accepted
    reception; for a full-duplex receiver it is the radical of
    ``exponent_map``.  A rejected reception has ``recovered`` None and a
    ``failure`` reason code.
    """

    receiver: int | None
    signals: list[BigReal | None]
    observation: BigReal
    post_value: BigReal
    recovered: int | None
    distance: BigReal
    failure: str | None
    exponent_map: Factorization | None = None

    def to_dict(self) -> dict:
        return {
            "receiver": self.receiver,
            "observation": str(self.observation),
            "post_value": str(self.post_value),
            "exponent_map": (
                self.exponent_map.to_text() if self.exponent_map is not None else None
            ),
            "recovered": str(self.recovered) if self.recovered is not None else None,
            "distance_to_integer": str(self.distance),
            "failure": self.failure,
        }


@dataclass
class ProtocolTranscript:
    """Everything one protocol execution produced.

    ``rounds`` holds one :class:`Reception` per receiver (one per round for
    the half-duplex scheme, one per user for the single full-duplex
    exchange).  ``per_user_secret`` carries each user's recovered shared
    secret, or None where recovery failed.
    """

    protocol: str
    n_users: int
    rounds_used: int
    rounds: list[Reception]
    per_user_secret: list

    def agreed_secret(self):
        """The common secret if every user recovered the same one, else None."""
        values = set(self.per_user_secret)
        if len(values) == 1 and None not in values:
            return self.per_user_secret[0]
        return None

    def to_json(self) -> str:
        doc = {
            "protocol": self.protocol,
            "n_users": self.n_users,
            "rounds_used": self.rounds_used,
            "per_user_secret": [
                str(s) if s is not None else None for s in self.per_user_secret
            ],
            "rounds": [r.to_dict() for r in self.rounds],
        }
        return json.dumps(doc, sort_keys=True)
