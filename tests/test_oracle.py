"""Behaviour oracle: frozen outputs of fixed (config, seed) points.

``oracle_fixture.json`` holds two sections per point, one entry per trial.

``exact`` is what a trial decides: every user's secret, each receiver's fmac
exponent map, each round's failure reason and whether the eavesdropper
recovered the key.  It is recorded once and must never move; a change that
moves it changes the protocols' behaviour.

``moving`` holds numbers that a change keeping that behaviour may still move:
the worst distance to the nearest integer and the eavesdropper's digit
overlap (both follow every digit of the channel gains).  A change that moves
them re-records this section and lists each value it moved, old -> new:

    PYTHONPATH=src python tests/test_oracle.py moving
"""

import json
import sys
from pathlib import Path

import pytest

from airkey import ExperimentConfig
from airkey.harness import run_trial

FIXTURE = Path(__file__).with_name("oracle_fixture.json")

HMAC = dict(protocol="hmac", n_users=4, prime_digits=6, precision_digits=64,
            fading="rayleigh")
FMAC = dict(protocol="fmac", prime_digits=5, precision_digits=128,
            fading="integer")

# name -> config fields; each point runs its trials 0..trials-1
POINTS = {
    "hmac-eve-single-matched": dict(HMAC, eve=True, trials=6, seed=11),
    "hmac-eve-two-round-rayleigh": dict(
        HMAC, eve=True, eve_mode="two_round", eve_taps="rayleigh", trials=6, seed=12
    ),
    "hmac-n16": dict(HMAC, n_users=16, precision_digits=128, trials=2, seed=13),
    "hmac-csi-error-coarse": dict(HMAC, csi_error=0.01, trials=6, seed=14),
    "hmac-csi-error-fine": dict(HMAC, csi_error=1e-40, trials=6, seed=15),
    "hmac-noise": dict(HMAC, noise_variance="1e-66", trials=6, seed=16),
    "hmac-eve-ideal": dict(HMAC, fading="ideal", eve=True, trials=3, seed=19),
    "fmac-eve-rayleigh": dict(
        FMAC, n_users=6, c_max=4, eve=True, eve_taps="rayleigh", trials=4, seed=17
    ),
    "fmac-eve-matched": dict(FMAC, n_users=4, c_max=3, eve=True, trials=6, seed=18),
    # her rebuilt signals recover all six keys; the transmitted ones would
    # recover four, so this point pins what she hears
    "fmac-eve-matched-wide": dict(
        FMAC, n_users=4, c_max=8, eve=True, trials=6, seed=21
    ),
    # trial 34 rounds a noisy value to a wrong integer within the tolerance
    # and returns a wrong secret without a reason code
    "hmac-noise-silent-wrong": dict(
        HMAC, precision_digits=16, noise_variance="1e-20", trials=35, seed=5
    ),
    # strong noise sends some values below the tolerance: they round to 0
    # and are rejected as not-a-prime-product
    "hmac-noise-below-two": dict(HMAC, noise_variance="1e4", trials=3, seed=1),
    # primes above SMOOTH_BOUND: every legitimate product goes through the
    # small-prime gcd, rho and the Miller-Rabin test of its factors
    "fmac-digits6": dict(FMAC, n_users=3, c_max=2, prime_digits=6, trials=4, seed=3),
    "fmac-digits8": dict(FMAC, n_users=3, c_max=2, prime_digits=8, trials=4, seed=3),
    # noise that fails 4 of the 16 receivers with not-near-integer
    "fmac-noisy": dict(
        FMAC, n_users=4, precision_digits=64, noise_variance="1e-120", trials=4, seed=3
    ),
}
# factor-bound-exceeded costs tens of seconds per trial through a config; it
# is pinned by test_fullduplex.py::TestFactorConfirmation::
# test_wrong_integers_are_factorized[*-tiny-budget] instead.


def _observe(fields: dict) -> dict:
    cfg = ExperimentConfig(**fields).validate()
    exact, moving = [], []
    for trial in range(cfg.trials):
        row, transcript, report = run_trial(cfg, trial)
        maps = [
            r.exponent_map.to_text() if r.exponent_map is not None else None
            for r in transcript.rounds
        ] if cfg.protocol == "fmac" else None
        exact.append({
            "secrets": [None if s is None else str(s) for s in transcript.per_user_secret],
            "failures": [r.failure for r in transcript.rounds],
            "exponent_maps": maps,
            "eve_key_equal": None if report is None else report.key_equal,
        })
        moving.append({
            "max_distance_to_integer": row["max_distance_to_integer"],
            "eve_digit_overlap": None if report is None else report.digit_overlap,
        })
    return {"exact": exact, "moving": moving}


@pytest.fixture(scope="module")
def observed():
    return {name: _observe(fields) for name, fields in POINTS.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_points_match_fixture(recorded):
    assert set(recorded) == set(POINTS)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_exact(name, observed, recorded):
    assert observed[name]["exact"] == recorded[name]["exact"]


@pytest.mark.parametrize("name", sorted(POINTS))
def test_moving(name, observed, recorded):
    assert observed[name]["moving"] == recorded[name]["moving"]


def _record(sections):
    doc = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    for name, fields in POINTS.items():
        now = _observe(fields)
        entry = doc.setdefault(name, {})
        for section in sections:
            entry[section] = now[section]
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # "moving" re-records that section only; "all" also rewrites "exact".
    which = sys.argv[1:] or ["moving"]
    if which not in (["moving"], ["all"]):
        sys.exit("usage: test_oracle.py [moving|all]")
    _record(["exact", "moving"] if which == ["all"] else ["moving"])
