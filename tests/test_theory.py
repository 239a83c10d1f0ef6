"""Closed-form reception rates checked by Monte-Carlo.

A receiver hears ln P plus Gaussian noise n of variance sigma**2, where P is
the product its round carries, and exponentiates: its value P * e**n lies
within the tolerance 10**-T of the integer P when |n| <= 10**-T / P, to
first order.  So each round is accepted with probability
erf(10**-T / (P * sigma * sqrt(2))), whatever the fading gains.

Each test runs trials through the harness and compares the number of
accepted rounds with the sum of those probabilities, within 4 standard
deviations of that sum.  P comes from the primes and the integer gains
drawn again from each trial's child seed, not from the protocol's outputs,
so a drift between model and simulator shows as a moved rate.
"""

import math
import random

import pytest

from airkey import ExperimentConfig, FadingModel, draw_channel, sample_distinct_primes
from airkey.harness import child_seed, run_trial

HMAC = dict(protocol="hmac", prime_digits=6, fading="rayleigh")
FMAC = dict(protocol="fmac", prime_digits=3, fading="integer")

# (config fields, noise variances)
POINTS = [
    (dict(HMAC, n_users=4, precision_digits=64, seed=77, trials=400),
     ["1e-64", "1e-66", "1e-68"]),
    (dict(HMAC, n_users=6, precision_digits=128, seed=79, trials=200),
     ["1e-118", "1e-120", "1e-122"]),
    (dict(FMAC, n_users=3, c_max=2, precision_digits=64, seed=78, trials=300),
     ["1e-44", "1e-48", "1e-52"]),
    (dict(FMAC, n_users=4, c_max=3, precision_digits=128, seed=81, trials=200),
     ["1e-88", "1e-92", "1e-96"]),
]


def heard_products(cfg, trial):
    """The product each receiver of ``trial`` hears, from its child seed."""
    rng = random.Random(child_seed(cfg.seed, trial))
    primes, _ = sample_distinct_primes(cfg.n_users, cfg.prime_digits, rng)
    n = cfg.n_users
    if cfg.protocol == "hmac":
        c = [[int(i != j) for j in range(n)] for i in range(n)]
    else:
        c = draw_channel(n, FadingModel.integer(cfg.c_max), 1, 0, rng).c
    return [math.prod(p.value ** c[i][j] for i, p in enumerate(primes)) for j in range(n)]


@pytest.mark.parametrize(
    "fields,variance",
    [(fields, v) for fields, variances in POINTS for v in variances],
    ids=lambda x: x if isinstance(x, str) else f"{x['protocol']}-n{x['n_users']}",
)
def test_awgn_acceptance(fields, variance):
    cfg = ExperimentConfig(noise_variance=variance, **fields).validate()
    bound = 10.0 ** -(cfg.precision_digits // 4) / math.sqrt(2 * float(variance))
    predicted = spread = accepted = 0.0
    for trial in range(cfg.trials):
        products = heard_products(cfg, trial)
        rounds = run_trial(cfg, trial)[1].rounds
        for product, r in zip(products, rounds):
            p = math.erf(bound / product)
            predicted += p
            spread += p * (1 - p)
            accepted += r.failure is None
    rounds_run = cfg.trials * cfg.n_users
    assert 0.01 < predicted / rounds_run < 0.999, "the point does not discriminate"
    assert abs(accepted - predicted) <= 4 * math.sqrt(spread), (
        f"accepted {accepted / rounds_run:.4f}, predicted {predicted / rounds_run:.4f}"
    )
