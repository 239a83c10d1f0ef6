"""Closed-form reception rates checked by Monte-Carlo.

A receiver hears ln P plus Gaussian noise n of variance sigma**2, where P is
the product its round carries, and exponentiates: its value P * e**n lies
within the tolerance 10**-T of the integer P when |n| <= 10**-T / P, to
first order.  So each round is accepted with probability
erf(10**-T / (P * sigma * sqrt(2))), whatever the fading gains.

Each AWGN test runs trials through the harness and compares the number of
accepted rounds with the sum of those probabilities, within 4 standard
deviations of that sum.  P comes from the primes and the integer gains
drawn again from each trial's child seed, not from the protocol's outputs,
so a drift between model and simulator shows as a moved rate.

CSI error is checked reception by reception.  User i sends ln p_i / h^_ij
toward listener j over the true gain h_ij, so j hears ln P_j + delta_j with
delta_j = sum over i != j of ln p_i * (h_ij / h^_ij - 1), and its value
P_j * e**delta_j is accepted when P_j * |expm1(delta_j)| <= 10**-T.
"""

import math
import random
from decimal import Context

import pytest

from airkey import (
    ExperimentConfig,
    FadingModel,
    PrecisionContext,
    draw_channel,
    estimate_csi,
    run_protocol_hmac,
    sample_distinct_primes,
)
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


@pytest.mark.parametrize("epsilon", [1e-35, 3e-35, 1e-34, 1e-33])
def test_csi_error_acceptance(epsilon):
    n, trials = 4, 150
    ctx = PrecisionContext(64)
    threshold = 10.0 ** -(ctx.digits // 4)
    # h / h^ - 1 is about epsilon: at 28 digits the ratio would round to 1
    wide = Context(prec=100)
    rng = random.Random(31)
    model_accepted = accepted = 0
    for _ in range(trials):
        primes, _ = sample_distinct_primes(n, 6, rng)
        ch = draw_channel(n, FadingModel.rayleigh(1), 1, 0, rng)
        h_hat = estimate_csi(ch, epsilon, rng)
        rounds = run_protocol_hmac(primes, ch, h_hat, ctx).rounds
        for j, r in enumerate(rounds):
            others = [i for i in range(n) if i != j]
            delta = math.fsum(
                math.log(primes[i].value)
                * float(wide.subtract(wide.divide(ch.h[i][j], h_hat[i][j]), 1))
                for i in others
            )
            product = math.prod(primes[i].value for i in others)
            distance = product * abs(math.expm1(delta))
            model_accepted += distance <= threshold
            accepted += r.failure is None
            if abs(distance / threshold - 1) > 1e-9:
                assert (r.failure is None) == (distance <= threshold), (j, distance)
    receptions = trials * n
    p = model_accepted / receptions
    assert 0.01 < p < 0.999, "the point does not discriminate"
    assert abs(accepted - model_accepted) <= 4 * math.sqrt(receptions * p * (1 - p))
