"""The exponential reduced by a listener's own product, against the plain one.

A legitimate listener hands ``exp`` its product P and ln P in fixed point
(``IntegerLogs.near``).  The reduction e**x = P e**(x - ln P) holds for
every P, and its error bracket decides the rounding, so the result must
equal ``exp(x, ctx)`` digit for digit and exponent for exponent on every
reception: noiseless or noisy, with exact or erroneous channel estimates,
and under deliberately wrong products P - 1, P + 1 and P * p.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest

from airkey import ExperimentConfig, PrecisionContext, arith, halfduplex
from airkey.arith import exp, integer_logs
from airkey.harness import run_trial
from airkey.integers import sample_prime
from test_oracle import POINTS

# the paper-scale point the CI runs: a full-duplex group of 64 users
N64 = dict(protocol="fmac", fading="integer", c_max=8, prime_digits=5,
           precision_digits=256, n_users=64, trials=2, seed=1)
# receptions the oracle points have none of: noise on the full-duplex exchange
FMAC_NOISE = dict(protocol="fmac", fading="integer", c_max=4, prime_digits=5,
                  precision_digits=128, n_users=4, noise_variance="1e-80",
                  trials=4, seed=3)
CONFIGS = dict(POINTS, n64=N64, fmac_noise=FMAC_NOISE)


def same(a: Decimal, b: Decimal) -> bool:
    return a.as_tuple() == b.as_tuple()


def reduces(x, near, digits) -> bool:
    """Whether the reduction decides e**x by itself, without the kernel."""
    bracket = arith._exp_near(x, near)
    return bracket is not None and arith._round_half_even(*bracket, digits) is not None


def wrong_hints(logs, column, ctx):
    """P - 1, P + 1 and P times a prime, each with its own log."""
    product = logs.near(column).product
    hints = [integer_logs([product + k], ctx).near([1]) for k in (-1, 1)]
    # one prime the listener hears and, where there is one, its own
    for i in {column.index(max(column)), column.index(min(column))}:
        raised = list(column)
        raised[i] += 1
        hints.append(logs.near(raised))
    return hints


def check_trials(fields, monkeypatch):
    """Run a config's trials, comparing every hinted ``exp`` with the plain one.

    Returns (receptions, reduced): how many hinted receptions there were and
    how many of them the reduction decided by itself.
    """
    origin = {}
    real_near = arith.IntegerLogs.near

    def near(self, column):
        result = real_near(self, column)
        origin[result] = (self, list(column))
        return result

    counts = {"receptions": 0, "reduced": 0}

    def checked_exp(x, ctx, near=None):
        plain = exp(x, ctx)
        if near is not None:
            counts["receptions"] += 1
            counts["reduced"] += reduces(x, near, ctx.digits)
            assert same(exp(x, ctx, near), plain), x
            logs, column = origin[near]
            for hint in wrong_hints(logs, column, ctx):
                assert same(exp(x, ctx, hint), plain), (x, hint.product)
        return plain

    monkeypatch.setattr(arith.IntegerLogs, "near", near)
    monkeypatch.setattr(halfduplex, "exp", checked_exp)
    fields = dict(fields)
    trials = fields.pop("trials")
    cfg = ExperimentConfig(**fields, trials=trials).validate()
    for trial in range(trials):
        run_trial(cfg, trial)
    return counts["receptions"], counts["reduced"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reduced_exp_equals_plain_exp(name, monkeypatch):
    receptions, reduced = check_trials(CONFIGS[name], monkeypatch)
    assert receptions > 0
    if name in (
        "hmac-csi-error-coarse", "fmac_noise", "hmac-noise-below-two",
        "hmac-noise-silent-wrong",
    ):
        # an observation this far from ln P falls back to the kernel
        assert reduced == 0
    else:
        # every other one is near enough, noise of variance 1e-66 and CSI
        # error 1e-40 included: d stays below 2**(-w/3) at w of about 250
        # bits, where the two-term series is within its bracket
        assert reduced == receptions


def test_off_by_one_products_still_reduce():
    # x - ln(P +- 1) is about 1/P, tiny, so the reduction decides even for
    # the wrong neighbour of the product, and gives the same digits: P is
    # only where the argument is reduced from
    rng = random.Random(4)
    primes = [sample_prime(5, rng).value for _ in range(8)]
    column = [rng.randint(1, 8) for _ in primes]
    product = math.prod(p**c for p, c in zip(primes, column))
    ctx = PrecisionContext(128).sized(len(str(product)))
    logs = integer_logs(primes, ctx)
    with localcontext(ctx.ambient):
        x = sum(c * v for c, v in zip(column, logs.values))
    plain = exp(x, ctx)
    for hint in wrong_hints(logs, column, ctx)[:2]:
        assert reduces(x, hint, ctx.digits)
        assert same(exp(x, ctx, hint), plain)


def test_kernel_brackets_hold():
    # each fixed-point result lies within its stated error of the exact
    # value, computed by libmpdec at twice the digits
    rng = random.Random(5)
    for digits in (16, 64, 384):
        for _ in range(20):
            primes = [sample_prime(rng.randrange(1, 13), rng).value for _ in range(4)]
            column = [rng.randint(0, 8) for _ in primes]
            product = math.prod(p**c for p, c in zip(primes, column))
            ctx = PrecisionContext(digits).sized(len(str(product)))
            oracle = arith._context(2 * ctx.digits + 40)
            logs = integer_logs(primes, ctx)
            scale = Decimal(2**logs.bits)
            for p, man, err in zip(primes, logs.fixed, logs.errors):
                exact = oracle.multiply(Decimal(p).ln(oracle), scale)
                assert abs(oracle.subtract(man, exact)) <= err, p
            with localcontext(ctx.ambient):
                x = sum(c * v for c, v in zip(column, logs.values)) + Decimal(
                    rng.randrange(-10**6, 10**6)
                ).scaleb(-ctx.digits)
            man, err, shift, _ = arith._exp_near(x, logs.near(column))
            exact = oracle.multiply(x.exp(oracle), Decimal(2**shift))
            assert abs(oracle.subtract(man, exact)) <= err


@pytest.mark.parametrize("c_max", [1, 8])
def test_near_equals_the_direct_sums(c_max):
    # a column of zeros and ones is taken from the exchange's totals, any
    # other column summed directly; both give the ints of the direct sums
    rng = random.Random(6 + c_max)
    for n in (2, 5, 16):
        primes = [sample_prime(rng.randrange(1, 8), rng).value for _ in range(n)]
        logs = integer_logs(primes, PrecisionContext(64))
        columns = [[rng.randint(0, c_max) for _ in primes] for _ in range(10)]
        # each hmac listener's column of bools, and one of zeros
        columns += [[i != j for i in range(n)] for j in range(n)] + [[0] * n]
        for column in columns:
            near = logs.near(column)
            assert "product" not in vars(near)  # multiplied out when read
            entries = [(p, c, f, r) for p, c, f, r in
                       zip(primes, column, logs.fixed, logs.errors) if c]
            assert near.powers == tuple((p, c) for p, c, _, _ in entries)
            assert near.log == sum(c * f for _, c, f, _ in entries)
            assert near.err == sum(c * r for _, c, _, r in entries)
            assert near.product == math.prod(p**c for p, c, _, _ in entries)
            assert near.bits == logs.bits
