import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext

import pytest

from airkey import fullduplex, integers
from airkey import (
    DuplicatePrimeDetected,
    ExperimentConfig,
    FadingModel,
    PrecisionContext,
    PrimeInput,
    draw_channel,
    ln,
    pre_process,
    run_protocol_fmac,
    sample_distinct_primes,
)
from airkey.arith import integer_logs
from airkey.harness import run_trial
from airkey.transcript import Reception
from test_oracle import POINTS
from test_reduced_exp import N64

CTX = PrecisionContext(64)


def integer_channel(n, c_max, seed, h_star="1"):
    return draw_channel(
        n, FadingModel.integer(c_max), Decimal(h_star), 0, random.Random(seed)
    )


def forced_c_channel(primes_n, c):
    """Channel with every c_ij pinned to the same value."""
    ch = integer_channel(primes_n, 1, 0)
    n = ch.n_users
    h = tuple(
        tuple(Decimal(c) if i != j else Decimal(0) for j in range(n)) for i in range(n)
    )
    cm = tuple(tuple(c if i != j else 0 for j in range(n)) for i in range(n))
    return replace(ch, h=h, c=cm)


class TestPreProcess:
    def test_gain_three_cubes(self):
        # gain 3 on a ln(5)/1 signal lands on ln(125)
        [sig] = pre_process(ln(5, CTX), [Decimal(1)], CTX)
        with localcontext(CTX.ambient):
            assert abs(3 * sig - ln(125, CTX)) < Decimal("1e-60")


class TestRunFullRound:
    def test_two_users_c_two(self):
        primes = [PrimeInput(3), PrimeInput(5)]
        ch = forced_c_channel(2, 2)
        obs = run_protocol_fmac(primes, ch, CTX).rounds
        assert obs[1].exponent_map.factors == ((3, 2),)
        assert round(obs[1].post_value) == 9
        assert obs[0].exponent_map.factors == ((5, 2),)

    def test_three_users_all_c_one(self):
        primes = [PrimeInput(p) for p in (2, 3, 5)]
        obs = run_protocol_fmac(primes, forced_c_channel(3, 1), CTX).rounds
        assert obs[0].exponent_map.factors == ((3, 1), (5, 1))
        assert obs[0].recovered == 15

    def test_exponent_map_matches_channel_column(self):
        rng = random.Random(9)
        primes, _ = sample_distinct_primes(3, 4, rng)
        ch = integer_channel(3, 4, 9)
        obs = run_protocol_fmac(primes, ch, CTX).rounds
        for j in range(3):
            want = {primes[i].value: ch.c[i][j] for i in range(3) if i != j}
            assert dict(obs[j].exponent_map.factors) == want

    def test_own_prime_never_in_map(self):
        primes, _ = sample_distinct_primes(5, 4, random.Random(10))
        obs = run_protocol_fmac(primes, integer_channel(5, 3, 10), CTX).rounds
        for j in range(5):
            assert primes[j].value not in obs[j].exponent_map.primes()

    def test_requires_integer_channel(self):
        ch = draw_channel(2, FadingModel.rayleigh(1), 1, 0, random.Random(0))
        with pytest.raises(ValueError):
            run_protocol_fmac([PrimeInput(2), PrimeInput(3)], ch, CTX)

    def test_requires_one_prime_per_user(self):
        primes, _ = sample_distinct_primes(3, 4, random.Random(10))
        with pytest.raises(ValueError, match="one prime per user"):
            run_protocol_fmac(primes[:2], integer_channel(3, 3, 10), CTX)

    def test_duplicate_primes_rejected(self):
        with pytest.raises(DuplicatePrimeDetected):
            run_protocol_fmac([PrimeInput(3), PrimeInput(3)], forced_c_channel(2, 1), CTX)

    def test_product_beyond_exponent_bound_takes_no_wide_log(self, monkeypatch):
        # c = 300000 on 6-digit primes: a product of millions of digits.  The
        # bound is checked where the digits are decided, so every receiver
        # is recorded as infinite and no log is taken at that width.
        real = fullduplex.integer_logs

        def narrow_logs(integers, ctx):
            assert ctx.digits <= CTX.digits, f"ln taken at {ctx.digits} digits"
            return real(integers, ctx)

        monkeypatch.setattr(fullduplex, "integer_logs", narrow_logs)
        primes, _ = sample_distinct_primes(3, 6, random.Random(0))
        t = run_protocol_fmac(primes, forced_c_channel(3, 300_000), CTX)
        for r in t.rounds:
            assert r.failure == "not-near-integer"
            assert r.post_value.is_infinite()
        assert t.per_user_secret == [None] * 3


class TestRecoverSecret:
    def test_trivial(self):
        # c = 1: the radical is the recovered product itself
        primes = [PrimeInput(3), PrimeInput(5)]
        t = run_protocol_fmac(primes, forced_c_channel(2, 1), CTX)
        assert t.rounds[1].exponent_map.factors == ((3, 1),)
        assert t.per_user_secret[1] == 15

    def test_radical_ignores_exponents(self):
        # c = 2: receivers hear 5^2 and 3^2, and keep only the primes
        primes = [PrimeInput(3), PrimeInput(5)]
        t = run_protocol_fmac(primes, forced_c_channel(2, 2), CTX)
        assert [r.exponent_map.factors for r in t.rounds] == [((5, 2),), ((3, 2),)]
        assert [r.recovered for r in t.rounds] == [5, 3]
        assert t.per_user_secret == [15, 15]

    def test_six_users_heavy_exponents(self):
        rng = random.Random(12)
        primes, _ = sample_distinct_primes(6, 5, rng)
        ctx = PrecisionContext(256)
        ch = integer_channel(6, 8, 12)
        t = run_protocol_fmac(primes, ch, ctx)
        want = math.prod(p.value for p in primes)
        assert t.per_user_secret == [want] * 6


class TestProtocol:
    def test_two_users_single_round(self):
        primes = [PrimeInput(2), PrimeInput(3)]
        t = run_protocol_fmac(primes, forced_c_channel(2, 1), CTX)
        assert t.per_user_secret == [6, 6]
        assert t.rounds_used == 1

    def test_twelve_users_desk_scale(self):
        # the heavy corner: 12 users, c up to 8, 5-digit primes, 256 digits
        rng = random.Random(13)
        primes, _ = sample_distinct_primes(12, 5, rng)
        ctx = PrecisionContext(256)
        ch = integer_channel(12, 8, 13)
        t = run_protocol_fmac(primes, ch, ctx)
        want = math.prod(p.value for p in primes)
        assert t.per_user_secret == [want] * 12
        assert t.rounds_used == 1

    def test_fractional_h_star(self):
        rng = random.Random(14)
        primes, _ = sample_distinct_primes(4, 4, rng)
        ch = integer_channel(4, 3, 14, h_star="0.37")
        t = run_protocol_fmac(primes, ch, CTX)
        assert t.agreed_secret() == math.prod(p.value for p in primes)

    def test_transcript_json_includes_exponent_map(self):
        import json

        primes, _ = sample_distinct_primes(3, 3, random.Random(15))
        t = run_protocol_fmac(primes, integer_channel(3, 2, 15), CTX)
        doc = json.loads(t.to_json())
        assert doc["protocol"] == "fmac"
        assert doc["rounds_used"] == 1
        assert "^" in doc["rounds"][0]["exponent_map"]


NOISELESS = pytest.mark.parametrize(
    "fields",
    [POINTS["fmac-eve-rayleigh"], POINTS["fmac-eve-matched"], N64],
    ids=["fmac-eve-rayleigh", "fmac-eve-matched", "n64"],
)


class TestFactorConfirmation:
    """A legitimate receiver whose integer equals its column's product, all
    of whose primes are at most SMOOTH_BOUND, takes the column as its
    exponent map; every other integer, and Eve's, is factorized."""

    @staticmethod
    def counted(monkeypatch, module, name) -> list:
        calls = []
        real = getattr(module, name)

        def recorded(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    @staticmethod
    def run_noiseless(fields):
        cfg = ExperimentConfig(**dict(fields, eve=False)).validate()
        for trial in range(cfg.trials):
            _, transcript, _ = run_trial(cfg, trial)
            assert all(r.exponent_map is not None for r in transcript.rounds)
        return cfg

    @NOISELESS
    def test_noiseless_receivers_never_factorize(self, fields, monkeypatch):
        calls = self.counted(monkeypatch, fullduplex, "factorize")
        self.run_noiseless(fields)
        assert calls == []

    @NOISELESS
    def test_noiseless_receivers_test_no_primality(self, fields, monkeypatch):
        tests, factoring = [], []
        real_test, real_factor = integers.is_probable_prime, fullduplex.factor

        def counted(n):
            if factoring:
                tests.append(n)
            return real_test(n)

        def flagged(*args, **kwargs):
            factoring.append(True)
            try:
                return real_factor(*args, **kwargs)
            finally:
                factoring.pop()

        monkeypatch.setattr(integers, "is_probable_prime", counted)
        monkeypatch.setattr(fullduplex, "factor", flagged)
        self.run_noiseless(fields)
        assert tests == []

    def test_six_digit_receivers_factorize_once_each(self, monkeypatch):
        # primes above SMOOTH_BOUND: the column is not taken, so a budget
        # overrun is still reported as it was
        calls = self.counted(monkeypatch, fullduplex, "factorize")
        fields = dict(protocol="fmac", fading="integer", c_max=2, prime_digits=6,
                      n_users=3, trials=2, seed=1)
        cfg = self.run_noiseless(fields)
        assert len(calls) == cfg.trials * cfg.n_users

    @pytest.mark.parametrize(
        "cofactor, budget, fails",
        [
            (3, integers.DEFAULT_RHO_EFFORT, False),
            (3, 10, False),
            (1_000_003 * 9_999_991, integers.DEFAULT_RHO_EFFORT, False),
            (1_000_003 * 9_999_991, 10, True),
        ],
        ids=["smooth", "smooth-tiny-budget", "large", "large-tiny-budget"],
    )
    def test_wrong_integers_are_factorized(self, cofactor, budget, fails, monkeypatch):
        # each receiver's integer is its column's product times a cofactor
        monkeypatch.setattr(
            fullduplex, "factorize", lambda n: integers.factorize(n, rho_effort=budget)
        )
        primes, _ = sample_distinct_primes(6, 5, random.Random(8))
        ch = integer_channel(6, 8, 8)
        logs = integer_logs([p.value for p in primes], CTX)
        for column in zip(*ch.c):
            near = logs.near(column)
            n = near.product * cofactor
            r = fullduplex.factor(Reception(0, [], 0, n, n, 0, None), near)
            if fails:
                assert (r.recovered, r.failure) == (None, "factor-bound-exceeded")
            else:
                want = integers.factorize(n)
                assert r.exponent_map == want and r.recovered == integers.radical(want)

    def test_eve_still_factorizes(self, monkeypatch):
        calls = self.counted(monkeypatch, integers, "_strip_small_primes")
        cfg = ExperimentConfig(**POINTS["fmac-eve-matched"]).validate()
        factored = 0
        for trial in range(cfg.trials):
            _, _, report = run_trial(cfg, trial)
            factored += report.eve.exponent_map is not None
        assert factored > 0
        assert len(calls) == factored
