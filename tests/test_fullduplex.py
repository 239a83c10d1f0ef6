import math
import random
from dataclasses import replace
from decimal import Decimal

import pytest

from airkey import (
    DuplicatePrimeDetected,
    FadingModel,
    Overflow,
    PrecisionContext,
    PrimeInput,
    draw_channel,
    ln,
    pre_process,
    run_full_round,
    run_protocol_fmac,
    sample_distinct_primes,
)

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
    def test_unit_reference(self):
        assert pre_process(PrimeInput(2, 1), Decimal(1), CTX) == ln(2, CTX)

    def test_half_reference_doubles(self):
        got = pre_process(PrimeInput(3, 1), Decimal("0.5"), CTX)
        with CTX.local():
            assert abs(got - 2 * ln(3, CTX)) < Decimal("1e-60")

    def test_gain_three_cubes(self):
        # gain 3 on a ln(5)/1 signal lands on ln(125)
        sig = pre_process(PrimeInput(5, 1), Decimal(1), CTX)
        with CTX.local():
            assert abs(3 * sig - ln(125, CTX)) < Decimal("1e-60")


class TestRunFullRound:
    def test_two_users_c_two(self):
        primes = [PrimeInput(3, 1), PrimeInput(5, 1)]
        ch = forced_c_channel(2, 2)
        obs = run_full_round(primes, ch, CTX)
        assert obs[1].exponent_map.factors == ((3, 2),)
        assert round(obs[1].post_value) == 9
        assert obs[0].exponent_map.factors == ((5, 2),)

    def test_three_users_all_c_one(self):
        primes = [PrimeInput(p, 1) for p in (2, 3, 5)]
        obs = run_full_round(primes, forced_c_channel(3, 1), CTX)
        assert obs[0].exponent_map.factors == ((3, 1), (5, 1))
        assert obs[0].recovered == 15

    def test_exponent_map_matches_channel_column(self):
        rng = random.Random(9)
        primes, _ = sample_distinct_primes(3, 4, rng)
        ch = integer_channel(3, 4, 9)
        obs = run_full_round(primes, ch, CTX)
        for j in range(3):
            want = {primes[i].value: ch.c[i][j] for i in range(3) if i != j}
            assert dict(obs[j].exponent_map.factors) == want

    def test_own_prime_never_in_map(self):
        primes, _ = sample_distinct_primes(5, 4, random.Random(10))
        obs = run_full_round(primes, integer_channel(5, 3, 10), CTX)
        for j in range(5):
            assert primes[j].value not in obs[j].exponent_map.primes()

    def test_requires_integer_channel(self):
        ch = draw_channel(2, FadingModel.rayleigh(1), 1, 0, random.Random(0))
        with pytest.raises(ValueError):
            run_full_round([PrimeInput(2, 1), PrimeInput(3, 1)], ch, CTX)

    def test_duplicate_primes_rejected(self):
        with pytest.raises(DuplicatePrimeDetected):
            run_full_round(
                [PrimeInput(3, 1), PrimeInput(3, 1)], forced_c_channel(2, 1), CTX
            )

    def test_strict_context_overflows_loudly(self):
        # a 256-digit-demand product under a non-elastic 64-digit context
        # must raise, never silently mis-round
        strict = PrecisionContext(64, elastic=False)
        rng = random.Random(11)
        primes, _ = sample_distinct_primes(8, 5, rng)
        ch = integer_channel(8, 8, 11)
        with pytest.raises(Overflow):
            run_full_round(primes, ch, strict)


class TestRecoverSecret:
    def test_trivial(self):
        # c = 1: the radical is the recovered product itself
        primes = [PrimeInput(3, 1), PrimeInput(5, 1)]
        t = run_protocol_fmac(primes, forced_c_channel(2, 1), CTX)
        assert t.rounds[1].exponent_map.factors == ((3, 1),)
        assert t.per_user_secret[1] == 15

    def test_radical_ignores_exponents(self):
        # c = 2: receivers hear 5^2 and 3^2, and keep only the primes
        primes = [PrimeInput(3, 1), PrimeInput(5, 1)]
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
        primes = [PrimeInput(2, 1), PrimeInput(3, 1)]
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
