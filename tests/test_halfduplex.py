import math
import random
from decimal import Decimal

import pytest

from airkey import (
    FadingModel,
    NonPositiveGain,
    PrecisionContext,
    PrimeInput,
    draw_channel,
    estimate_csi,
    ln,
    pre_process,
    run_protocol_hmac,
    run_round,
    sample_distinct_primes,
)

CTX = PrecisionContext(64)


def make_setup(n, model, seed, digits=6, noise="0"):
    rng = random.Random(seed)
    primes, _ = sample_distinct_primes(n, digits, rng)
    ch = draw_channel(n, model, 1, Decimal(noise), rng)
    csi = estimate_csi(ch)
    return primes, ch, csi, rng


class TestPreProcess:
    def test_unit_gain(self):
        assert pre_process(PrimeInput(2, 1), Decimal(1), CTX) == ln(2, CTX)

    def test_half_gain_doubles(self):
        got = pre_process(PrimeInput(3, 1), Decimal("0.5"), CTX)
        with CTX.local():
            assert abs(got - 2 * ln(3, CTX)) < Decimal("1e-60")

    def test_gain_cancellation(self):
        # transmitting through the very gain used for inversion restores ln p
        h = Decimal("1.73205")
        sig = pre_process(PrimeInput(7, 1), h, CTX)
        with CTX.local():
            assert abs(h * sig - ln(7, CTX)) < Decimal("1e-60")

    def test_rejects_non_positive_gain(self):
        with pytest.raises(NonPositiveGain):
            pre_process(PrimeInput(2, 1), Decimal(0), CTX)


class TestRunRound:
    def test_ideal_three_users(self):
        primes = [PrimeInput(p, 1) for p in (2, 3, 5)]
        ch = draw_channel(3, FadingModel.ideal(), 1, 0, random.Random(0))
        record = run_round(0, primes, ch, estimate_csi(ch), CTX)
        assert record.recovered == 15
        assert record.receiver == 0
        assert record.signals[0] is None and None not in record.signals[1:]

    def test_fading_cancels_under_perfect_csi(self):
        primes, ch, csi, _ = make_setup(2, FadingModel.rayleigh(1), 1)
        record = run_round(1, primes, ch, csi, CTX)
        assert record.recovered == primes[0].value

    def test_csi_error_causes_recovery_failures(self):
        # with 10% estimation error and a tight tolerance, a measurable
        # fraction of rounds must fail to land on an integer
        failures = 0
        trials = 30
        for seed in range(trials):
            rng = random.Random(seed)
            primes, _ = sample_distinct_primes(3, 6, rng)
            ch = draw_channel(3, FadingModel.rayleigh(1), 1, 0, rng)
            csi = estimate_csi(ch, "relative", 0.1, rng)
            # 24 digits: tolerance 1e-6
            record = run_round(0, primes, ch, csi, PrecisionContext(24))
            if record.failure is not None:
                assert record.failure == "not-near-integer"
                assert record.recovered is None
                failures += 1
        assert failures > trials // 2

    def test_receivers_own_prime_is_irrelevant(self):
        # swap the listener's prime for a sentinel: round unchanged
        primes, ch, csi, _ = make_setup(4, FadingModel.rayleigh(1), 2)
        before = run_round(0, primes, ch, csi, CTX)
        sentinel = primes[:]
        sentinel[0] = PrimeInput(999983, 6)
        after = run_round(0, sentinel, ch, csi, CTX)
        assert before.recovered == after.recovered


class TestDeriveSecret:
    def test_folds_own_prime(self):
        primes = [PrimeInput(p, 1) for p in (2, 3, 5)]
        ch = draw_channel(3, FadingModel.ideal(), 1, 0, random.Random(0))
        t = run_protocol_hmac(primes, ch, estimate_csi(ch), CTX)
        assert t.rounds[0].recovered == 15
        assert t.per_user_secret[0] == 30

    def test_same_secret_from_every_view(self):
        primes, ch, csi, _ = make_setup(4, FadingModel.rayleigh(1), 3)
        want = math.prod(p.value for p in primes)
        t = run_protocol_hmac(primes, ch, csi, CTX)
        assert t.per_user_secret == [want] * 4


class TestProtocol:
    def test_two_users_ideal(self):
        primes = [PrimeInput(2, 1), PrimeInput(3, 1)]
        ch = draw_channel(2, FadingModel.ideal(), 1, 0, random.Random(0))
        t = run_protocol_hmac(primes, ch, estimate_csi(ch), CTX)
        assert t.per_user_secret == [6, 6]
        assert t.rounds_used == 2
        assert t.agreed_secret() == 6

    def test_eight_users_rayleigh(self):
        ctx = PrecisionContext(128)
        primes, ch, csi, _ = make_setup(8, FadingModel.rayleigh(1), 4)
        t = run_protocol_hmac(primes, ch, csi, ctx)
        want = math.prod(p.value for p in primes)
        assert t.per_user_secret == [want] * 8
        assert t.rounds_used == 8

    def test_user_order_does_not_change_secret(self):
        primes, ch, csi, _ = make_setup(4, FadingModel.rayleigh(1), 5)
        t = run_protocol_hmac(primes, ch, csi, CTX)
        perm = [2, 0, 3, 1]
        pp = [primes[k] for k in perm]
        from dataclasses import replace

        ch2 = replace(
            ch,
            h=tuple(tuple(ch.h[perm[i]][perm[j]] for j in range(4)) for i in range(4)),
            h_eve=tuple(ch.h_eve[k] for k in perm),
        )
        t2 = run_protocol_hmac(pp, ch2, estimate_csi(ch2), CTX)
        assert t.agreed_secret() == t2.agreed_secret()

    def test_one_log_per_prime_per_run(self, monkeypatch):
        # every round carries the worst receiver's digits, so the log memo
        # takes each prime's log exactly once
        import airkey.halfduplex as halfduplex

        calls = []

        def counting_ln(x, ctx):
            calls.append(x)
            return ln(x, ctx)

        monkeypatch.setattr(halfduplex, "ln", counting_ln)
        ctx = PrecisionContext(128)
        # seed 4: the rounds' own products straddle a digit boundary, so
        # sizing each round for itself would take two logs of most primes
        primes, ch, csi, _ = make_setup(16, FadingModel.rayleigh(1), 4)
        t = run_protocol_hmac(primes, ch, csi, ctx)
        assert t.agreed_secret() == math.prod(p.value for p in primes)
        assert sorted(calls) == sorted(p.value for p in primes)

    def test_strict_context_agrees_when_product_fits(self):
        # the worst product has about 18 digits: a strict 64-digit context
        # resolves it without widening
        strict = PrecisionContext(64, elastic=False)
        primes, ch, csi, _ = make_setup(4, FadingModel.rayleigh(1), 6)
        t = run_protocol_hmac(primes, ch, csi, strict)
        assert t.agreed_secret() == math.prod(p.value for p in primes)
        assert all(len(r.post_value.as_tuple().digits) <= 64 for r in t.rounds)

    def test_noise_degrades_without_crashing(self):
        failures = 0
        for seed in range(10):
            rng = random.Random(seed)
            primes, _ = sample_distinct_primes(4, 6, rng)
            ch = draw_channel(4, FadingModel.rayleigh(1), 1, Decimal("0.001"), rng)
            t = run_protocol_hmac(primes, ch, estimate_csi(ch), CTX, rng=rng)
            assert len(t.per_user_secret) == 4
            failures += sum(s is None for s in t.per_user_secret)
        assert failures > 0

    def test_prime_count_must_match_users(self):
        ch = draw_channel(3, FadingModel.ideal(), 1, 0, random.Random(0))
        with pytest.raises(ValueError):
            run_protocol_hmac([PrimeInput(2, 1)], ch, estimate_csi(ch), CTX)

    def test_transcript_json(self):
        import json

        primes, ch, csi, _ = make_setup(3, FadingModel.rayleigh(1), 6)
        t = run_protocol_hmac(primes, ch, csi, CTX)
        doc = json.loads(t.to_json())
        assert doc["protocol"] == "hmac"
        assert len(doc["rounds"]) == 3
        assert doc["rounds"][0]["recovered"] is not None
        assert "distance_to_integer" in doc["rounds"][0]
