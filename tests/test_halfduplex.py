import decimal
import math
import random
from decimal import Decimal, localcontext

import pytest

from airkey import halfduplex
from airkey import (
    FadingModel,
    NonPositiveGain,
    PrecisionContext,
    PrimeInput,
    draw_channel,
    estimate_csi,
    exp,
    ln,
    pre_process,
    run_protocol_fmac,
    run_protocol_hmac,
    sample_distinct_primes,
)
from airkey.arith import integer_logs

CTX = PrecisionContext(64)


def make_setup(n, model, seed, digits=6, noise="0"):
    rng = random.Random(seed)
    primes, _ = sample_distinct_primes(n, digits, rng)
    ch = draw_channel(n, model, 1, Decimal(noise), rng)
    csi = estimate_csi(ch)
    return primes, ch, csi, rng


class TestPreProcess:
    def test_unit_gain(self):
        assert pre_process(ln(2, CTX), [Decimal(1)], CTX) == [ln(2, CTX)]

    def test_half_gain_doubles(self):
        [got] = pre_process(ln(3, CTX), [Decimal("0.5")], CTX)
        with localcontext(CTX.ambient):
            assert abs(got - 2 * ln(3, CTX)) < Decimal("1e-60")

    def test_gain_cancellation(self):
        # transmitting through the very gain used for inversion restores ln p
        h = Decimal("1.73205")
        [sig] = pre_process(ln(7, CTX), [h], CTX)
        with localcontext(CTX.ambient):
            assert abs(h * sig - ln(7, CTX)) < Decimal("1e-60")

    def test_rejects_non_positive_gain(self):
        # every gain of the transmitter is checked, not only the first
        for gains in ([Decimal(0)], [Decimal(1), Decimal(2), Decimal("-0.5")]):
            with pytest.raises(NonPositiveGain):
                pre_process(ln(2, CTX), gains, CTX)

    @pytest.mark.parametrize("digits", [16, 64, 128, 300])
    def test_matches_division_in_the_local_context(self, digits):
        ctx = PrecisionContext(digits)
        rng = random.Random(digits)
        primes, _ = sample_distinct_primes(6, 6, rng)
        ch = draw_channel(6, FadingModel.rayleigh(1), 1, 0, rng)
        # a tiny CSI error leaves gains of 60 and more digits
        perturbed = [g for row in estimate_csi(ch, 1e-40, rng) for g in row if g]
        assert min(len(g.as_tuple().digits) for g in perturbed) >= 60
        perturbed += [g for row in estimate_csi(ch, 0.25, rng) for g in row if g]
        wide = [Decimal(rng.getrandbits(700)).scaleb(-rng.randrange(150, 250))
                for _ in range(10)]
        gains = perturbed + wide + [Decimal("1e-300"), Decimal(7)]
        for p in primes:
            log_p = ln(p.value, ctx)
            with localcontext(ctx.ambient):
                expected = [(log_p / gain).as_tuple() for gain in gains]
            assert [s.as_tuple() for s in pre_process(log_p, gains, ctx)] == expected

    def test_protocol_run_leaves_the_thread_context_alone(self):
        ambient = decimal.getcontext()
        ambient.clear_flags()
        prec, flags = ambient.prec, dict(ambient.flags)
        primes, ch, csi, rng = make_setup(5, FadingModel.rayleigh(1), 3)
        run_protocol_hmac(primes, ch, csi, PrecisionContext(96), rng)
        primes, _ = sample_distinct_primes(4, 5, rng)
        ch = draw_channel(4, FadingModel.integer(4), 1, 0, rng)
        run_protocol_fmac(primes, ch, PrecisionContext(128))
        assert decimal.getcontext() is ambient
        assert (ambient.prec, dict(ambient.flags)) == (prec, flags)


class TestRunRound:
    def test_ideal_three_users(self):
        primes = [PrimeInput(p) for p in (2, 3, 5)]
        ch = draw_channel(3, FadingModel.ideal(), 1, 0, random.Random(0))
        record = run_protocol_hmac(primes, ch, estimate_csi(ch), CTX).rounds[0]
        assert record.recovered == 15
        assert record.receiver == 0
        assert record.signals[0] is None and None not in record.signals[1:]

    def test_fading_cancels_under_perfect_csi(self):
        primes, ch, csi, _ = make_setup(2, FadingModel.rayleigh(1), 1)
        record = run_protocol_hmac(primes, ch, csi, CTX).rounds[1]
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
            csi = estimate_csi(ch, 0.1, rng)
            # 24 digits: tolerance 1e-6
            record = run_protocol_hmac(primes, ch, csi, PrecisionContext(24)).rounds[0]
            if record.failure is not None:
                assert record.failure == "not-near-integer"
                assert record.recovered is None
                failures += 1
        assert failures > trials // 2

    def test_receivers_own_prime_is_irrelevant(self):
        # swap the listener's prime for a sentinel: round unchanged
        primes, ch, csi, _ = make_setup(4, FadingModel.rayleigh(1), 2)
        before = run_protocol_hmac(primes, ch, csi, CTX).rounds[0]
        sentinel = primes[:]
        sentinel[0] = PrimeInput(999983)
        after = run_protocol_hmac(sentinel, ch, csi, CTX).rounds[0]
        assert before.recovered == after.recovered


class TestReceive:
    def test_value_wider_than_context_resolves_is_never_exponentiated(
        self, monkeypatch
    ):
        # CTX resolves 64 - T - GUARD = 32 integer digits to its tolerance
        # 1e-16 (T = 16); a 33-digit result would read as an exact integer
        calls = []
        monkeypatch.setattr(
            halfduplex, "exp", lambda x, ctx, near: calls.append(x) or exp(x, ctx, near)
        )

        def heard(value):
            signals = [None, ln(value, CTX)]
            return halfduplex.receive(0, signals, [0, 1], CTX, CTX.tolerance)

        fits = heard(3 * 10**31)
        assert fits.recovered == 3 * 10**31 and len(calls) == 1
        wide = heard(3 * 10**32)
        assert len(calls) == 1
        assert wide.failure == "not-near-integer" and wide.recovered is None
        assert wide.post_value == wide.distance == Decimal("Infinity")


class TestDeriveSecret:
    def test_folds_own_prime(self):
        primes = [PrimeInput(p) for p in (2, 3, 5)]
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
        primes = [PrimeInput(2), PrimeInput(3)]
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
        # every round carries the worst receiver's digits, so each prime's
        # log is taken exactly once
        import airkey.halfduplex as halfduplex

        calls = []

        def counting_logs(integers, ctx):
            calls.extend(integers)
            return integer_logs(integers, ctx)

        monkeypatch.setattr(halfduplex, "integer_logs", counting_logs)
        ctx = PrecisionContext(128)
        # seed 4: the rounds' own products straddle a digit boundary, so
        # sizing each round for itself would take two logs of most primes
        primes, ch, csi, _ = make_setup(16, FadingModel.rayleigh(1), 4)
        t = run_protocol_hmac(primes, ch, csi, ctx)
        assert t.agreed_secret() == math.prod(p.value for p in primes)
        assert sorted(calls) == sorted(p.value for p in primes)

    def test_one_log_per_prime_per_fmac_exchange(self, monkeypatch):
        import airkey.fullduplex as fullduplex

        calls = []

        def counting_logs(integers, ctx):
            calls.extend(integers)
            return integer_logs(integers, ctx)

        monkeypatch.setattr(fullduplex, "integer_logs", counting_logs)
        rng = random.Random(13)
        primes, _ = sample_distinct_primes(12, 5, rng)
        ch = draw_channel(12, FadingModel.integer(8), 1, 0, rng)
        t = run_protocol_fmac(primes, ch, PrecisionContext(256))
        assert t.agreed_secret() == math.prod(p.value for p in primes)
        assert sorted(calls) == sorted(p.value for p in primes)

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
            run_protocol_hmac([PrimeInput(2)], ch, estimate_csi(ch), CTX)

    def test_transcript_json(self):
        import json

        primes, ch, csi, _ = make_setup(3, FadingModel.rayleigh(1), 6)
        t = run_protocol_hmac(primes, ch, csi, CTX)
        doc = json.loads(t.to_json())
        assert doc["protocol"] == "hmac"
        assert len(doc["rounds"]) == 3
        assert doc["rounds"][0]["recovered"] is not None
        assert "distance_to_integer" in doc["rounds"][0]
