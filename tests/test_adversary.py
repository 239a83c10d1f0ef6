import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext

import pytest

from airkey import arith, halfduplex, harness
from airkey import (
    ExperimentConfig,
    FadingModel,
    PrecisionContext,
    PrimeInput,
    draw_channel,
    estimate_csi,
    eve_attack,
    exp,
    leading_digit_overlap,
    ln,
    rayleigh_taps,
    run_protocol_fmac,
    run_protocol_hmac,
    sample_distinct_primes,
)
from airkey.arith import integer_logs
from airkey.halfduplex import sized_exchange
from airkey.harness import child_seed, run_trial
from eve_model import error_factor_from_deltas

CTX = PrecisionContext(128)


def gap(report):
    with localcontext(CTX.ambient):
        return abs(report.psi_legit - report.eve.post_value)


def forbid_wide(monkeypatch):
    """Fail any log or ``exp`` taken at more digits than ``CTX`` carries.

    Patches the attack's reading of the exchange's logs and the listener
    step's ``exp``.
    """
    for module, name in ((arith.IntegerLogs, "rounded"), (halfduplex, "exp")):
        real = getattr(module, name)

        def checked(x, ctx, *near, real=real, name=name):
            assert ctx.digits <= CTX.digits, f"{name} taken at {ctx.digits} digits"
            return real(x, ctx, *near)

        monkeypatch.setattr(module, name, checked)


def assert_no_recovery(report):
    assert report.eve.failure == "not-near-integer"
    assert report.eve.post_value.is_infinite()
    assert report.eve.recovered is None
    assert not report.key_equal


def hmac_setup(n, seed, taps=None, digits=6):
    rng = random.Random(seed)
    primes, _ = sample_distinct_primes(n, digits, rng)
    ch = draw_channel(n, FadingModel.rayleigh(1), 1, 0, rng)
    if taps is not None:
        ch = ch.with_eve_taps(taps(ch, rng))
    csi = estimate_csi(ch)
    return primes, ch, csi


def fmac_setup(n, c_max, seed, taps=None, h_star=1):
    rng = random.Random(seed)
    primes, _ = sample_distinct_primes(n, 4, rng)
    ch = draw_channel(n, FadingModel.integer(c_max), h_star, 0, rng)
    if taps is not None:
        ch = ch.with_eve_taps(taps(ch, rng))
    return primes, ch


class TestErrorFactor:
    def test_all_ratios_one(self):
        primes = [PrimeInput(p) for p in (2, 3, 5)]
        assert error_factor_from_deltas(primes, [Decimal(0)] * 3, CTX) == 0

    def test_hand_computed(self):
        # 1 - 2^(2-1) = -1
        assert error_factor_from_deltas([PrimeInput(2)], [Decimal(1)], CTX) == -1

    def test_matches_direct_product(self):
        rng = random.Random(3)
        primes, _ = sample_distinct_primes(4, 6, rng)
        deltas = [Decimal(rng.randrange(-100, 100)) / 10**6 for _ in range(4)]
        got = error_factor_from_deltas(primes, deltas, CTX)
        with localcontext(CTX.ambient):
            want = Decimal(1)
            for p, d in zip(primes, deltas):
                want *= exp(d * ln(p.value, CTX), CTX)
        assert abs(got - (1 - want)) < Decimal("1e-100")

    def test_discrepancy_grows_with_user_count(self):
        # fixed per-link ratio > 1: adding users only amplifies |E_r|
        rng = random.Random(4)
        primes, _ = sample_distinct_primes(10, 6, rng)
        r = Decimal("1.0001")
        last = Decimal(0)
        for n in range(2, 11):
            e = abs(error_factor_from_deltas(primes[:n], [r - 1] * n, CTX))
            assert e >= last
            last = e


class TestEveAttackHalf:
    def test_matched_taps_degenerate(self):
        primes, ch, csi = hmac_setup(
            3, 5, taps=lambda ch, rng: [ch.h[i][0] for i in range(3)]
        )
        transcript = run_protocol_hmac(primes, ch, csi, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        assert all(abs(r - 1) < Decimal("1e-100") for r in report.ratios)
        with localcontext(CTX.ambient):
            assert abs(1 - report.eve.post_value / report.psi_legit) < Decimal("1e-90")
            assert gap(report) / report.psi_legit < Decimal("1e-90")
        assert not report.key_equal

    def test_single_transmitter_power_law(self):
        # one 6-digit prime through ratio 1.001001 lands near p^1.001001;
        # in round 0 only user 1 transmits
        primes = [PrimeInput(100019), PrimeInput(100003)]
        ch = draw_channel(2, FadingModel.ideal(), 1, 0, random.Random(0))
        ch = ch.with_eve_taps([Decimal("1.001001"), Decimal("1.001001")])
        transcript = run_protocol_hmac(primes, ch, estimate_csi(ch), CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        with localcontext(CTX.ambient):
            want = exp(Decimal("1.001001") * ln(100003, CTX), CTX)
        assert abs(report.eve.post_value - want) / want < Decimal("1e-100")
        assert report.digit_overlap <= 3

    def test_biased_taps_always_leave_discrepancy(self):
        for seed in range(50):
            primes, ch, csi = hmac_setup(
                5,
                seed,
                taps=lambda ch, rng: [
                    ch.h[i][0] * (1 + Decimal(rng.choice([-1, 1])) / 10**4)
                    for i in range(5)
                ],
            )
            transcript = run_protocol_hmac(primes, ch, csi, CTX)
            report = eve_attack(transcript, primes, ch, CTX)
            assert gap(report) > 0
            assert not report.key_equal

    def test_factored_identity(self):
        # psi_j - psi_E = psi_j * (1 - prod p_i^(r_i - 1)) over the
        # transmitters, the listener's own prime excluded
        primes, ch, csi = hmac_setup(4, 6, taps=lambda ch, rng: rayleigh_taps(4, 1, rng))
        transcript = run_protocol_hmac(primes, ch, csi, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        e_r = error_factor_from_deltas(primes[1:], [r - 1 for r in report.ratios], CTX)
        with localcontext(CTX.ambient):
            rhs = report.psi_legit * abs(e_r)
            assert abs(gap(report) - rhs) / rhs < Decimal("1e-20")

    def test_powers_past_exponent_bound_share_no_digit(self):
        # ratios near 10**7 raise 6-digit primes past MAX_EXPONENT: scored as
        # sharing no digit, as her own reception is recorded, not raised
        primes, ch, csi = hmac_setup(
            3, 1, taps=lambda ch, rng: rayleigh_taps(3, 10**7, rng)
        )
        transcript = run_protocol_hmac(primes, ch, csi, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        assert report.eve.post_value.is_infinite()
        assert report.digit_overlap == 0

    def test_reception_sized_for_her_ratios(self):
        # the oracle's hmac-eve-ideal point: her value is sized like any
        # exchange, on the ratios her round-0 primes reach her with
        c = ExperimentConfig(protocol="hmac", n_users=4, prime_digits=6,
                             precision_digits=64, fading="ideal", eve=True,
                             trials=3, seed=19).validate()
        for trial in range(c.trials):
            report = run_trial(c, trial)[2]
            rng = random.Random(child_seed(c.seed, trial))
            primes, _ = sample_distinct_primes(4, 6, rng)
            work = sized_exchange(primes[1:], [report.ratios], PrecisionContext(64))
            assert work.digits > 64
            assert len(report.eve.post_value.as_tuple().digits) == work.digits

    def test_value_above_the_secret_is_not_exponentiated(self, monkeypatch):
        # ratios in the thousands give her round tens of thousands of
        # digits; being far above the secret, it is recorded as infinite
        # with no exp wider than the context
        forbid_wide(monkeypatch)
        c = ExperimentConfig(n_users=3, precision_digits=CTX.digits, eve=True,
                             eve_taps="rayleigh", eve_rayleigh_scale=1e4,
                             trials=1, seed=1).validate()
        report = run_trial(c, 0)[2]
        assert_no_recovery(report)
        assert report.digit_overlap == 0

    def test_two_round_interception_on_transparent_channel(self):
        # ideal gains and matched taps: Eve recombines two rounds exactly
        rng = random.Random(7)
        primes, _ = sample_distinct_primes(3, 6, rng)
        ch = draw_channel(3, FadingModel.ideal(), 1, 0, rng)
        csi = estimate_csi(ch)
        transcript = run_protocol_hmac(primes, ch, csi, CTX)
        report = eve_attack(transcript, primes, ch, CTX, two_round=True)
        assert report.key_equal

    def test_two_round_interception_fails_off_integer(self):
        primes, ch, csi = hmac_setup(
            3, 8, taps=lambda ch, rng: rayleigh_taps(3, 1, rng)
        )
        transcript = run_protocol_hmac(primes, ch, csi, CTX)
        report = eve_attack(transcript, primes, ch, CTX, two_round=True)
        assert not report.key_equal


class TestEveAttackFull:
    def test_lucky_integer_taps_succeed(self):
        # measure-zero boundary: Eve's taps are exact multiples of h_star
        primes, ch = fmac_setup(
            3, 3, 9, taps=lambda ch, rng: [2 * ch.h_star for _ in range(3)]
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        assert report.key_equal
        assert all(r == 2 for r in report.ratios)

    def test_integer_taps_above_the_secret_succeed(self):
        # taps 8 h_star: her product, the secret to the eighth, lies far above
        # the secret, psi_legit and what CTX resolves, yet being exact it is
        # the key
        primes, ch = fmac_setup(
            3, 3, 9, taps=lambda ch, rng: [8 * ch.h_star for _ in range(3)]
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        secret = math.prod(p.value for p in primes)
        assert report.eve.post_value > 10 * max(secret, report.psi_legit)
        assert report.key_equal
        assert dict(report.eve.exponent_map.factors) == {p.value: 8 for p in primes}

    def test_value_above_the_secret_is_not_exponentiated(self, monkeypatch):
        # Rayleigh taps near 10**4 h_star give her a product of about 10**5
        # digits; not being an exact product of the primes, it is recorded as
        # infinite with no log or exp wider than the context
        primes, ch = fmac_setup(
            3, 3, 1, taps=lambda ch, rng: rayleigh_taps(3, 10**4, rng)
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        forbid_wide(monkeypatch)
        report = eve_attack(transcript, primes, ch, CTX)
        assert_no_recovery(report)
        assert report.digit_overlap == 0

    def test_value_near_psi_legit_keeps_its_digits(self):
        # taps a hair off the legitimate gains: her value lies near psi_legit,
        # which has more digits than the secret and than a 32-digit context
        # resolves, so her reception is sized and shares its leading digits
        ctx = PrecisionContext(32)
        primes, ch = fmac_setup(4, 4, 15)
        ch = ch.with_eve_taps([Decimal("1e-40")] + [
            ch.h[i][0] * (1 + Decimal("1e-30")) for i in range(1, 4)
        ])
        transcript = run_protocol_fmac(primes, ch, ctx)
        report = eve_attack(transcript, primes, ch, ctx)
        assert report.psi_legit > 10 * math.prod(p.value for p in primes)
        assert report.digit_overlap > 20
        assert not report.key_equal

    def test_rayleigh_taps_fail(self):
        for seed in range(20):
            primes, ch = fmac_setup(
                4, 4, seed, taps=lambda ch, rng: rayleigh_taps(4, 1, rng)
            )
            transcript = run_protocol_fmac(primes, ch, CTX)
            report = eve_attack(transcript, primes, ch, CTX)
            assert not report.key_equal
            assert gap(report) > 0

    def test_power_oracle_two_users(self):
        # h_eve/h_star = (2.001, 1.999) on primes (3, 5) with c = 2
        primes = [PrimeInput(3), PrimeInput(5)]
        ch = draw_channel(2, FadingModel.integer(1), 1, 0, random.Random(0))
        h = ((Decimal(0), Decimal(2)), (Decimal(2), Decimal(0)))
        ch = replace(ch, h=h, c=((0, 2), (2, 0)))
        ch = ch.with_eve_taps([Decimal("2.001"), Decimal("1.999")])
        transcript = run_protocol_fmac(primes, ch, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        with localcontext(CTX.ambient):
            want = exp(
                Decimal("2.001") * ln(3, CTX) + Decimal("1.999") * ln(5, CTX), CTX
            )
        assert abs(report.eve.post_value - want) / want < Decimal("1e-100")
        assert leading_digit_overlap(225, report.eve.post_value) <= 3
        assert report.ratios[1] == Decimal("1.999")

    def test_product_beyond_exponent_bound_takes_no_wide_log(self, monkeypatch):
        # taps 10**6 times h_star give Eve a product of millions of digits:
        # recorded as infinite, with no log taken at that width
        primes, ch = fmac_setup(
            3, 3, 12, taps=lambda ch, rng: [10**6 * ch.h_star for _ in range(3)]
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        forbid_wide(monkeypatch)
        assert_no_recovery(eve_attack(transcript, primes, ch, CTX))

    def test_reference_gain_below_float_range(self):
        # h_star = 1e-400 is 0 as a float; Eve's quotients h_eve / h_star
        # are exact decimals, so matched integer taps still give her c
        primes, ch = fmac_setup(3, 3, 13, h_star=Decimal("1e-400"))
        transcript = run_protocol_fmac(primes, ch, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        assert all(r == int(r) for r in report.ratios)
        assert report.key_equal

    def test_rayleigh_taps_over_tiny_reference_gain_overflow(self, monkeypatch):
        # quotients about 1e400 make a product beyond any bound: recorded as
        # infinite, with no log taken beyond the context
        primes, ch = fmac_setup(
            3, 3, 14, taps=lambda ch, rng: rayleigh_taps(3, 1, rng),
            h_star=Decimal("1e-400"),
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        forbid_wide(monkeypatch)
        assert_no_recovery(eve_attack(transcript, primes, ch, CTX))

    def test_factored_identity(self):
        # psi_j - psi_E = psi_j * (1 - prod p_i^(r_i - c_i0)), where the
        # receiver's own delta is the full r_0 (Eve hears it, receiver not)
        primes, ch = fmac_setup(
            3, 3, 10, taps=lambda ch, rng: rayleigh_taps(3, 1, rng)
        )
        transcript = run_protocol_fmac(primes, ch, CTX)
        report = eve_attack(transcript, primes, ch, CTX)
        deltas = [
            report.ratios[i] - (ch.c[i][0] if i != 0 else 0) for i in range(3)
        ]
        e_r = error_factor_from_deltas(primes, deltas, CTX)
        with localcontext(CTX.ambient):
            rhs = report.psi_legit * abs(e_r)
            assert abs(gap(report) - rhs) / rhs < Decimal("1e-20")


# the eavesdropper experiments of the benchmark's eve-small workload
EVE_SMALL = [
    dict(protocol="hmac", n_users=4, prime_digits=6, precision_digits=128,
         fading="rayleigh", eve=True, eve_mode="two_round", eve_taps="rayleigh"),
    dict(protocol="fmac", n_users=6, c_max=4, prime_digits=5,
         precision_digits=128, fading="integer", eve=True, eve_taps="rayleigh"),
]


def kernel_calls(monkeypatch):
    """A list that gains one entry per call of the integer log kernel."""
    calls = []
    kernel = arith._ln_smooth_kernel

    def recorded(n, w):
        calls.append(n)
        return kernel(n, w)

    monkeypatch.setattr(arith, "_ln_smooth_kernel", recorded)
    return calls


class TestEveReadsTheExchangeLogs:
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("config", EVE_SMALL, ids=["hmac", "fmac"])
    def test_no_log_of_her_own(self, monkeypatch, config, scale):
        # her precision is never wider than the exchange's here, so every
        # log she needs is rounded from the transcript's table
        calls = kernel_calls(monkeypatch)
        per_attack = []

        def counted_attack(*args):
            calls.clear()
            report = eve_attack(*args)
            per_attack.append(len(calls))
            return report

        monkeypatch.setattr(harness, "eve_attack", counted_attack)
        cfg = ExperimentConfig(**config, eve_rayleigh_scale=scale, trials=10, seed=3)
        for trial in range(cfg.trials):
            run_trial(cfg, trial)
        assert per_attack == [0] * cfg.trials

    def test_wider_than_the_exchange_reports_as_from_her_own_logs(self, monkeypatch):
        # matched integer taps on all N users: her product can need more
        # digits than any receiver's, and the table's logs are then taken
        # again at her width, as a table of her own would hold them
        calls = kernel_calls(monkeypatch)
        wider = 0
        for seed in range(8):
            rng = random.Random(seed)
            primes, _ = sample_distinct_primes(12, 5, rng)
            ch = draw_channel(12, FadingModel.integer(8), 1, 0, rng)
            ctx = PrecisionContext(256)
            transcript = run_protocol_fmac(primes, ch, ctx)
            ratios = [h / ch.h_star for h in ch.h_eve]
            work = sized_exchange(primes, [ratios], ctx)
            own = replace(
                transcript, logs=integer_logs([p.value for p in primes], work)
            )
            calls.clear()
            report = eve_attack(transcript, primes, ch, ctx)
            wider += bool(calls)
            want = eve_attack(own, primes, ch, ctx)
            assert report.eve.to_dict() == want.eve.to_dict()
            assert report.eve.signals == want.eve.signals
            assert (report.key_equal, report.digit_overlap) == (
                want.key_equal, want.digit_overlap
            )
            assert report.key_equal
        assert wider > 0
