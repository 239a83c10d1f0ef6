import math
import random
from decimal import Context, Decimal, localcontext

import pytest

from airkey import (
    ChannelState,
    FadingModel,
    NonPositiveGain,
    PrecisionContext,
    draw_channel,
    estimate_csi,
    ln,
    rayleigh_taps,
    superpose,
)

CTX = PrecisionContext(50)


def ideal_channel(n, noise="0"):
    return draw_channel(n, FadingModel.ideal(), 1, Decimal(noise), random.Random(0))


class TestFadingModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FadingModel("weibull")

    def test_rayleigh_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            FadingModel.rayleigh(0)

    def test_integer_c_max_must_be_positive(self):
        with pytest.raises(ValueError):
            FadingModel.integer(0)


class TestDrawChannel:
    def test_ideal_all_ones(self):
        ch = ideal_channel(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert ch.h[i][j] == 1
        assert all(t == 1 for t in ch.h_eve)

    def test_forced_c_equals_one(self):
        ch = draw_channel(
            2, FadingModel.integer(1), Decimal("0.5"), 0, random.Random(1)
        )
        assert ch.h[0][1] == ch.h[1][0] == Decimal("0.5")
        assert ch.c[0][1] == 1

    def test_reciprocity(self):
        ch = draw_channel(6, FadingModel.rayleigh(1), 1, 0, random.Random(2))
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert ch.h[i][j] == ch.h[j][i]
                    assert ch.h[i][j] > 0

    def test_integer_mode_quotients_are_exact(self):
        ch = draw_channel(
            5, FadingModel.integer(6), Decimal("0.3"), 0, random.Random(3)
        )
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert 1 <= ch.c[i][j] <= 6
                    # exact decimal arithmetic, no rounding anywhere
                    assert ch.h[i][j] == ch.c[i][j] * Decimal("0.3")

    def test_integer_gains_exact_for_long_h_star(self):
        # more digits than the default context's 75-digit working precision
        h_star = Decimal("0." + "7" * 90)
        ch = draw_channel(4, FadingModel.integer(5), h_star, 0, random.Random(9))
        with localcontext(Context(prec=200)):
            for i in range(4):
                for j in range(4):
                    if i != j:
                        assert ch.h[i][j] == ch.c[i][j] * h_star
            assert all(t / h_star in {1, 2, 3, 4, 5} for t in ch.h_eve)

    def test_integer_gains_exact_for_huge_h_star(self):
        # an exponent beyond the default context's Emax
        h_star = Decimal("1e1000000")
        ch = draw_channel(3, FadingModel.integer(4), h_star, 0, random.Random(5))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert ch.h[i][j] == Decimal(f"{ch.c[i][j]}e1000000")

    def test_rayleigh_gains_are_float_decimals(self):
        ch = draw_channel(5, FadingModel.rayleigh(2), 1, 0, random.Random(11))
        gains = [ch.h[i][j] for i in range(5) for j in range(5) if i != j]
        for g in gains + list(ch.h_eve):
            assert len(g.as_tuple().digits) <= 17
            assert Decimal(repr(float(g))) == g

    def test_deterministic_given_seed(self):
        a = draw_channel(4, FadingModel.rayleigh(1), 1, 0, random.Random(7))
        b = draw_channel(4, FadingModel.rayleigh(1), 1, 0, random.Random(7))
        assert a == b

    def test_rejects_single_user(self):
        with pytest.raises(ValueError):
            draw_channel(1, FadingModel.ideal(), 1, 0, random.Random(0))

    def test_rejects_non_positive_h_star(self):
        with pytest.raises(NonPositiveGain):
            draw_channel(2, FadingModel.ideal(), 0, 0, random.Random(0))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise variance"):
            draw_channel(2, FadingModel.ideal(), 1, -1, random.Random(0))

    def test_rayleigh_mean_matches_theory(self):
        # Monte-Carlo oracle: Rayleigh(scale=1) has mean sqrt(pi/2)
        rng = random.Random(7)
        taps = rayleigh_taps(100_000, 1, rng)
        mean = float(sum(taps)) / len(taps)
        assert abs(mean - math.sqrt(math.pi / 2)) / math.sqrt(math.pi / 2) < 0.02

    def test_eve_taps_independent_of_gains(self):
        rng = random.Random(8)
        xs, ys = [], []
        for _ in range(20_000):
            ch = draw_channel(2, FadingModel.rayleigh(1), 1, 0, rng)
            xs.append(float(ch.h[0][1]))
            ys.append(float(ch.h_eve[0]))
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
        sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
        sy = math.sqrt(sum((y - my) ** 2 for y in ys) / n)
        assert abs(cov / (sx * sy)) < 0.02


def reference_gain(model, h_star, rng):
    # one gain with the calls of a per-gain draw: randint for c, and for a
    # Rayleigh gain float(scale) times sqrt(-2 ln u), stored as its repr
    if model.kind == "ideal":
        return Decimal(1), None
    if model.kind == "rayleigh":
        u = 1.0 - rng.random()
        while not 0.0 < u < 1.0:
            u = 1.0 - rng.random()
        return Decimal(repr(float(model.scale) * math.sqrt(-2.0 * math.log(u)))), None
    c = rng.randint(1, model.c_max)
    with localcontext(Context(prec=10_000)):
        return h_star * c, c


def reference_channel(n, model, h_star, rng):
    h = [[Decimal(0)] * n for _ in range(n)]
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            h[i][j], c[i][j] = reference_gain(model, h_star, rng)
            h[j][i], c[j][i] = h[i][j], c[i][j]
    h_eve = [reference_gain(model, h_star, rng)[0] for _ in range(n)]
    return h, h_eve, c if model.kind == "integer" else None


def digits_of(values):
    return [v.as_tuple() for v in values]


class TestDrawStream:
    """Draws equal, digit for digit, the per-gain calls of a reference."""

    MODELS = [
        FadingModel.ideal(),
        FadingModel.rayleigh(1),
        FadingModel.rayleigh(Decimal("0.37")),
        FadingModel.rayleigh(10**7),
        FadingModel.integer(1),
        FadingModel.integer(3),
        FadingModel.integer(8),
        FadingModel.integer(1000),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.kind}-{m.scale}-{m.c_max}")
    @pytest.mark.parametrize("h_star", ["1", "0.3", "1e-400"])
    def test_draw_channel_matches_per_gain_draws(self, model, h_star):
        h_star = Decimal(h_star)
        for seed in range(20):
            n = 2 + seed % 7
            rng, ref = random.Random(seed), random.Random(seed)
            ch = draw_channel(n, model, h_star, 0, rng)
            h, h_eve, c = reference_channel(n, model, h_star, ref)
            for got, want in zip(ch.h, h):
                assert digits_of(got) == digits_of(want)
            assert digits_of(ch.h_eve) == digits_of(h_eve)
            assert ch.c == (None if c is None else tuple(map(tuple, c)))
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("scale", [1, 2.5, "0.37", 10**7])
    def test_rayleigh_taps_match_per_gain_draws(self, scale):
        model = FadingModel.rayleigh(scale)
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            taps = rayleigh_taps(1 + seed, scale, rng)
            want = [reference_gain(model, 1, ref)[0] for _ in range(1 + seed)]
            assert digits_of(taps) == digits_of(want)
            assert rng.getstate() == ref.getstate()


def column(ch, j):
    return [row[j] for row in ch.h]


class TestSuperpose:
    def test_only_transmitting_user_heard(self):
        ch = ideal_channel(2)
        a = Decimal("1.25")
        assert superpose([a, None], column(ch, 1), ch.noise_variance) == a

    def test_gain_scales_signal(self):
        ch = draw_channel(
            2, FadingModel.integer(2), Decimal(1), 0, random.Random(12)
        )
        s = ln(3, CTX)
        y = superpose([s, None], column(ch, 1), ch.noise_variance)
        with localcontext(CTX.ambient):
            assert y == ch.h[0][1] * s

    def test_sum_is_exact(self):
        # 17-digit gains times 200-digit signals: nothing is rounded
        ch = draw_channel(3, FadingModel.rayleigh(1), 1, 0, random.Random(13))
        wide = PrecisionContext(200)
        sig = [None, ln(3, wide), ln(5, wide)]
        y = superpose(sig, column(ch, 0), 0)
        with localcontext(Context(prec=500)):
            assert y == ch.h[1][0] * sig[1] + ch.h[2][0] * sig[2]

    def test_all_zero_signals(self):
        ch = ideal_channel(3)
        assert superpose([Decimal(0)] * 3, column(ch, 0), 0) == 0

    def test_own_term_never_heard(self):
        # the diagonal gain is held at 0, so the receiver's own signal
        # vanishes whether or not it is passed
        ch = ideal_channel(3)
        assert superpose([None, Decimal(2), Decimal(4)], column(ch, 0), 0) == 6
        assert superpose([Decimal(1), Decimal(2), Decimal(4)], column(ch, 0), 0) == 6

    def test_noise_changes_observation(self):
        ch = ideal_channel(2, noise="0.01")
        sig = [Decimal(1), None]
        y = superpose(sig, column(ch, 1), ch.noise_variance, random.Random(5))
        assert y != 1

    def test_noisy_channel_requires_rng(self):
        ch = ideal_channel(2, noise="0.01")
        with pytest.raises(ValueError):
            superpose([Decimal(1), None], column(ch, 1), ch.noise_variance)

    def test_needs_one_signal_per_tap(self):
        ch = ideal_channel(3)
        with pytest.raises(ValueError, match="one signal slot per tap"):
            superpose([Decimal(1), None], column(ch, 2), 0)


class TestEveObserve:
    # the eavesdropper's view is superpose over her own taps, without noise
    def test_unit_tap_passthrough(self):
        ch = ideal_channel(2)
        assert superpose([Decimal("0.75"), None], ch.h_eve, 0) == Decimal("0.75")

    def test_matched_taps_give_ratio_one(self):
        # Eve taps equal to link gains: she sees exactly ln(p)
        ch = draw_channel(2, FadingModel.rayleigh(1), 1, 0, random.Random(6))
        ch = ch.with_eve_taps([ch.h[0][1], ch.h[1][0]])
        with localcontext(CTX.ambient):
            sig = [ln(5, CTX) / ch.h[0][1], None]
        y = superpose(sig, ch.h_eve, 0)
        assert abs(y - ln(5, CTX)) < Decimal("1e-45")

    def test_two_transmitters_weighted_sum(self):
        ch = ideal_channel(2).with_eve_taps([Decimal("0.999"), Decimal("1.001")])
        l2, l3 = ln(2, CTX), ln(3, CTX)
        y = superpose([l2, l3], ch.h_eve, 0)
        with localcontext(CTX.ambient):
            want = Decimal("0.999") * l2 + Decimal("1.001") * l3
        assert abs(y - want) < Decimal("1e-45")


class TestCsi:
    def test_perfect(self):
        ch = draw_channel(3, FadingModel.rayleigh(1), 1, 0, random.Random(4))
        assert estimate_csi(ch) == ch.h

    def test_relative_zero_is_perfect(self):
        ch = ideal_channel(3)
        assert estimate_csi(ch, 0.0, random.Random(0)) == ch.h

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="negative"):
            estimate_csi(ideal_channel(3), -0.01, random.Random(0))

    def test_relative_error_needs_rng(self):
        with pytest.raises(ValueError, match="needs an rng"):
            estimate_csi(ideal_channel(3), 0.01)

    def test_relative_error_bounded(self):
        rng = random.Random(10)
        worst = 0.0
        for _ in range(200):
            ch = draw_channel(5, FadingModel.rayleigh(1), 1, 0, rng)
            h_hat = estimate_csi(ch, 0.01, rng)
            for i in range(5):
                for j in range(5):
                    if i != j:
                        dev = abs(h_hat[i][j] - ch.h[i][j]) / ch.h[i][j]
                        worst = max(worst, float(dev))
        assert 0 < worst <= 0.01

    def test_relative_error_below_float_resolution_is_exact(self):
        # 1 + 1e-40 is 1 in float: the estimate must stay a decimal product
        ch = draw_channel(3, FadingModel.rayleigh(1), 1, 0, random.Random(4))
        h_hat = estimate_csi(ch, 1e-40, random.Random(5))
        replay = random.Random(5)
        with localcontext(Context(prec=200)):
            for i in range(3):
                for j in range(3):
                    if i != j:
                        e = Decimal(repr(replay.uniform(-1e-40, 1e-40)))
                        assert h_hat[i][j] != ch.h[i][j]
                        assert h_hat[i][j] == ch.h[i][j] * (1 + e)


def test_with_eve_taps_needs_one_per_user():
    with pytest.raises(ValueError):
        ideal_channel(3).with_eve_taps([Decimal(1)])
