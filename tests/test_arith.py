import math
import random
from dataclasses import replace
from decimal import Context, Decimal, localcontext

import pytest

from airkey import arith
from airkey import (
    NonPositiveInput,
    Overflow,
    PrecisionContext,
    exp,
    leading_digit_overlap,
    ln,
    to_bigreal,
)
from airkey.arith import nearest_integer
from airkey.integers import (
    _GCD_PRIMES,
    sample_distinct_primes,
    sample_prime,
    sieve,
    smooth_neighbour,
)

CTX = PrecisionContext(50)


def ulp(x: Decimal, digits: int) -> Decimal:
    return Decimal(1).scaleb(x.adjusted() - digits + 1)


def rounded(x: Decimal, tol: Decimal):
    """The nearest integer to ``x``, or None when it lies farther than ``tol``."""
    n, distance = nearest_integer(x)
    return n if distance <= tol else None


def libmpdec(digits: int) -> Context:
    """A libmpdec context of ``digits`` digits, the independent reference."""
    return Context(prec=digits, Emax=10**9, Emin=-(10**9))


class TestLn:
    def test_ln_one_is_zero(self):
        assert ln(1, CTX) == 0

    def test_ln_of_e_is_one(self):
        e = exp(1, CTX)
        assert abs(ln(e, CTX) - 1) <= 2 * ulp(Decimal(1), CTX.digits)

    def test_ln_exp_round_trip_prime(self):
        v = ln(100003, CTX)
        assert rounded(exp(v, CTX), CTX.tolerance) == 100003

    @pytest.mark.parametrize("bad", [0, -1, Decimal("-0.5")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(NonPositiveInput):
            ln(bad, CTX)

    def test_two_ulp_contract_against_quad_precision(self):
        # oracle: libmpdec's ln at 4x digits
        oracle = libmpdec(4 * CTX.digits)
        rng = random.Random(1)
        for _ in range(200):
            x = Decimal(rng.randrange(1, 10**12)) / Decimal(10**6)
            got = ln(x, CTX)
            want = x.ln(oracle)
            assert abs(got - want) <= 2 * ulp(want, CTX.digits)

    def test_two_ulp_contract_at_384_digits(self):
        ctx = PrecisionContext(384)
        oracle = libmpdec(4 * ctx.digits)
        rng = random.Random(5)
        for _ in range(10):
            x = Decimal(rng.randrange(2, 10**rng.randrange(1, 40))).scaleb(
                -rng.randrange(0, 30)
            )
            got = ln(x, ctx)
            want = x.ln(oracle)
            assert abs(got - want) <= 2 * ulp(want, ctx.digits)


class TestExp:
    def test_exp_zero_is_one(self):
        assert exp(0, CTX) == 1

    def test_log_sum_identity(self):
        with localcontext(CTX.ambient):
            v = exp(ln(2, CTX) + ln(3, CTX), CTX)
        assert rounded(v, CTX.tolerance) == 6

    def test_scaled_log_is_power(self):
        # 3**2 == 9 by exact arithmetic
        with localcontext(CTX.ambient):
            v = exp(2 * ln(3, CTX), CTX)
        assert rounded(v, CTX.tolerance) == 9

    def test_two_ulp_contract_against_quad_precision(self):
        # oracle: libmpdec's exp at 4x digits
        oracle = libmpdec(4 * CTX.digits)
        rng = random.Random(2)
        for _ in range(200):
            x = Decimal(rng.randrange(-80_000_000, 80_000_000)) / Decimal(10**6)
            got = exp(x, CTX)
            want = x.exp(oracle)
            assert abs(got - want) <= 2 * ulp(want, CTX.digits)

    def test_two_ulp_contract_on_products_of_hundreds_of_digits(self):
        # the full-duplex case: e to a sum of c * ln p, a product of about
        # 440 digits, on the context sized for it
        rng = random.Random(6)
        for _ in range(5):
            primes = [sample_prime(5, rng).value for _ in range(12)]
            powers = [8] * 12
            product = math.prod(p**c for p, c in zip(primes, powers))
            ctx = PrecisionContext(384).sized(len(str(product)))
            with localcontext(ctx.ambient):
                x = sum(c * ln(p, ctx) for p, c in zip(primes, powers))
            got = exp(x, ctx)
            want = x.exp(libmpdec(4 * ctx.digits))
            assert got.adjusted() >= 400
            assert abs(got - want) <= 2 * ulp(want, ctx.digits)
            assert nearest_integer(got)[0] == product

    def test_overflow_on_exponent_bound(self):
        with pytest.raises(Overflow):
            exp(Decimal(3_000_000), PrecisionContext(50))

    def test_rejects_nan(self):
        with pytest.raises(NonPositiveInput, match="finite"):
            exp(Decimal("NaN"), CTX)

    @pytest.mark.parametrize("x", ["-1e10", "-1e400", "1e400"])
    def test_overflow_on_arguments_beyond_float_range(self, x):
        # -1e400 is -inf as a float, which must not leak a bare OverflowError
        with pytest.raises(Overflow):
            exp(Decimal(x), PrecisionContext(32))

    def test_rounds_to_context_digits_only(self):
        # a result wider than the context is rounded in its integer part:
        # sizing is the caller's decision, never exp's
        v = exp(Decimal(200), PrecisionContext(32))
        assert len(v.as_tuple().digits) == 32
        assert v.adjusted() == 86
        assert v == Decimal(200).exp(libmpdec(32))


def _differential_cases(rng: random.Random, digits: int):
    """(function name, argument) pairs over the shapes the kernel reduces."""
    cases = [
        ("ln", Decimal(rng.randrange(2, 10**6))),  # integers
        ("ln", Decimal(rng.randrange(10**12, 10**40))),
        ("ln", Decimal(rng.randrange(1, 10**20)).scaleb(-rng.randrange(1, 40))),
        ("ln", Decimal(rng.randrange(1, 10**9)).scaleb(rng.randrange(-900, 900))),
        ("ln", Decimal(rng.randrange(11, 27)) / 10),  # results below 1
        ("ln", 1 + Decimal(rng.randrange(1, 10**6)).scaleb(-rng.randrange(6, 60))),
        ("ln", 1 - Decimal(rng.randrange(1, 10**6)).scaleb(-rng.randrange(6, 60))),
        ("exp", -Decimal(rng.randrange(1, 10**30)).scaleb(-26)),  # negative
        ("exp", Decimal(rng.randrange(1, 10**30)).scaleb(-rng.randrange(40, 80))),
    ]
    # arguments whose results keep GUARD of the carried digits fractional:
    # decimal exponent + GUARD <= digits
    room = max(digits - arith.GUARD - 1, 0) * 2.3
    for bound in (1, room):
        cases.append(("exp", Decimal(repr(rng.uniform(-10, bound)))))
    return cases


class TestAgreesWithLibmpdec:
    """The kernel is correctly rounded, so it equals libmpdec digit for digit."""

    @pytest.mark.parametrize("digits", [16, 17, 20, 32, 50, 64, 100, 128, 150,
                                        192, 256, 300, 378, 384, 448, 512, 600])
    def test_same_digits_and_exponent(self, digits):
        rng = random.Random(digits)
        ctx = PrecisionContext(digits)
        for _ in range(3):
            for name, x in _differential_cases(rng, digits):
                got = getattr(arith, name)(x, ctx)
                want = getattr(x, name)(libmpdec(digits))
                assert got.as_tuple() == want.as_tuple(), (name, x)

    @pytest.mark.parametrize("x", ["1E-50", "-1E-50", "7E-300", "1E-601"])
    def test_ln_next_to_one(self, x):
        # ln(1 + d) ~ d, where fixed point would cancel: no integer, so
        # libmpdec's ln, never the integer kernel
        assert kernel_inputs(1 + Decimal(x)) == set()
        ctx = PrecisionContext(600)
        y = 1 + Decimal(x)
        assert ln(y, ctx).as_tuple() == y.ln(libmpdec(600)).as_tuple()

    @pytest.mark.parametrize("x", ["1E+5000000000000000", "3.7E-999999999999999990"])
    @pytest.mark.parametrize("digits", [16, 17, 20])
    def test_ln_with_more_integer_digits_than_carried(self, x, digits):
        y = Decimal(x)
        got = ln(y, PrecisionContext(digits))
        assert got.as_tuple() == y.ln(libmpdec(digits)).as_tuple()

    def test_undecided_roundings_are_retried(self, monkeypatch):
        # with few guard bits many first tries land too near a rounding
        # boundary to decide; Ziv's loop must retry them, never guess
        monkeypatch.setattr(arith, "_ZIV_GUARD", 6)
        calls = {"all": 0, "undecided": 0}
        decide = arith._round_half_even

        def counted(*args):
            calls["all"] += 1
            result = decide(*args)
            calls["undecided"] += result is None
            return result

        monkeypatch.setattr(arith, "_round_half_even", counted)
        rng = random.Random(8)
        for digits in (16, 64, 384):
            ctx = PrecisionContext(digits)
            for _ in range(4):
                for name, x in _differential_cases(rng, digits):
                    got = getattr(arith, name)(x, ctx)
                    assert got.as_tuple() == getattr(x, name)(libmpdec(digits)).as_tuple()
        assert calls["undecided"] > 0


def exactly_rounded(man: int, shift: int, dexp: int, digits: int) -> Decimal:
    """man * 2**-shift * 10**dexp rounded half-even from its exact value."""
    context = arith._context(digits)
    exact = arith.EXACT.divide(Decimal(man), Decimal(2**shift))
    return context.plus(exact).scaleb(dexp, context)


class TestRoundHalfEven:
    """The kernel's decision step, against the exact quotient's rounding."""

    decide = staticmethod(arith._round_half_even)

    def test_exact_values_always_decide(self):
        rng = random.Random(21)
        for digits in (16, 64, 200):
            for _ in range(200):
                shift = rng.randrange(0, 4 * digits)
                man = rng.randrange(1, 2 ** (shift + rng.randrange(1, 8 * digits)))
                man *= rng.choice((1, -1))
                dexp = rng.randrange(-500, 500)
                got = self.decide(man, 0, shift, dexp, digits)
                assert got.as_tuple() == exactly_rounded(man, shift, dexp, digits).as_tuple()

    @pytest.mark.parametrize("digits", [16, 64])
    def test_short_and_half_way_exact_values(self, digits):
        # 3 and 1.5 keep their short form; 10**(digits-1) + 0.5 and + 1.5
        # lie half-way between two results and round to the even one
        low = 10 ** (digits - 1)
        cases = [
            (3 << 70, 70, Decimal(3)),
            (3 << 69, 70, Decimal("1.5")),
            ((2 * low + 1) << 39, 40, low),
            ((2 * low + 3) << 39, 40, low + 2),
        ]
        for man, shift, want in cases:
            got = self.decide(man, 0, shift, 0, digits)
            assert got == want
            assert got.as_tuple() == exactly_rounded(man, shift, 0, digits).as_tuple()

    @pytest.mark.parametrize("a", [0, 1, 20, -30])
    def test_just_below_a_power_of_ten_rounds_up_to_it(self, a):
        # 10 - 2**-120 or 10 - 2**-80 at 16 digits, times 10**(a - 1)
        shift, digits = 120, 16
        for below in (1, 2**40):
            man = (10 << shift) - below
            got = self.decide(man, 1, shift, a - 1, digits)
            assert got == Decimal(1).scaleb(a)
            assert got.as_tuple() == exactly_rounded(man, shift, a - 1, digits).as_tuple()
            assert len(got.as_tuple().digits) == digits

    def test_negative_values_mirror_positive_ones(self):
        rng = random.Random(22)
        for digits in (16, 64):
            for _ in range(100):
                shift = digits * 4 + 32
                man = rng.randrange(2**shift, 2 ** (shift + 40))
                got = self.decide(-man, 5, shift, 3, digits)
                if got is not None:
                    assert got == self.decide(man, 5, shift, 3, digits).copy_negate()
                    assert got.as_tuple() == exactly_rounded(-man, shift, 3, digits).as_tuple()

    @pytest.mark.parametrize("man, err", [(0, 0), (5, 5), (5, 9), (-5, 5), (-5, 9)])
    def test_bracket_reaching_zero_is_undecided(self, man, err):
        assert self.decide(man, err, 10, 0, 16) is None

    @pytest.mark.parametrize("q", [1234567890123456, 1234567890123457, 9999999999999999])
    def test_bracket_around_a_half_is_undecided(self, q):
        # (q + 1/2) * 2**shift, known to within 1 unit: either neighbour
        shift = 60
        man = (2 * q + 1) << (shift - 1)
        assert self.decide(man, 1, shift, 0, 16) is None
        assert self.decide(man - 1, 0, shift, 0, 16) == q
        assert self.decide(man + 1, 0, shift, 0, 16) == q + 1

    def test_decided_brackets_round_every_point_alike(self):
        rng = random.Random(23)
        decided = 0
        for _ in range(500):
            digits = rng.choice((16, 40))
            shift = int(digits * math.log2(10)) + 8
            man = rng.randrange(2**shift, 2 ** (shift + 4))
            err = rng.randrange(1, 2**8)
            got = self.decide(man, err, shift, 0, digits)
            if got is not None:
                decided += 1
                for point in (man - err, man, man + err):
                    assert got.as_tuple() == exactly_rounded(point, shift, 0, digits).as_tuple()
        assert 0 < decided < 500

    def test_exponent_estimate_one_low_still_rounds_up_to_the_power_of_ten(
        self, monkeypatch
    ):
        # a float estimate of the decimal exponent one too low leaves
        # digits + 1 digits after rounding up; the result must still be the
        # power of ten at ``digits`` digits, as libmpdec rounds it
        monkeypatch.setattr(arith, "_LOG10_2", math.log10(2) + 1e-12)
        rng = random.Random(25)
        for digits in (16, 40):
            shift = int(digits * math.log2(10)) + 20
            for _ in range(200):
                man = (10 ** rng.randrange(0, 4) << shift) - rng.randrange(1, 2**10)
                got = self.decide(man, 1, shift, 3, digits)
                want = exactly_rounded(man - 1, shift, 3, digits)
                assert got.as_tuple() == want.as_tuple()
                assert got.as_tuple().digits == (1,) + (0,) * (digits - 1)

    @pytest.mark.parametrize("digits", [16, 17, 64, 300, 1700])
    def test_random_brackets_at_any_width(self, digits):
        # values of every kind, scaled by 10**dexp, dexp != 0: any value,
        # one just below or above a power of ten, and an exact quotient of
        # a few digits, whose short form an exact bracket keeps
        rng = random.Random(digits + 24)
        bits = int(digits * math.log2(10)) + 1
        decided = 0
        for case in range(60 if digits < 1000 else 20):
            shift = bits + rng.randrange(-8, 64)
            kind = case % 4
            if kind == 0:
                man = rng.randrange(2**shift, 2 ** (shift + rng.randrange(1, 40)))
            elif kind in (1, 2):
                near = 10 ** rng.randrange(0, 8) << shift
                off = rng.randrange(1, 2 ** rng.randrange(1, shift))
                man = near - off if kind == 1 else near + off
            else:
                few = rng.randrange(1, 10 ** rng.randrange(1, 6))
                man = few << (shift - rng.randrange(0, 12))
            man *= rng.choice((1, -1))
            err = rng.choice((0, 0, 1, rng.randrange(2, 2**16)))
            dexp = rng.choice((1, -1)) * rng.randrange(1, 400)
            got = self.decide(man, err, shift, dexp, digits)
            if err == 0:
                assert got is not None
            if got is not None:
                decided += 1
                want = exactly_rounded(man - err, shift, dexp, digits)
                assert got.as_tuple() == want.as_tuple(), (man, err, shift, dexp)
                for point in (man, man + err):
                    assert got == exactly_rounded(point, shift, dexp, digits)
        assert decided > 0


class TestRoundToInteger:
    def test_close_value_rounds(self):
        assert rounded(Decimal("6.000000000001"), Decimal("1e-6")) == 6

    def test_far_value_raises(self):
        assert rounded(Decimal("6.4"), Decimal("1e-6")) is None

    def test_far_value_with_5000_integer_digits_raises(self):
        # 111...1.1: the nearest integer has more digits than int -> str allows
        x = Decimal((0, (1,) * 5001, -1))
        assert rounded(x, Decimal("1e-6")) is None
        assert nearest_integer(x)[1] == Decimal("0.1")

    def test_prime_product_round_trip(self):
        with localcontext(CTX.ambient):
            v = exp(ln(100003, CTX) + ln(100019, CTX), CTX)
        assert rounded(v, Decimal("1e-20")) == 100003 * 100019

    def test_distance_is_recorded(self):
        n, dist = nearest_integer(Decimal("41.75"))
        assert n == 42 and dist == Decimal("0.25")

    def test_random_prime_pairs_round_trip_exactly(self):
        # oracle: exact integer multiplication
        from airkey import sample_prime

        rng = random.Random(3)
        ctx = PrecisionContext(50)
        for _ in range(100):
            p = sample_prime(rng.randrange(2, 8), rng).value
            q = sample_prime(rng.randrange(2, 8), rng).value
            with localcontext(ctx.ambient):
                v = exp(ln(p, ctx) + ln(q, ctx), ctx)
            assert rounded(v, ctx.tolerance) == p * q


class TestLeadingDigitOverlap:
    @pytest.mark.parametrize(
        "a,b,want",
        [
            (Decimal(123456), Decimal(123456), 6),
            (Decimal(123456), Decimal("123477.357"), 4),
            (Decimal(123456), Decimal(923456), 0),
            (Decimal(123456), Decimal(23456), 0),  # magnitudes differ
            (Decimal(1234), Decimal("1234.005"), 6),
        ],
    )
    def test_examples(self, a, b, want):
        assert leading_digit_overlap(a, b) == want

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveInput):
            leading_digit_overlap(Decimal(0), Decimal(1))

    def test_perturbation_prefix_property(self):
        # first nonzero decimal of s at position r => the length-(r-2) digit
        # prefix moves by at most one.  This is the carry-safe form of the
        # "same first r-1 digits" claim, which a carry can break (see below).
        rng = random.Random(4)
        hits = 0
        trials = 500
        for _ in range(trials):
            d = rng.randrange(4, 13)
            n = rng.randrange(10 ** (d - 1), 10**d)
            r = rng.randrange(2, d)
            a = Decimal(rng.randrange(10**6, 10**7)) / Decimal(10**6)  # [1, 10)
            s = 1 + a.scaleb(-r)
            shift = 10 ** (d - r + 2)
            assert int(n * s) // shift - n // shift in (0, 1)
            if leading_digit_overlap(n, n * s) >= r - 1:
                hits += 1
        # the r-1 overlap holds in the bulk, not always
        assert hits / trials > 0.6

    def test_carry_can_shorten_overlap_below_r_minus_1(self):
        # 94151240 + 68.2 carries into the 6th digit: overlap 5 with r=7
        n = 94151240
        s = Decimal("1.0000007247719")
        assert leading_digit_overlap(n, n * s) == 5


class TestPrecisionContext:
    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(8)

    def test_default_tolerance_scale(self):
        assert PrecisionContext(64).tolerance == Decimal("1e-16")

    def test_monotone_precision(self):
        # max round-trip error never grows as digits grow
        pairs = [(100003, 999983), (2, 3), (9999991, 31), (104729, 1299709)]
        worst = []
        for digits in (32, 64, 128):
            ctx = PrecisionContext(digits)
            errs = []
            for p, q in pairs:
                with localcontext(ctx.ambient):
                    v = exp(ln(p, ctx) + ln(q, ctx), ctx)
                    errs.append(abs(v - p * q) / (p * q))
            worst.append(max(errs))
        assert worst[0] >= worst[1] >= worst[2]

    def test_elevation_preserves_strict_contexts(self):
        wide = PrecisionContext(32).sized(500)
        assert wide.digits > 500

    def test_exp_on_sized_context_adds_no_digits(self):
        # a sized context resolves the integer part with GUARD to spare, so
        # exp carries exactly the context's digits and never compounds
        ctx = PrecisionContext(64)
        wide = ctx.sized(300)
        assert wide.digits == 300 + 16 + 32
        with localcontext(wide.ambient):
            x = 299 * ln(10, wide) + ln(7, wide)  # 7e299: 300 integer digits
        v = exp(x, wide)
        assert v.adjusted() == 299
        assert len(v.as_tuple().digits) == wide.digits

    def test_text_round_trip(self):
        v = ln(100003, CTX)
        assert Decimal(str(v)) == v


def kernel_inputs(x) -> set[int]:
    """The integers ``ln(x)`` hands the integer kernel: empty for libmpdec."""
    calls = set()
    kernel = arith._ln_smooth_kernel

    def recorded(n, w):
        calls.add(n)
        return kernel(n, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "_ln_smooth_kernel", recorded)
        ln(Decimal(x), PrecisionContext(16))
    return calls


class TestSmoothNeighbourLn:
    """ln of an integer from a neighbour of its top bits, against libmpdec.

    The neighbour is the nearest integer whose primes all lie below 1009.
    """

    @pytest.mark.parametrize("digits", [16, 64, 384, 1700])
    def test_primes_of_one_to_twelve_digits(self, digits):
        rng = random.Random(digits + 1)
        ctx = PrecisionContext(digits)
        for d in range(1, 13):
            for _ in range(2 if digits == 1700 else 5):
                p = sample_prime(d, rng).value
                assert kernel_inputs(p) == {p}
                got = ln(p, ctx)
                assert got.as_tuple() == Decimal(p).ln(libmpdec(digits)).as_tuple(), p

    @pytest.mark.parametrize(
        "n",
        [2, 3, 5, 7, 10, 997, 251 * 997, 2**40, 3**5 * 7**2 * 2**100],
        ids=lambda n: str(n) if n < 2**64 else "s*2**100",
    )
    @pytest.mark.parametrize("digits", [16, 64, 384])
    def test_smooth_integers_take_no_series(self, n, digits):
        # n = 2**k s with s's primes below 1009: the series argument is 0 and
        # the result is the sum of the cached logs of those primes
        k = max(n.bit_length() - arith._TOP_BITS, 0)
        s, factors = smooth_neighbour(n >> k)
        assert s << k == n and math.prod(q**e for q, e in factors) == s
        got = ln(n, PrecisionContext(digits))
        assert got.as_tuple() == Decimal(n).ln(libmpdec(digits)).as_tuple()

    @pytest.mark.parametrize("x", ["11", "7.000", "1E+11", "999999999989", "4.2E+6"])
    def test_integral_decimals_in_any_form(self, x):
        assert kernel_inputs(x) == {int(Decimal(x))}
        for digits in (16, 200):
            got = ln(Decimal(x), PrecisionContext(digits))
            assert got.as_tuple() == Decimal(x).ln(libmpdec(digits)).as_tuple()

    @pytest.mark.parametrize(
        "x, integral",
        [(10**12 + 39, True), (2**89 - 1, True), ("12.5", False), ("0.5", False),
         (10**40 - 1, True), (10**40, False)],
        ids=["10**12+39", "2**89-1", "12.5", "0.5", "10**40-1", "10**40"],
    )
    def test_big_integers_take_the_kernel_others_libmpdec(self, x, integral):
        # every integral x below 10**40 takes the integer kernel, far past
        # its top bits too; any other x, 10**40 included, libmpdec's
        assert kernel_inputs(x) == ({int(x)} if integral else set())
        for digits in (16, 384):
            got = ln(Decimal(x), PrecisionContext(digits))
            assert got.as_tuple() == Decimal(x).ln(libmpdec(digits)).as_tuple()

    @pytest.mark.parametrize("digits", [16, 64, 384, 1700])
    def test_integers_of_thirteen_to_forty_digits(self, digits):
        # past 2**_TOP_BITS the series argument (n - 2**k s) / (n + 2**k s)
        # takes the low bits r of n = 2**k m + r
        rng = random.Random(digits + 3)
        step = 4 if digits == 1700 else 1
        ints = [rng.randrange(10 ** (d - 1), 10**d) for d in range(13, 41, step)]
        ints += [sample_prime(d, rng).value for d in range(13, 33, step)]
        ctx = PrecisionContext(digits)
        logs = arith.integer_logs(ints, ctx)
        for n, value in zip(ints, logs.values):
            want = Decimal(n).ln(libmpdec(digits)).as_tuple()
            assert value.as_tuple() == want, n
            assert ln(n, ctx).as_tuple() == want, n

    @pytest.mark.parametrize(
        "n",
        [2**40 - 1, 2**40, 2**40 + 1, 3**5 * 7**2 * 2**100]
        + [2**18 - 1, 2**18, 2**18 + 1],
        ids=["2**40-1", "2**40", "2**40+1", "s*2**100", "2**18-1", "2**18", "2**18+1"],
    )
    @pytest.mark.parametrize("digits", [16, 64, 384])
    def test_edges_of_the_top_bits(self, n, digits):
        # 2**18 - 1 keeps all its bits; 2**18, 2**40 and s * 2**100 split
        # off r = 0, where the argument is 0; 2**18 + 1 and 2**40 + 1 leave
        # r = 1, 2**40 - 1 the largest r
        ctx = PrecisionContext(digits)
        want = Decimal(n).ln(libmpdec(digits)).as_tuple()
        assert ln(n, ctx).as_tuple() == want
        assert arith.integer_logs([n], ctx).values[0].as_tuple() == want

    def test_fixed_logs_of_wide_integers_within_their_errors(self):
        rng = random.Random(11)
        for digits in (16, 64, 384):
            ints = [rng.randrange(10 ** (d - 1), 10**d) for d in (13, 20, 32, 40, 500)]
            ints.append(3**5 * 7**2 * 2**100 + 1)
            logs = arith.integer_logs(ints, PrecisionContext(digits))
            oracle = arith._context(2 * digits + 40)
            scale = Decimal(2**logs.bits)
            for n, man, err in zip(ints, logs.fixed, logs.errors):
                exact = oracle.multiply(Decimal(n).ln(oracle), scale)
                assert abs(oracle.subtract(man, exact)) <= err, n

    def test_integer_logs_reject_one(self):
        with pytest.raises(NonPositiveInput, match=">= 2"):
            arith.integer_logs([1], CTX)

    @pytest.mark.parametrize("digits", [64, 600])
    def test_integer_logs_of_wide_integers_equal_ln(self, digits):
        # ln takes libmpdec from 10**40 on and integer_logs the kernel at
        # any size, as for a listener's wrong hints P - 1 and P + 1
        rng = random.Random(digits)
        ctx = PrecisionContext(digits)
        for _ in range(3):
            n = rng.randrange(10**499, 10**500)
            got = arith.integer_logs([n], ctx).values[0]
            assert got.as_tuple() == ln(n, ctx).as_tuple()

    def test_every_top_bits_value_has_its_nearest_neighbour_within_one_in_21(self):
        # exhaustive: for every m below 2**_TOP_BITS the kernel's neighbour
        # is the nearest integer whose primes all lie below 1009 (the lower
        # on a tie), found here by a sieve that strikes every multiple of a
        # prime from 1009 on, and its series argument is at most 1/21, also
        # with the 1 a nonzero k adds once m >= 2**(_TOP_BITS - 1)
        top = 2**arith._TOP_BITS
        bound = top + 64
        flags = bytearray([1]) * bound
        for p in sieve(bound):
            if p >= 1009:
                flags[p::p] = bytes(len(range(p, bound, p)))
        smooth = [i for i in range(1, bound) if flags[i]]
        assert smooth[-1] > top
        worst = 0
        for a, b in zip(smooth, smooth[1:]):
            for m in range(a, min(b, top)):
                s = a if m - a <= b - m else b
                assert smooth_neighbour(m)[0] == s, m
                z = (abs(m - s) + (m >= top // 2)) / (m + s)
                worst = max(worst, z)
        assert worst <= 1 / 21

    def test_smooth_neighbours_factor_into_primes_below_1009(self):
        rng = random.Random(12)
        for m in [1, 2, 1008, 1009, 1010, 2**arith._TOP_BITS - 1] + [
            rng.randrange(1, 2**arith._TOP_BITS) for _ in range(500)
        ]:
            s, factors = smooth_neighbour(m)
            assert math.prod(q**e for q, e in factors) == s
            assert all(q in _GCD_PRIMES and e >= 1 for q, e in factors)
            assert [q for q, _ in factors] == sorted({q for q, _ in factors})

    def test_undecided_roundings_are_retried(self, monkeypatch):
        monkeypatch.setattr(arith, "_ZIV_GUARD", 6)
        calls = {"all": 0, "undecided": 0}
        decide = arith._round_half_even

        def counted(*args):
            calls["all"] += 1
            result = decide(*args)
            calls["undecided"] += result is None
            return result

        monkeypatch.setattr(arith, "_round_half_even", counted)
        rng = random.Random(9)
        for digits in (16, 64, 384):
            ctx = PrecisionContext(digits)
            for _ in range(30):
                p = sample_prime(rng.randrange(1, 13), rng).value
                want = Decimal(p).ln(libmpdec(digits))
                assert ln(p, ctx).as_tuple() == want.as_tuple()
        assert calls["undecided"] > 0

    def test_integer_logs_evaluate_no_width_twice(self, monkeypatch):
        # a log the first width leaves undecided goes on from twice the
        # guard bits, never back to the width it was left undecided at
        monkeypatch.setattr(arith, "_ZIV_GUARD", 6)
        evaluated = []
        kernel = arith._ln_smooth_kernel

        def recorded(n, w):
            evaluated.append((n, w))
            return kernel(n, w)

        monkeypatch.setattr(arith, "_ln_smooth_kernel", recorded)
        primes = [p.value for p in sample_distinct_primes(300, 6, random.Random(4))[0]]
        logs = arith.integer_logs(primes, PrecisionContext(64))
        assert len(evaluated) > len(primes)
        assert len(set(evaluated)) == len(evaluated)
        for p, value in zip(primes, logs.values):
            assert value.as_tuple() == Decimal(p).ln(libmpdec(64)).as_tuple(), p

    @pytest.mark.parametrize("digits", [64, 256, 1024])
    def test_series_terms_match_one_division_by_t_squared(self, digits):
        # the kernel divides a term by t twice where t is one limb and t**2
        # is not; floor(floor(x/t)/t) = floor(x/t**2), so its fixed-point
        # logs and errors are those of the series that divides by t * t once
        # (or, for a t wider than an eighth of the width, reads z**2 once)
        rng = random.Random(digits + 2)
        ints = [rng.randrange(max(2, 10 ** (d - 1)), 10**d) for d in range(1, 13)]
        ints += [sample_prime(d, rng).value for d in range(1, 13)]
        ints += [2**29 - 3, 2**29 + 11]  # t just below and above one limb
        logs = arith.integer_logs(ints, PrecisionContext(digits))
        want = [one_division_series(n, logs.bits) for n in ints]
        assert list(zip(logs.fixed, logs.errors)) == want


class TestRoundedTable:
    """``IntegerLogs.rounded`` against a table taken at the requested digits."""

    OWN = 100  # the table's own digits

    @staticmethod
    def primes():
        rng = random.Random(29)
        return [sample_prime(d, rng).value for d in (1, 1, 3, 5, 6, 6, 20, 32)]

    @staticmethod
    def counted_kernel(monkeypatch):
        calls = []
        kernel = arith._ln_smooth_kernel

        def recorded(n, w):
            calls.append(n)
            return kernel(n, w)

        monkeypatch.setattr(arith, "_ln_smooth_kernel", recorded)
        return calls

    def test_equals_integer_logs_at_every_precision(self, monkeypatch):
        ints = self.primes()
        table = arith.integer_logs(ints, PrecisionContext(self.OWN))
        calls = self.counted_kernel(monkeypatch)
        for digits in [*range(16, self.OWN + 1), self.OWN + 1, 128, 300]:
            ctx = PrecisionContext(digits)
            calls.clear()
            got = table.rounded(ctx)
            # no kernel up to the table's own digits, one log each past them
            assert len(calls) == (len(ints) if digits > self.OWN else 0), digits
            want = arith.integer_logs(ints, ctx).values
            assert [v.as_tuple() for v in got] == [v.as_tuple() for v in want], digits
        assert table.rounded(PrecisionContext(self.OWN)) is table.values

    def test_undecided_brackets_take_the_kernel(self, monkeypatch):
        # an error of 2**-20 relative to the log leaves every rounding to 16
        # digits or more undecided, so each log takes the kernel
        ints = self.primes()
        table = arith.integer_logs(ints, PrecisionContext(self.OWN))
        wide = replace(table, errors=(1 << (table.bits - 20),) * len(ints))
        calls = self.counted_kernel(monkeypatch)
        for digits in (16, 50, self.OWN - 1):
            ctx = PrecisionContext(digits)
            calls.clear()
            got = wide.rounded(ctx)
            assert sorted(set(calls)) == sorted(set(ints))
            want = arith.integer_logs(ints, ctx).values
            assert [v.as_tuple() for v in got] == [v.as_tuple() for v in want], digits


def one_division_series(n: int, w: int) -> tuple[int, int]:
    """ln n * 2**w and its error bound, each series term divided by t * t once."""
    k = max(n.bit_length() - arith._TOP_BITS, 0)
    s, factors = smooth_neighbour(n >> k)
    d, t = n - (s << k), n + (s << k)
    d2, t2 = d * d, t * t
    term = series = (abs(d) << w) // t
    z2 = (d2 << w) // t2
    i = 1
    while term:
        term = (term * z2) >> w if 8 * t.bit_length() > w else term * d2 // t2
        i += 2
        series += term // i
    log = arith._smooth_log(k, factors, w)
    return log + 2 * (series if d >= 0 else -series), 2 * i + 4


class TestMachinBasis:
    """ln 2, 3, 5 and 7 made like every other cached prime log.

    Every ln q, q < 1009, enters the one cache by ln q = ln(q - 1) +
    2 atanh(1 / (2q - 1)), ln 2 as 2 atanh(1/3).
    """

    @pytest.mark.parametrize("w", [86, 300, 1333, 5700])
    def test_constants_within_three_units(self, w, monkeypatch):
        # ln 2, 3, 5 and 7 made from an empty cache, and ln 10 = ln 2 + ln 5
        # as the exponential reads it, shifted down to w bits
        monkeypatch.setattr(arith, "_PRIME_LOGS", (0, 0, {}))
        _, v, logs = arith._prime_logs(w)
        assert logs == {}
        got = {q: arith._prime_log(q, v, logs) >> (v - w) for q in (2, 3, 5, 7)}
        got[10] = (arith._prime_log(2, v, logs) + arith._prime_log(5, v, logs)) >> (v - w)
        assert sorted(logs) == [2, 3, 5, 7]
        oracle = libmpdec(int(w * math.log10(2)) + 30)
        for q, log in got.items():
            exact = oracle.multiply(Decimal(q).ln(oracle), 2**w)
            assert abs(oracle.subtract(log, exact)) < 3, (q, w)

    def test_exp_widens_the_cache_first(self, monkeypatch):
        # exp and the integer kernel share the cache: an exponential wider
        # than every log so far starts it again at its width with ln 2 and
        # ln 5 alone, and every ln q, q < 1009, then cached, at that width
        # or a narrower one, is still within its bound
        monkeypatch.setattr(arith, "_PRIME_LOGS", (0, 0, {}))
        primes = sorted(_GCD_PRIMES)
        for q in primes:
            arith._smooth_log(0, [(q, 1)], 86)
        narrow = arith._PRIME_LOGS[0]
        digits = 200
        x = Decimal("123.456")
        assert exp(x, PrecisionContext(digits)).as_tuple() == x.exp(libmpdec(digits)).as_tuple()
        bits, _, logs = arith._PRIME_LOGS
        assert bits > 3 * digits > 2 * narrow and sorted(logs) == [2, 5]
        for w in (86, 3 * digits):
            oracle = libmpdec(int(w * math.log10(2)) + 30)
            for q in primes:
                got = arith._smooth_log(0, [(q, 1)], w)
                exact = oracle.multiply(Decimal(q).ln(oracle), 2**w)
                assert abs(oracle.subtract(got, exact)) < 3, (q, w)
        assert arith._PRIME_LOGS[0] == bits and len(arith._PRIME_LOGS[2]) == 168

    def test_cached_prime_logs_within_three_units(self, monkeypatch):
        # every ln q, q < 1009, from the cache as it is built at 86 bits and
        # widened to 1 333, then from the cache widened to 5 700 at that
        # width (967 has the largest error bound) and again at the narrower
        # ones
        monkeypatch.setattr(arith, "_PRIME_LOGS", (0, 0, {}))

        def exact_logs(primes, w):
            oracle = libmpdec(int(w * math.log10(2)) + 30)
            return oracle, {q: Decimal(q).ln(oracle) for q in primes}

        def check(oracle, logs, w):
            for q, log in logs.items():
                got = arith._smooth_log(0, [(q, 1)], w)
                assert abs(oracle.subtract(got, oracle.multiply(log, 2**w))) < 3, (q, w)

        narrow = exact_logs(sorted(_GCD_PRIMES), 1333)
        for w in (86, 300, 1333):
            check(*narrow, w)
        check(*exact_logs([2, 11, 599, 967, 997], 5700), 5700)
        for w in (86, 300, 1333):
            check(*narrow, w)
        bits, _, logs = arith._PRIME_LOGS
        assert bits >= 5700 and len(logs) == 168

    @pytest.mark.parametrize(
        "bits", [86, 93, 100, 1000, 5700, 11000] + [2**j - 1 for j in range(7, 14)]
    )
    def test_error_bounds_stay_below_one_unit_of_the_cache_width(self, bits, monkeypatch):
        # ln q is low by less than B(q) = sum e B(p) + 2 (i + 1) units of
        # 2**-v, over the p**e of q - 1 and the i terms of q's series; the
        # cache's v keeps every B(q) below one unit of 2**-bits, and
        # B(2) + B(5), the error of ln 10, below 0.3, also where bits is
        # 2**j - 1 and its spare bits v - bits are fewest for its size
        monkeypatch.setattr(arith, "_PRIME_LOGS", (0, 0, {}))
        _, v, _ = arith._prime_logs(bits)
        bound = {}
        for q in sorted(_GCD_PRIMES):
            below = sum(e * bound[p] for p, e in smooth_neighbour(q - 1)[1])
            bound[q] = below + 2 * (arith._atanh(1, 2 * q - 1, v)[1] + 1)
        budget = 2 ** (v - bits)
        assert max(bound.values()) < min(budget, 14 * v + 90)
        assert bound[2] + bound[5] < min(0.3 * budget, 4.5 * v + 24)

    def test_cached_logs_do_not_depend_on_the_order_of_first_use(self, monkeypatch):
        monkeypatch.setattr(arith, "_PRIME_LOGS", (0, 0, {}))
        _, v, _ = arith._prime_logs(1333)
        primes = sorted(_GCD_PRIMES)
        top_first, ascending = {}, {}
        for q in [997] + primes:
            arith._prime_log(q, v, top_first)
        for q in primes:
            arith._prime_log(q, v, ascending)
        assert list(top_first) != list(ascending)
        assert top_first == ascending and len(ascending) == 168
