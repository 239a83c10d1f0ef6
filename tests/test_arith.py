import random
from decimal import Context, Decimal

import pytest

from airkey import (
    NonPositiveInput,
    NotNearInteger,
    Overflow,
    PrecisionContext,
    exp,
    leading_digit_overlap,
    ln,
    round_to_integer,
    to_bigreal,
)
from airkey.arith import nearest_integer

CTX = PrecisionContext(50)


def ulp(x: Decimal, digits: int) -> Decimal:
    return Decimal(1).scaleb(x.adjusted() - digits + 1)


class TestLn:
    def test_ln_one_is_zero(self):
        assert ln(1, CTX) == 0

    def test_ln_of_e_is_one(self):
        e = exp(1, CTX)
        assert abs(ln(e, CTX) - 1) <= 2 * ulp(Decimal(1), CTX.digits)

    def test_ln_exp_round_trip_prime(self):
        v = ln(100003, CTX)
        assert round_to_integer(exp(v, CTX), CTX.tolerance) == 100003

    @pytest.mark.parametrize("bad", [0, -1, Decimal("-0.5")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(NonPositiveInput):
            ln(bad, CTX)

    def test_two_ulp_contract_against_quad_precision(self):
        # oracle: the same operation at 4x digits
        oracle_ctx = PrecisionContext(4 * CTX.digits)
        rng = random.Random(1)
        for _ in range(200):
            x = Decimal(rng.randrange(1, 10**12)) / Decimal(10**6)
            got = ln(x, CTX)
            want = ln(x, oracle_ctx)
            assert abs(got - want) <= 2 * ulp(want, CTX.digits)


class TestExp:
    def test_exp_zero_is_one(self):
        assert exp(0, CTX) == 1

    def test_log_sum_identity(self):
        with CTX.local():
            v = exp(ln(2, CTX) + ln(3, CTX), CTX)
        assert round_to_integer(v, CTX.tolerance) == 6

    def test_scaled_log_is_power(self):
        # 3**2 == 9 by exact arithmetic
        with CTX.local():
            v = exp(2 * ln(3, CTX), CTX)
        assert round_to_integer(v, CTX.tolerance) == 9

    def test_two_ulp_contract_against_quad_precision(self):
        oracle_ctx = PrecisionContext(4 * CTX.digits)
        rng = random.Random(2)
        for _ in range(200):
            x = Decimal(rng.randrange(-80_000_000, 80_000_000)) / Decimal(10**6)
            got = exp(x, CTX)
            want = exp(x, oracle_ctx)
            assert abs(got - want) <= 2 * ulp(want, CTX.digits)

    def test_overflow_on_exponent_bound(self):
        ctx = PrecisionContext(50, max_exponent=1000)
        with pytest.raises(Overflow):
            exp(Decimal(3000), ctx)

    @pytest.mark.parametrize("x", ["-1e10", "-1e400", "1e400"])
    def test_overflow_on_arguments_beyond_float_range(self, x):
        # -1e400 is -inf as a float, which must not leak a bare OverflowError
        with pytest.raises(Overflow):
            exp(Decimal(x), PrecisionContext(32))

    def test_strict_context_overflows_instead_of_widening(self):
        strict = PrecisionContext(32, elastic=False)
        with pytest.raises(Overflow):
            exp(Decimal(200), strict)  # result has ~87 integer digits

    def test_strict_context_resolves_values_that_fit(self):
        strict = PrecisionContext(32, elastic=False)
        assert exp(Decimal(1), strict) == Decimal(1).exp(Context(prec=32))
        v = exp(Decimal(36), strict)  # 16 integer digits, GUARD to spare
        assert v.adjusted() == 15
        assert len(v.as_tuple().digits) == 32

    def test_elastic_context_widens(self):
        elastic = PrecisionContext(32)
        v = exp(Decimal(200), elastic)
        assert v.adjusted() == 86


class TestRoundToInteger:
    def test_close_value_rounds(self):
        assert round_to_integer(Decimal("6.000000000001"), Decimal("1e-6")) == 6

    def test_far_value_raises(self):
        with pytest.raises(NotNearInteger):
            round_to_integer(Decimal("6.4"), Decimal("1e-6"))

    def test_far_value_with_5000_integer_digits_raises(self):
        # 111...1.1: the nearest integer has more digits than int -> str allows
        x = Decimal((0, (1,) * 5001, -1))
        with pytest.raises(NotNearInteger) as info:
            round_to_integer(x, Decimal("1e-6"))
        assert info.value.distance == Decimal("0.1")

    def test_prime_product_round_trip(self):
        with CTX.local():
            v = exp(ln(100003, CTX) + ln(100019, CTX), CTX)
        assert round_to_integer(v, Decimal("1e-20")) == 100003 * 100019

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
            with ctx.local():
                v = exp(ln(p, ctx) + ln(q, ctx), ctx)
            assert round_to_integer(v, ctx.tolerance) == p * q


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
                with ctx.local():
                    v = exp(ln(p, ctx) + ln(q, ctx), ctx)
                    errs.append(abs(v - p * q) / (p * q))
            worst.append(max(errs))
        assert worst[0] >= worst[1] >= worst[2]

    def test_elevation_preserves_strict_contexts(self):
        strict = PrecisionContext(32, elastic=False)
        assert strict.sized(500) is strict
        wide = PrecisionContext(32).sized(500)
        assert wide.digits > 500

    def test_exp_on_sized_context_adds_no_digits(self):
        # a sized context resolves the integer part with GUARD to spare, so
        # exp carries exactly the context's digits and never compounds
        ctx = PrecisionContext(64)
        wide = ctx.sized(300)
        assert wide.digits == 300 + 16 + 32
        with wide.local():
            x = 299 * ln(10, wide) + ln(7, wide)  # 7e299: 300 integer digits
        v = exp(x, wide)
        assert v.adjusted() == 299
        assert len(v.as_tuple().digits) == wide.digits

    def test_text_round_trip(self):
        v = ln(100003, CTX)
        assert Decimal(str(v)) == v
