import math
import random
from decimal import Decimal

import pytest

from airkey import fullduplex
from airkey import (
    FactorBoundExceeded,
    Factorization,
    PrimeInput,
    factorize,
    is_probable_prime,
    radical,
    sample_distinct_primes,
    sample_prime,
)
from airkey.arith import PrecisionContext, integer_logs
from airkey.integers import (
    _GCD_PRIMES,
    _GCD_SQUARES,
    _PRIME_COUNT,
    SMOOTH_BOUND,
    _prime_powers,
    _small_primes,
    _strip_small_primes,
    sieve,
)
from airkey.transcript import Reception

# psi_k of OEIS A014233, the least composite that passes Miller-Rabin to each
# of the first k prime bases, for the k at which it grows (k = 1..7, 9, 12, 13).
PSI = [
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
]


class BoundedRandom(random.Random):
    """A generator that fails after a fixed number of draws instead of
    letting a sampling loop that can never finish run forever."""

    def __init__(self, seed, draws=10_000):
        super().__init__(seed)
        self.left = draws

    def getrandbits(self, k):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("sampling did not finish")
        return super().getrandbits(k)


def trial_division_is_prime(n: int) -> bool:
    # independent oracle, valid for any n we feed it here
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def reference_is_prime(n: int, rounds: int = 48) -> bool:
    # independent oracle for large n: Miller-Rabin with random bases, wrong
    # with probability below 4**-48
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    rng = random.Random(n)
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_sample_prime(digit_count: int, rng: random.Random) -> int:
    # the candidate stream of randrange over the digit range, each candidate
    # tested by the independent oracle
    lo, hi = 10 ** (digit_count - 1), 10**digit_count - 1
    while True:
        candidate = rng.randrange(lo, hi + 1)
        if reference_is_prime(candidate):
            return candidate


def reference_distinct_primes(n: int, digit_count: int, rng: random.Random):
    out, collisions = [], 0
    while len(out) < n:
        p = reference_sample_prime(digit_count, rng)
        if p in out:
            collisions += 1
        else:
            out.append(p)
    return out, collisions


def factor_oracle(picks: dict[int, int]) -> tuple[int, tuple]:
    # we build the number, so factorize must return the recipe
    return math.prod(p**e for p, e in picks.items()), tuple(sorted(picks.items()))


class TestPrimality:
    def test_small_range_matches_trial_division(self):
        for n in range(2000):
            assert is_probable_prime(n) == trial_division_is_prime(n)

    def test_random_range_matches_trial_division(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(10**6, 10**9)
            assert is_probable_prime(n) == trial_division_is_prime(n)

    @pytest.mark.parametrize("n", [561, 41041, 825265, 321197185])
    def test_carmichael_numbers_are_composite(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("psi", PSI)
    def test_strong_pseudoprime_bounds_are_composite(self, psi):
        # each psi_k fools exactly the bases exact below it
        assert not reference_is_prime(psi)
        assert not is_probable_prime(psi)

    def test_twelve_base_pseudoprime_is_rejected(self):
        psi_12 = 318_665_857_834_031_151_167_461
        assert psi_12 == 399_165_290_221 * 798_330_580_441
        with pytest.raises(ValueError, match="not prime"):
            PrimeInput(psi_12)

    @pytest.mark.parametrize("psi", PSI)
    def test_first_prime_above_each_bound_reads_prime(self, psi):
        n = psi + 1
        while not reference_is_prime(n):
            assert not is_probable_prime(n)
            n += 1
        assert is_probable_prime(n)

    @pytest.mark.parametrize("k", range(1, len(PSI)))
    def test_random_values_between_bounds_match_the_reference(self, k):
        rng = random.Random(k)
        for _ in range(200):
            n = rng.randrange(PSI[k - 1], PSI[k]) | 1
            assert is_probable_prime(n) == reference_is_prime(n)

    @pytest.mark.parametrize(
        "n, prime",
        [
            (997, True),  # the largest prime in the gcd's product
            (1008, False),
            (1009, True),  # the least value the gcd decides
            (997 * 1009, False),
            (1009**2, False),  # 1 018 081, the least value it does not decide
            (1_018_091, True),  # the least prime above 1009**2
            (1009 * 1013, False),
        ],
    )
    def test_named_values_at_the_gcd_bound(self, n, prime):
        assert reference_is_prime(n) == prime
        assert is_probable_prime(n) == prime

    def test_every_value_across_the_gcd_bound_matches_a_sieve(self):
        # below 1009**2 one gcd against the primes below 1009 decides; above
        # it Miller-Rabin runs, so a bound off by one reads 1009**2 as prime
        top = 1009**2 + 10**4
        primes = set(sieve(top - 1))
        wrong = [n for n in range(top) if is_probable_prime(n) != (n in primes)]
        assert wrong == []

    def test_random_values_above_the_gcd_bound_match_the_reference(self):
        rng = random.Random(1009)
        for _ in range(2000):
            n = rng.randrange(10**6, 10**12 + 1)
            assert is_probable_prime(n) == reference_is_prime(n), n

    def test_sieve_matches_oracle(self):
        assert sieve(100) == [n for n in range(101) if trial_division_is_prime(n)]
        assert sieve(1) == []


class TestPrimeInput:
    def test_valid(self):
        assert PrimeInput(100003).value == 100003

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            PrimeInput(100001)  # 11 * 9091


class TestSampling:
    def test_sample_prime_has_requested_digits(self):
        rng = random.Random(5)
        for d in range(1, 10):
            p = sample_prime(d, rng)
            assert len(str(p.value)) == d
            assert trial_division_is_prime(p.value)

    def test_sample_prime_rejects_zero_digits(self):
        with pytest.raises(ValueError, match="digit_count"):
            sample_prime(0, random.Random(0))

    def test_sampling_is_deterministic(self):
        a = sample_prime(6, random.Random(42))
        b = sample_prime(6, random.Random(42))
        assert a == b

    @pytest.mark.parametrize("digits", range(1, 13))
    def test_candidate_stream_is_randranges(self, digits):
        # the draws, and so every trial's input, are those of randrange over
        # the digit range, whatever the sampler calls to make them
        n = min(4, _PRIME_COUNT.get(digits, 4))
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            assert sample_prime(digits, rng).value == reference_sample_prime(digits, ref)
            primes, collisions = sample_distinct_primes(n, digits, rng)
            assert ([p.value for p in primes], collisions) == reference_distinct_primes(
                n, digits, ref
            )
            assert rng.getstate() == ref.getstate()

    def test_distinct_primes_are_distinct(self):
        primes, collisions = sample_distinct_primes(20, 4, random.Random(9))
        values = [p.value for p in primes]
        assert len(set(values)) == 20
        assert collisions >= 0

    def test_collisions_counted_in_tiny_pool(self):
        # only four 1-digit primes exist, so drawing all of them must collide
        primes, collisions = sample_distinct_primes(4, 1, random.Random(0))
        assert sorted(p.value for p in primes) == [2, 3, 5, 7]
        assert collisions > 0

    def test_more_primes_than_exist_raises_at_once(self):
        # only four 1-digit primes exist, so a fifth can never be drawn
        with pytest.raises(ValueError, match="only 4 primes have 1 digits"):
            sample_distinct_primes(5, 1, BoundedRandom(0))

    def test_prime_counts_match_a_sieve(self):
        primes = sieve(10**6)
        for d in range(1, 7):
            assert _PRIME_COUNT[d] == sum(10 ** (d - 1) <= p < 10**d for p in primes)


class TestFactorization:
    def test_text_round_trip(self):
        f = Factorization(((3, 2), (5, 1), (100003, 4)))
        assert f.to_text() == "3^2 * 5^1 * 100003^4"

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Factorization(((5, 1), (3, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="exponents must be positive"):
            Factorization(((2, 0),))

    def test_radical(self):
        assert radical(Factorization(((2, 5), (7, 2)))) == 14

    def test_value(self):
        assert Factorization(((2, 3), (3, 1))).value() == 24


class TestFactorize:
    def test_small_cases(self):
        assert factorize(2).factors == ((2, 1),)
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_construct_then_factor_random(self):
        # oracle: we build the number, factorize must return the recipe
        rng = random.Random(13)
        for _ in range(40):
            picks = {}
            for _ in range(rng.randrange(1, 6)):
                p = sample_prime(rng.randrange(1, 7), rng).value
                picks[p] = picks.get(p, 0) + rng.randrange(1, 9)
            n = math.prod(p**e for p, e in picks.items())
            assert factorize(n).factors == tuple(sorted(picks.items()))

    def test_large_prime_power_products(self):
        # the full-duplex worst case: many 5-digit primes, exponents to 8
        rng = random.Random(17)
        primes, _ = sample_distinct_primes(12, 5, rng)
        n = math.prod(p.value ** rng.randrange(1, 9) for p in primes)
        f = factorize(n)
        assert f.value() == n
        assert f.primes() == sorted(p.value for p in primes)

    def test_semiprime_beyond_trial_division(self):
        # both factors above the smooth bound: exercises the rho stage
        p, q = 1_000_003, 9_999_991
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_effort_budget_raises(self):
        p, q = 1_000_003, 9_999_991
        with pytest.raises(FactorBoundExceeded):
            factorize(p * q, rho_effort=10)

    def test_both_ends_of_the_forest_in_one_product(self):
        n, recipe = factor_oracle({2: 5, 3: 1, 50_021: 2, 99_989: 1, 99_991: 3})
        assert factorize(n).factors == recipe

    def test_primes_under_the_carried_top_node(self):
        n, recipe = factor_oracle({7: 2, 95_617: 4, 99_991: 1})
        assert factorize(n).factors == recipe

    @pytest.mark.parametrize(
        "p, e", [(2, 40), (65_537, 7), (99_991, 8), (1_000_003, 3)]
    )
    def test_single_prime_power(self, p, e):
        n, recipe = factor_oracle({p: e})
        assert factorize(n).factors == recipe

    @pytest.mark.parametrize("p", [2, 3, 37, 9_973, 65_537, 99_991])
    def test_prime_below_smooth_bound_alone(self, p):
        assert factorize(p).factors == ((p, 1),)

    def test_cofactor_reaches_one_in_the_first_subtree(self):
        # all factors are among the largest primes below the bound
        n, recipe = factor_oracle({99_901: 3, 99_929: 1, 99_991: 8})
        assert factorize(n).factors == recipe

    def test_small_primes_with_a_rho_sized_semiprime(self):
        p, q = 1_000_003, 9_999_991
        n, recipe = factor_oracle({2: 3, 11: 1, 65_537: 2, 99_991: 1, p: 1, q: 1})
        with pytest.raises(FactorBoundExceeded):
            factorize(n, rho_effort=10)
        assert factorize(n).factors == recipe

    def test_random_products_across_the_forest(self):
        rng = random.Random(23)
        small = sieve(SMOOTH_BOUND)
        for _ in range(60):
            picks = {}
            for _ in range(rng.randrange(1, 14)):
                p = rng.choice(small)
                picks[p] = picks.get(p, 0) + rng.randrange(1, 9)
            n, recipe = factor_oracle(picks)
            assert factorize(n).factors == recipe
        # the full-duplex product at N=64: 64 distinct 5-digit primes
        five_digit = [p for p in small if p >= 10_000]
        picks = {p: rng.randrange(1, 9) for p in rng.sample(five_digit, 64)}
        n, recipe = factor_oracle(picks)
        assert factorize(n).factors == recipe
        # no prime below the bound: one gcd, nothing divided out
        n, recipe = factor_oracle({100_003: 2, 1_000_003: 1, 9_999_991: 3})
        assert _strip_small_primes(n) == ({}, n)
        assert factorize(n).factors == recipe

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            factorize(1)


def trial_division(n: int, primes) -> tuple[list[tuple[int, int]], int]:
    """(p, e) for each p**e exactly dividing ``n``, p in ``primes``, and the rest."""
    powers = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            powers.append((p, e))
    return powers, n


class TestSmallPrimeWalk:
    """The one walk that names small primes, for the log neighbour and factorize.

    Over either list, the primes below 1009 or those up to SMOOTH_BOUND, it
    must give what trial division by every prime of the list gives.
    """

    @staticmethod
    def walk(n: int, primes: list[int], squares):
        return _prime_powers(n, math.gcd(n, math.prod(primes)), squares)

    def test_smooth_integers_below_2_to_18(self):
        rng = random.Random(41)
        primes = sorted(_GCD_PRIMES)
        checked = 0
        for _ in range(3000):
            s = rng.randrange(1, 2**18)
            want = trial_division(s, primes)
            if want[1] == 1:
                assert self.walk(s, primes, _GCD_SQUARES) == want, s
                checked += 1
        assert checked > 1000

    def test_products_of_eleven_five_digit_primes(self):
        rng = random.Random(42)
        squares, _ = _small_primes()
        primes = [p for p, _ in squares]
        five = [p for p in primes if p >= 10_000]
        for _ in range(12):
            n = math.prod(p ** rng.randrange(1, 9) for p in rng.sample(five, 11))
            n *= rng.choice([1, 2**5 * 3, 100_003, 1_000_003**2])
            assert self.walk(n, primes, squares) == trial_division(n, primes), n

    @pytest.mark.parametrize(
        "n",
        [1, 2, 2**17, 997, 997**2 * 5, 263 * 997, 2 * 3 * 5 * 7 * 11 * 13,
         1009, 1009**2 * 1013, 2**3 * 1019],
    )
    def test_what_is_left_of_g_is_one_or_a_prime(self, n):
        # the walk stops once p**2 exceeds what is left of g: 1 when no prime
        # of the list divides n, else the largest prime of g, divided out of
        # n like the others
        primes = sorted(_GCD_PRIMES)
        assert self.walk(n, primes, _GCD_SQUARES) == trial_division(n, primes)

    def test_a_list_of_one_prime_divides_it_out(self):
        # factorize divides a prime that rho found out of its cofactor so
        q = 1_000_003
        assert _prime_powers(7 * q**3, q, [(q, q * q)]) == ([(q, 3)], 7)


def factor_or_message(n: int, **kw):
    try:
        return factorize(n, **kw).factors
    except FactorBoundExceeded as e:
        return str(e)


def accepted(n: int) -> Reception:
    """A reception that heard ``n`` and accepted it."""
    return Reception(0, [], Decimal(0), Decimal(n), n, Decimal(0), None)


def factor_with(n: int, pairs):
    """``fullduplex.factor`` of ``n`` with the column of (prime, exponent) ``pairs``.

    The exponent map's factors, or the failure code.
    """
    pairs = list(pairs)
    logs = integer_logs([p for p, _ in pairs], PrecisionContext(16))
    r = fullduplex.factor(accepted(n), logs.near([e for _, e in pairs]))
    if r.failure is not None:
        return r.failure
    assert r.recovered == radical(r.exponent_map)
    return r.exponent_map.factors


class TestKnownPrimes:
    """A receiver's column, the primes it knows, changes the factor step's
    cost, never its result: ``fullduplex.factor`` with the column's ``Near``
    returns what ``factorize`` returns."""

    def test_random_products_with_their_own_primes(self):
        rng = random.Random(29)
        small = sieve(SMOOTH_BOUND)
        for _ in range(60):
            primes = rng.sample(small, rng.randrange(1, 14))
            picks = {p: rng.randrange(1, 9) for p in primes}
            n, recipe = factor_oracle(picks)
            part = rng.sample(sorted(picks.items()), rng.randrange(0, len(primes)))
            assert factor_with(n, picks.items()) == factor_with(n, part) == recipe
            assert factorize(n).factors == recipe

    @pytest.mark.parametrize("large", [100_003, 1_000_003, 9_999_991])
    def test_one_prime_above_the_bound(self, large):
        picks = {3: 2, 65_537: 5, 99_991: 1, large: 2}
        n, recipe = factor_oracle(picks)
        assert factor_with(n, picks.items()) == recipe
        assert factor_with(n, [(large, 2)]) == recipe

    @pytest.mark.parametrize(
        "known",
        [
            [13, 7, 1_000_003, 11],  # every prime of n, unsorted
            [7, 7, 13, 7],  # duplicates
            [17, 99_989, 2],  # primes that do not divide n
            [1_000_003, 100_003],  # primes above the bound
            [2, 7, 11, 99_989, 13, 1_000_003, 17],  # all at once
        ],
    )
    def test_entries_that_are_not_factors_are_ignored(self, known):
        n, recipe = factor_oracle({7: 3, 11: 1, 13: 2, 1_000_003: 1})
        assert factor_with(n, [(p, 1) for p in known]) == recipe

    def test_budget_failure_keeps_its_message(self, monkeypatch):
        p, q = 1_000_003, 9_999_991
        picks = {2: 3, 11: 1, 65_537: 2, 99_991: 1, p: 1, q: 1}
        n, _ = factor_oracle(picks)
        bare = factor_or_message(n, rho_effort=10)
        assert "resisted the rho effort budget" in bare
        messages = []

        def tight(m):
            try:
                return factorize(m, rho_effort=10)
            except FactorBoundExceeded as e:
                messages.append(str(e))
                raise

        monkeypatch.setattr(fullduplex, "factorize", tight)
        # the column of every prime multiplies out to n, but two of its
        # primes lie above the bound, so it is not taken as the map
        small = [(2, 3), (11, 1), (65_537, 2), (99_991, 1)]
        columns = [small, picks.items(), [(13, 1)]]
        for pairs in columns:
            assert factor_with(n, pairs) == "factor-bound-exceeded"
        assert messages == [bare] * len(columns)
