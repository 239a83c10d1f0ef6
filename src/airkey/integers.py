"""Exact integer machinery: probable primes, factorization, radicals.

Recovery needs a general-purpose (desk-scale) factorizer.  Small factors
are found with one gcd against the cached product of all primes up to a
bound: the gcd is the product of those that divide the input, and one
walk over the sieve (:func:`_prime_powers`) names them, each divided out
at its full power.  The same walk over the primes below 1009 factors the
neighbour :func:`smooth_neighbour` finds for the log kernel of
:mod:`airkey.arith`.  Whatever survives goes to Brent's variant of
Pollard's rho under an explicit effort budget.  An integer whose primes
are all up to the bound is factored by the gcd alone and never fails, so
a caller holding prime powers that multiply out to it holds, by unique
factorization, the map :func:`factorize` would return (the legitimate
full-duplex receiver's column does).

Primality starts with one gcd against the product of the 168 primes below
1009.  Every composite below 1009**2 has a prime factor below 1009, so that
gcd alone decides every n < 1009**2 exactly: a shared factor means
composite, none means prime.  From 1009**2 on a shared factor still means
composite, and otherwise Miller-Rabin decides, with the fewest prime bases
proven exact for the candidate's size, and random bases only beyond about
3.3e24.  Prime sampling draws its candidates with the ``getrandbits`` calls
that ``randrange`` over the digit range makes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache

from .errors import FactorBoundExceeded

# Miller-Rabin with the first k prime bases is exact below psi_k, the least
# composite that passes all k (OEIS A014233); each entry is (psi_k, k) for
# the k that first raises the bound.  psi_1 = 2 047 is left out: below
# 1009**2 primality is decided before Miller-Rabin runs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_RANDOM_ROUNDS = 32  # error probability <= 4**-32 = 2**-64

# Primes up to this bound are found by one gcd before rho runs.
SMOOTH_BOUND = 100_000
DEFAULT_RHO_EFFORT = 2_000_000


def sieve(bound: int) -> list[int]:
    """All primes <= bound, by Eratosthenes."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


# Every composite below _GCD_BOUND**2 has a prime factor below _GCD_BOUND, so
# one gcd against the product of those primes decides primality there.
_GCD_BOUND = 1009
_GCD_PRIMES = frozenset(sieve(_GCD_BOUND - 1))
_GCD_PRODUCT = math.prod(_GCD_PRIMES)
_GCD_SQUARES = [(p, p * p) for p in sorted(_GCD_PRIMES)]


def _mr_composite(n: int, bases) -> bool:
    """True if a base in ``bases``, each in [2, n - 2], proves odd ``n`` composite."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Exact below psi_13 ~ 3.3e24, 32 random Miller-Rabin rounds above.

    Below 1009 it is a lookup.  Otherwise one gcd with the product of the
    primes below 1009 finds any factor among them, and below 1009**2 =
    1 018 081 a value with none is prime.  From there Miller-Rabin runs, below
    psi_13 with the shortest prefix of ``_MR_BASES`` proven exact below
    ``n`` (``_MR_EXACT_BELOW``): bases 2 and 3 below 1 373 653, all 13 only
    from psi_12 ~ 3.2e23 on.
    """
    if n < _GCD_BOUND:
        return n in _GCD_PRIMES
    if math.gcd(n, _GCD_PRODUCT) != 1:
        return False
    if n < _GCD_BOUND * _GCD_BOUND:
        return True
    for bound, k in _MR_EXACT_BELOW:
        if n < bound:
            return not _mr_composite(n, _MR_BASES[:k])
    rng = random.Random(n)
    return not _mr_composite(
        n, (rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    )


@dataclass(frozen=True)
class PrimeInput:
    """A user's secret prime."""

    value: int

    def __post_init__(self):
        if not is_probable_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    @classmethod
    def _tested(cls, value: int) -> "PrimeInput":
        """Build from a value the caller has already drawn and tested."""
        p = object.__new__(cls)
        object.__setattr__(p, "value", value)
        return p


def sample_prime(digit_count: int, rng: random.Random) -> PrimeInput:
    """Uniform probable prime with exactly ``digit_count`` decimal digits.

    Rejection sampling keeps the draw uniform over the primes in range and
    deterministic for a given generator state.  Each candidate is ``lo +
    r``, with ``r = rng.getrandbits(k)`` redrawn while it is not below the
    range's width: the calls ``rng.randrange(lo, hi + 1)`` makes, so the
    candidates are ``randrange``'s, without its per-call overhead.
    """
    if digit_count < 1:
        raise ValueError("digit_count must be positive")
    lo = 10 ** (digit_count - 1)
    width = 10**digit_count - lo
    k = width.bit_length()
    getrandbits = rng.getrandbits
    while True:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        if is_probable_prime(lo + r):
            return PrimeInput._tested(lo + r)


# Primes with exactly d decimal digits, d = 1..8; from 9 digits on there
# are more than 45 million.
_PRIME_COUNT = {
    1: 4, 2: 21, 3: 143, 4: 1061, 5: 8363, 6: 68906, 7: 586081, 8: 5096876
}


def check_prime_supply(n: int, digit_count: int) -> None:
    """Raise ValueError when fewer than ``n`` primes have ``digit_count`` digits."""
    available = _PRIME_COUNT.get(digit_count)
    if available is not None and n > available:
        raise ValueError(f"only {available} primes have {digit_count} digits")


def sample_distinct_primes(
    n: int, digit_count: int, rng: random.Random
) -> tuple[list[PrimeInput], int]:
    """``n`` distinct primes; returns (primes, collision count).

    Raises ValueError at once when fewer than ``n`` such primes exist,
    where drawing could never finish.
    """
    check_prime_supply(n, digit_count)
    seen: set[int] = set()
    out: list[PrimeInput] = []
    collisions = 0
    while len(out) < n:
        p = sample_prime(digit_count, rng)
        if p.value in seen:
            collisions += 1
            continue
        seen.add(p.value)
        out.append(p)
    return out, collisions


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization, sorted ascending by prime."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("factors must be distinct and sorted ascending")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be positive")

    def value(self) -> int:
        return math.prod(p**e for p, e in self.factors)

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def to_text(self) -> str:
        return " * ".join(f"{p}^{e}" for p, e in self.factors)


def radical(f: Factorization) -> int:
    """Product of the distinct primes of ``f``."""
    return math.prod(f.primes())


def smooth_neighbour(m: int) -> tuple[int, list[tuple[int, int]]]:
    """The integer s nearest ``m`` >= 1 whose primes all lie below 1009.

    Returns s and its prime powers; the lower one wins a tie.  A candidate
    is tested by gcds with the product of those primes: the first is the
    product g of the ones that divide it, and each next one divides out
    the primes it still shares with the candidate, which qualifies when
    nothing is left.  Only the chosen s is factored, by the walk over its g.
    """
    s, d = m, 0
    while True:
        rest, shared = s, math.gcd(s, _GCD_PRODUCT)
        g = shared
        while g > 1:
            rest //= g
            g = math.gcd(rest, g)
        if rest == 1:
            return s, _prime_powers(s, shared, _GCD_SQUARES)[0]
        d = -d if d < 0 else -d - 1
        s = m + d


@cache
def _small_primes() -> tuple[list[tuple[int, int]], int]:
    """(p, p**2) for all primes p <= SMOOTH_BOUND, and their product."""
    primes = sieve(SMOOTH_BOUND)
    return [(p, p * p) for p in primes], math.prod(primes)


def _strip_small_primes(n: int) -> tuple[dict[int, int], int]:
    """Exponents of the primes up to SMOOTH_BOUND in ``n``, and the cofactor."""
    squares, product = _small_primes()
    powers, n = _prime_powers(n, math.gcd(n, product), squares)
    return dict(powers), n


def _prime_powers(n: int, g: int, squares) -> tuple[list[tuple[int, int]], int]:
    """(p, e) for each p**e exactly dividing ``n`` with p | ``g``, and the cofactor.

    ``g`` is the product of the primes of a list that divide ``n``, one gcd
    with the list's product; ``squares`` holds (p, p**2) for each prime of
    the list, ascending.  The walk divides each p of g out of g and, at its
    full power, out of n.  Once p**2 exceeds what is left of g, that is 1
    or a prime, the last one taken.
    """
    powers = []
    for p, square in squares:
        if square > g:
            if g == 1:
                break
            p = g
        elif g % p:
            continue
        g //= p
        n //= p
        e = 1
        while not n % p:
            n //= p
            e += 1
        powers.append((p, e))
    return powers, n


def _brent_rho(n: int, seed: int, budget: int) -> tuple[int, int]:
    """Brent's cycle-finding rho; returns (factor, iterations spent).

    factor == n means this parametrization failed; factor == 0 means the
    budget ran out.
    """
    y, c, m = 2 + seed, 1 + seed, 128
    g, r, q = 1, 1, 1
    spent = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(m, r - k)
            for _ in range(step):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += step
            spent += step
            if spent > budget:
                return 0, spent
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            spent += 1
            if spent > budget:
                return 0, spent
    return g, spent


def factorize(n: int, rho_effort: int = DEFAULT_RHO_EFFORT) -> Factorization:
    """Complete prime factorization of ``n`` >= 2.

    The small-prime gcd divides out every prime <= SMOOTH_BOUND at its full
    power; rho runs on the cofactor left, and not at all when that is 1.

    Raises :class:`FactorBoundExceeded` when a composite cofactor resists
    the rho effort budget (deterministic: rho parameters are fixed).
    """
    if n < 2:
        raise ValueError("factorize requires n >= 2")
    exponents, m = _strip_small_primes(n)

    # Pending chunks jointly cover every prime left in m; each discovered
    # prime is stripped from m itself, so stale chunks are harmless.
    budget = rho_effort
    pending = [m] if m > 1 else []
    while pending:
        c = math.gcd(pending.pop(), m)
        if c == 1:
            continue
        if is_probable_prime(c):
            powers, m = _prime_powers(m, c, [(c, c * c)])
            exponents.update(powers)
            continue
        factor = 0
        for seed in range(64):
            factor, spent = _brent_rho(c, seed, budget)
            budget -= spent
            if budget <= 0:
                raise FactorBoundExceeded(
                    f"cofactor {c} resisted the rho effort budget ({rho_effort})"
                )
            if factor not in (0, c):
                break
        if factor in (0, c):
            raise FactorBoundExceeded(f"could not split cofactor {c}")
        pending.append(factor)
        pending.append(c // factor)
    if m != 1:
        raise FactorBoundExceeded(f"unfactored cofactor {m} remains")
    result = Factorization(tuple(sorted(exponents.items())))
    assert result.value() == n
    return result
