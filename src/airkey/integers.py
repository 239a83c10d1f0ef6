"""Exact integer machinery: probable primes, factorization, radicals.

Recovery needs a general-purpose (desk-scale) factorizer.  A caller may
name primes it expects (the legitimate full-duplex receiver names the
exchange's primes); those below a bound are divided out first.  Small
factors left are stripped with batched trial division: a gcd against each
subtree of a cached product tree of all primes below the bound, which is
orders of magnitude faster than dividing one prime at a time on 400-digit
inputs.  Each prime found is divided out at once, so the cofactor the later
subtrees are reduced modulo shrinks, and the walk ends when it reaches 1.
Whatever survives goes to Brent's variant of Pollard's rho under an explicit
effort budget.  The tree finds every prime below the bound at its full
power, so by unique factorization the named primes change the cost, never
the result.

Primality is Miller-Rabin with the fewest prime bases proven exact for the
candidate's size, and random bases only beyond about 3.3e24.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache

from .errors import FactorBoundExceeded

# Miller-Rabin with the first k prime bases is exact below psi_k, the least
# composite that passes all k (OEIS A014233); each entry is (psi_k, k) for
# the k that first raises the bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = (
    (2_047, 1),
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

# Primes up to this bound are found by batched gcd before rho runs.
SMOOTH_BOUND = 100_000
DEFAULT_RHO_EFFORT = 2_000_000
# Levels between the product tree's root and the subtrees factorize starts at.
_FOREST_DEPTH = 4


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
    """Miller-Rabin, exact below psi_13 ~ 3.3e24, 32 random rounds above.

    Below psi_13 it runs the shortest prefix of ``_MR_BASES`` proven exact
    below ``n`` (``_MR_EXACT_BELOW``): base 2 alone below 2 047, bases 2
    and 3 below 1 373 653, all 13 only from psi_12 ~ 3.2e23 on.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
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
    deterministic for a given generator state.
    """
    if digit_count < 1:
        raise ValueError("digit_count must be positive")
    lo = 10 ** (digit_count - 1)
    hi = 10**digit_count - 1
    while True:
        candidate = rng.randrange(lo, hi + 1)
        if is_probable_prime(candidate):
            return PrimeInput._tested(candidate)


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

    @classmethod
    def from_map(cls, exponents: dict[int, int]) -> "Factorization":
        return cls(tuple(sorted(exponents.items())))

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def to_text(self) -> str:
        return " * ".join(f"{p}^{e}" for p, e in self.factors)


def radical(f: Factorization) -> int:
    """Product of the distinct primes of ``f``."""
    out = 1
    for p in f.primes():
        out *= p
    return out


@cache
def _prime_product_tree() -> tuple[list[list[int]], frozenset[int]]:
    """Product tree over all primes <= SMOOTH_BOUND, and the set of them.

    levels[0] are the primes.
    """
    level = sieve(SMOOTH_BOUND)
    levels = [level]
    while len(level) > 1:
        nxt = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        levels.append(nxt)
        level = nxt
    return levels, frozenset(levels[0])


def _collect_tree_primes(levels, primes, level_idx, node_idx, d, out):
    """Descend the product tree collecting the primes dividing ``d``.

    ``d`` > 1 is the product of the node's primes that divide the input
    (squarefree, since the tree's primes are distinct).  Once it is a single
    prime the descent stops; otherwise one gcd with the left child splits it
    between the two children.
    """
    if d in primes:
        out.append(d)
        return
    below = levels[level_idx - 1]
    left = 2 * node_idx
    if left + 1 == len(below):  # an odd node carried up unchanged
        _collect_tree_primes(levels, primes, level_idx - 1, left, d, out)
        return
    node = below[left]
    d_left = math.gcd(d, node % d if node >= d else node)
    if d_left > 1:
        _collect_tree_primes(levels, primes, level_idx - 1, left, d_left, out)
    if d_left < d:
        _collect_tree_primes(levels, primes, level_idx - 1, left + 1, d // d_left, out)


def _strip_small_primes(n: int) -> tuple[dict[int, int], int]:
    """Exponents of the primes up to SMOOTH_BOUND in ``n``, and the cofactor.

    The gcd is taken at the subtrees ``_FOREST_DEPTH`` levels below the
    root rather than at the root: it costs the same there, and the descent
    then starts from much smaller nodes.  The subtrees are visited from the
    largest primes down, each prime found is divided out at its full power
    at once, so every later subtree is reduced modulo a smaller cofactor,
    and the walk stops when the cofactor is 1.
    """
    levels, primes = _prime_product_tree()
    top = max(len(levels) - 1 - _FOREST_DEPTH, 0)
    exponents: dict[int, int] = {}
    for idx in reversed(range(len(levels[top]))):
        if n == 1:
            break
        node = levels[top][idx]
        g = math.gcd(n, node % n if node >= n else node)
        if g == 1:
            continue
        found: list[int] = []
        _collect_tree_primes(levels, primes, top, idx, g, found)
        for p in found:
            n, exponents[p] = _divide_out(n, p)
    return exponents, n


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """``n`` with every factor ``p`` divided out, and how many there were."""
    e = 0
    q, r = divmod(n, p)
    while not r:
        n, e = q, e + 1
        q, r = divmod(n, p)
    return n, e


def _brent_rho(n: int, seed: int, budget: int) -> tuple[int, int]:
    """Brent's cycle-finding rho; returns (factor, iterations spent).

    factor == n means this parametrization failed; factor == 0 means the
    budget ran out.
    """
    if n % 2 == 0:
        return 2, 0
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


def factorize(
    n: int, rho_effort: int = DEFAULT_RHO_EFFORT, known: Iterable[int] = ()
) -> Factorization:
    """Complete prime factorization of ``n`` >= 2.

    Each entry of ``known`` that is a prime <= SMOOTH_BOUND is divided out
    first; every other entry is ignored.  The product tree and rho then run
    on what is left, and not at all when that is 1.  Since the tree finds
    every prime <= SMOOTH_BOUND at its full power, the hints leave the
    result, the cofactor rho sees and every failure unchanged.

    Raises :class:`FactorBoundExceeded` when a composite cofactor resists
    the rho effort budget (deterministic: rho parameters are fixed).
    """
    if n < 2:
        raise ValueError("factorize requires n >= 2")
    exponents: dict[int, int] = {}
    m = n
    for p in known:
        if p <= SMOOTH_BOUND and is_probable_prime(p):
            m, e = _divide_out(m, p)
            if e:
                exponents[p] = e
    if m > 1:
        small, m = _strip_small_primes(m)
        exponents.update(small)

    # Pending chunks jointly cover every prime left in m; each discovered
    # prime is stripped from m itself, so stale chunks are harmless.
    budget = rho_effort
    pending = [m] if m > 1 else []
    while pending:
        c = math.gcd(pending.pop(), m)
        if c == 1:
            continue
        if is_probable_prime(c):
            m, exponents[c] = _divide_out(m, c)
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
    result = Factorization.from_map(exponents)
    assert result.value() == n
    return result
