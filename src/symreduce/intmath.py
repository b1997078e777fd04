"""Exact integer helpers.

Everything in this module works on Python ints with no floating point, so the
rest of the package can compare huge group orders and root bounds exactly.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import compress, islice
from math import isqrt
from operator import itemgetter

from .errors import DomainError

# Trial division runs up to the square root of this bound, 10^6, so it
# factors every n up to the bound, and a larger n only as far as its prime
# factors below 10^6 go.  design's Bruck-Ryser-Chowla test shares it.
TRIAL_DIVISION_LIMIT = 10**12


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division by 2, 3 and then
    the 6k - 1 and 6k + 1 up to sqrt(n): about sqrt(n)/3 steps when n is
    prime.  prime_power_parts and factorize ask it, and is_prime asks
    prime_power_parts.  Raises DomainError when n exceeds
    TRIAL_DIVISION_LIMIT and has no prime factor up to that bound's square
    root."""
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    i, stop = 5, isqrt(min(n, TRIAL_DIVISION_LIMIT))
    while i <= stop:
        if n % i == 0:
            return i
        if n % (i + 2) == 0:
            return i + 2
        i += 6
    if n > TRIAL_DIVISION_LIMIT:
        raise DomainError(
            f"{n} has no prime factor up to {stop}, and trial division "
            f"factors only numbers up to {TRIAL_DIVISION_LIMIT}"
        )
    return n


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division.  Callers pass the
    characteristic p of an identifier being validated.  The catalog and the
    scans take (q, p, f) from prime_power_triples and never factor q."""
    return prime_power_parts(n) == (n, 1)


@lru_cache(maxsize=64)
def prime_power_parts(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q == p**f and p prime, or None if q is not a prime
    power.  q = 1 is not a prime power.  A q above TRIAL_DIVISION_LIMIT with
    no prime factor up to 10^6 raises DomainError.

    The recent answers are kept, and is_prime asks through them, so a prime
    q that atlas.lie has factored is not divided again when the id is
    validated by is_prime(p)."""
    if q < 2:
        return None
    p = _least_prime_factor(q)
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    return (p, f) if q == 1 else None


def prime_power_triples_upto(limit: int) -> list[tuple[int, int, int]]:
    """(q, p, f) with q = p**f <= limit, p prime and f >= 1, ascending in q."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    out = [(p, p, 1) for p in compress(range(limit + 1), sieve)]
    # Only a prime p <= sqrt(limit) has a square up to limit.
    for p in compress(range(isqrt(limit) + 1), sieve):
        q, f = p * p, 2
        while q <= limit:
            out.append((q, p, f))
            q *= p
            f += 1
    # Each q is a power of one prime, so no two rows share a q and q alone
    # orders them.
    out.sort(key=itemgetter(0))
    return out


class _PrimePowerTable:
    """(q, p, f) for every prime power q <= limit, ascending in q."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, int]] = []
        self.limit = 0

    def grow(self, limit: int) -> None:
        """Sieve once, up to limit.  A stream already reading the old rows
        keeps them."""
        self.rows = prime_power_triples_upto(limit)
        self.limit = limit


# The one table per process behind every prime_power_triples stream.
_TABLE = _PrimePowerTable()


def prime_power_triples(q_max: int):
    """(q, p, f) for every prime power q <= q_max, ascending in q.  Every
    stream reads the one shared table.  A stream with a q_max past the
    table's limit sieves it again, to exactly q_max.  Each command asks for
    its largest q first, so it sieves once."""
    table = _TABLE
    if q_max > table.limit:
        table.grow(q_max)
    # (q_max + 1,) sorts after every row with q <= q_max and before the rest.
    return islice(table.rows, bisect_left(table.rows, (q_max + 1,)))


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers p**f <= limit (f >= 1), ascending."""
    return [q for q, _, _ in prime_power_triples_upto(limit)]


def factorize(n: int) -> dict[int, int]:
    """{p: e} with n the product of p**e over primes p, by trial division
    (n >= 1).  It takes about sqrt(n)/3 steps; design's Bruck-Ryser-Chowla
    test, the one caller, bounds n by TRIAL_DIVISION_LIMIT."""
    if n < 1:
        raise ValueError("n must be positive")
    parts = {}
    while n > 1:
        p = _least_prime_factor(n)
        parts[p] = 0
        while n % p == 0:
            parts[p] += 1
            n //= p
    return parts


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, exactly."""
    if x < 0 or n < 1:
        raise ValueError("x must be >= 0 and n >= 1")
    if x < 2 or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    # Binary search; hi from the bit length avoids float overflow on very
    # large x: root < 2**ceil(bit_length/n) <= hi.
    hi = 1 << (x.bit_length() // n + 1)
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def odd_part(x: int) -> int:
    """Largest odd divisor of x (x > 0)."""
    if x < 1:
        raise ValueError("x must be positive")
    return x // (x & -x)
