import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce import atlas, cli, intmath
from symreduce.errors import DomainError
from symreduce.intmath import (
    divisors,
    factorize,
    int_nth_root,
    is_prime,
    odd_part,
    prime_power_parts,
    prime_power_triples,
    prime_power_triples_upto,
    prime_powers_upto,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(1009)
    assert not is_prime(1007)  # 19 * 53
    assert is_prime(104729)
    assert not is_prime(104730)


def test_prime_power_parts():
    assert prime_power_parts(8) == (2, 3)
    assert prime_power_parts(9) == (3, 2)
    assert prime_power_parts(1024) == (2, 10)
    assert prime_power_parts(7) == (7, 1)
    assert prime_power_parts(1) is None
    assert prime_power_parts(6) is None
    assert prime_power_parts(12) is None
    assert prime_power_parts(2401) == (7, 4)


def test_prime_powers_upto():
    assert prime_powers_upto(10) == [2, 3, 4, 5, 7, 8, 9]
    assert prime_powers_upto(1) == []
    got = prime_powers_upto(32)
    assert got == sorted(got)
    assert 16 in got and 25 in got and 27 in got and 32 in got
    assert 6 not in got and 12 not in got


def test_prime_power_triples_upto_carries_parts():
    # Past 7,368, the largest limit a cold catalog walk at 10^11 sieves to,
    # so the higher powers merged among the primes are checked there too.
    triples = prime_power_triples_upto(10**5)
    assert [q for q, _, _ in triples] == [q for q in range(10**5 + 1) if prime_power_parts(q)]
    for q, p, f in triples:
        assert prime_power_parts(q) == (p, f)
    assert prime_power_triples_upto(1) == []
    assert prime_powers_upto(10**5) == [q for q, _, _ in triples]


def test_bounded_prime_power_streams_grow_the_table_straight_to_q_max(monkeypatch):
    # A stream with a q_max past the table's limit sieves once, to exactly
    # q_max, and reads the rows of the sieve to q_max.
    monkeypatch.setattr(intmath, "_TABLE", intmath._PrimePowerTable())
    table = intmath._TABLE
    for q_max, limit in [(7368, 7368), (100, 7368), (7369, 7369), (1, 7369)]:
        assert list(prime_power_triples(q_max)) == prime_power_triples_upto(q_max)
        assert table.limit == limit
    assert table.rows == prime_power_triples_upto(7369)
    assert list(prime_power_triples(64))[-1] == (64, 2, 6)
    # A stream opened before a growth still reads its own rows.
    stream = prime_power_triples(8000)
    next(stream)
    prime_power_triples(9000)
    assert [(2, 2, 1), *stream] == prime_power_triples_upto(8000)


# The largest q of each command, which it asks of the table first.
_FIRST_Q = {
    "reduce": 341,
    "atlas scan": 63,
    "atlas catalog --catalog-bound 1000000000000": 15874,
    "diagonal scan --catalog-bound 100000000000": 7368,
}


@pytest.mark.parametrize("command", sorted(_FIRST_Q))
def test_each_command_sieves_once_to_the_first_q_it_asks(monkeypatch, capsys, command):
    # A fresh table and a certified region not yet computed, as in a new
    # process; the table grows to exactly the q asked, so a command that
    # asked a smaller q first would sieve twice.
    monkeypatch.setattr(intmath, "_TABLE", intmath._PrimePowerTable())
    atlas._certified_region.cache_clear()
    sieve, limits = intmath.prime_power_triples_upto, []
    monkeypatch.setattr(intmath, "prime_power_triples_upto", lambda limit: limits.append(limit) or sieve(limit))
    cli.main(command.split())
    capsys.readouterr()
    assert limits == [_FIRST_Q[command]]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(7) == [1, 7]


def test_divisors_large():
    # (5!)**4 * 4!, the m = 4 stabilizer order at v0 = 6
    n = 4976640000
    ds = divisors(n)
    assert ds == sorted(ds)
    assert all(n % d == 0 for d in ds)
    assert 400 in ds and 405 in ds and 432 in ds


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(7, 2) == 2
    assert int_nth_root(8, 3) == 2
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(10**24, 12) == 100


def test_int_nth_root_huge():
    x = 12345**37
    assert int_nth_root(x, 37) == 12345
    assert int_nth_root(x - 1, 37) == 12344


def test_odd_part():
    assert odd_part(1) == 1
    assert odd_part(2) == 1
    assert odd_part(12) == 3
    assert odd_part(81) == 81
    assert odd_part(20736) == 81  # 12**4
    assert odd_part(math.factorial(4) ** 4) == 81
    assert odd_part(math.factorial(5) ** 4) == 50625
    assert odd_part(math.factorial(6) ** 4) == 4100625


@given(st.integers(min_value=1, max_value=10**9))
def test_odd_part_properties(x):
    o = odd_part(x)
    assert o % 2 == 1
    assert x % o == 0
    q = x // o
    assert q & (q - 1) == 0  # power of two


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=2, max_value=8))
def test_int_nth_root_floor(x, n):
    r = int_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


@given(st.integers(min_value=1, max_value=10**5))
def test_divisors_complete(n):
    ds = divisors(n)
    assert ds == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize(
    "function, args, message",
    [(int_nth_root, (-1, 2), "x must be >= 0 and n >= 1"), (odd_part, (0,), "x must be positive")],
)
def test_guards_reject_out_of_domain_input(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-4)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(104729) == {104729: 1}
    for n in range(1, 3000):
        parts = factorize(n)
        assert math.prod(p**e for p, e in parts.items()) == n
        assert all(is_prime(p) and e >= 1 for p, e in parts.items())
    with pytest.raises(ValueError):
        factorize(0)


# is_prime, prime_power_parts and factorize share one trial division, so each
# is checked against sympy rather than against the others.
SYMPY_LARGE = [999999999989, 999983 * 999979, 2**39]


def test_trial_division_matches_sympy():
    from sympy import factorint, isprime

    for n in [*range(1, 20_001), *SYMPY_LARGE]:
        expected = factorint(n)
        assert is_prime(n) == isprime(n), n
        assert prime_power_parts(n) == (next(iter(expected.items())) if len(expected) == 1 else None), n
        assert factorize(n) == expected, n


def test_trial_division_stops_at_the_limit():
    limit = intmath.TRIAL_DIVISION_LIMIT
    assert limit == 10**12
    assert is_prime(999999999989) and factorize(999999999989) == {999999999989: 1}
    # Above the limit a number is factored only as far as its prime
    # factors up to 10^6 go.
    assert prime_power_parts(2**50) == (2, 50)
    assert prime_power_parts(999983**3) == (999983, 3)
    assert factorize(2**50 * 999983) == {2: 50, 999983: 1}
    assert prime_power_parts(6 * (10**20 + 39)) is None
    for n in (limit + 39, 10**20 + 39, 1000003**2, 6 * (10**20 + 39)):
        with pytest.raises(DomainError, match=f"up to {limit}$"):
            factorize(n)
    for n in (limit + 39, 10**20 + 39, 1000003**2):
        for ask in (is_prime, prime_power_parts):
            with pytest.raises(DomainError, match=f"up to {limit}$"):
                ask(n)
