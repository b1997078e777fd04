import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce import atlas, intmath
from symreduce.atlas import (
    Family,
    SimpleGroupId,
    alternating,
    display_name,
    enumerate_catalog,
    facts,
    lie,
    order,
    out4_scan,
    out_order,
    parse_group,
    sporadic,
    tits,
)
from symreduce.errors import DomainError
from symreduce.intmath import int_nth_root, prime_power_triples_upto

from . import oracles

# Orders cross-checked against standard published tables.
ORDER_ANCHORS = [
    ("A5", 60),
    ("A6", 360),
    ("A7", 2520),
    ("A8", 20160),
    ("L2(7)", 168),
    ("L2(8)", 504),
    ("L2(11)", 660),
    ("L3(3)", 5616),
    ("L3(4)", 20160),
    ("L5(2)", 9999360),
    ("U3(3)", 6048),
    ("U3(4)", 62400),
    ("U4(2)", 25920),
    ("S6(2)", 1451520),
    ("O7(3)", 4585351680),
    ("O+8(2)", 174182400),
    ("O-8(2)", 197406720),
    ("G2(3)", 4245696),
    ("G2(4)", 251596800),
    ("2B2(8)", 29120),
    ("2B2(32)", 32537600),
    ("2G2(27)", 10073444472),
    ("3D4(2)", 211341312),
    ("F4(2)", 3311126603366400),
    ("2F4(2)'", 17971200),
    ("M11", 7920),
    ("M12", 95040),
    ("M24", 244823040),
    ("J2", 604800),
]

OUT_ANCHORS = [
    ("A5", 2),
    ("A6", 4),
    ("A7", 2),
    ("L2(7)", 2),
    ("L2(8)", 3),
    ("L2(9)", 4),
    ("L3(4)", 12),
    ("L4(3)", 4),
    ("U3(3)", 2),
    ("U4(3)", 8),
    ("U6(2)", 6),
    ("S4(4)", 4),
    ("S6(2)", 1),
    ("O7(3)", 2),
    ("O+8(2)", 6),
    ("O+8(3)", 24),
    ("O-10(2)", 2),
    ("G2(3)", 2),
    ("G2(4)", 2),
    ("F4(2)", 2),
    ("2E6(2)", 6),
    ("3D4(2)", 3),
    ("2B2(8)", 3),
    ("2G2(27)", 3),
    ("E6(2)", 2),
    ("E7(2)", 1),
    ("E8(2)", 1),
    ("M12", 2),
    ("M24", 1),
    ("2F4(2)'", 2),
]


@pytest.mark.parametrize("name,expected", ORDER_ANCHORS)
def test_order_anchors(name, expected):
    assert order(parse_group(name)) == expected


@pytest.mark.parametrize("name,expected", OUT_ANCHORS)
def test_out_anchors(name, expected):
    assert out_order(parse_group(name)) == expected


def test_same_order_different_groups():
    a8 = parse_group("A8")
    l34 = parse_group("L3(4)")
    assert a8 != l34
    assert order(a8) == order(l34) == 20160


def test_aliases_canonicalize():
    assert parse_group("L2(4)") == parse_group("A5")
    assert parse_group("L2(5)") == parse_group("A5")
    assert parse_group("L2(9)") == parse_group("A6")
    assert parse_group("L4(2)") == parse_group("A8")
    assert parse_group("L3(2)") == parse_group("L2(7)")
    assert parse_group("S4(3)") == parse_group("U4(2)")
    assert lie(Family.LINEAR, 2, 4) == alternating(5)
    assert lie(Family.SYMPLECTIC, 4, 3) == lie(Family.UNITARY, 4, 2)


@pytest.mark.parametrize("raw", list(atlas._ALIASES), ids=display_name)
def test_each_alias_names_the_same_group(raw):
    # The catalog drops each key, so its value must be the same group,
    # with the same |T| and |Out(T)|, and lie must resolve the key to it.
    canonical = atlas._ALIASES[raw]
    assert facts(raw) == facts(canonical)
    assert lie(raw.family, raw.n, raw.q) == canonical
    assert canonical not in atlas._ALIASES


def test_a_parsed_q_is_trial_divided_once(monkeypatch):
    # lie factors q; validating the id then asks is_prime(p) of the same
    # prime, which must not walk the trial division again.
    intmath.prime_power_parts.cache_clear()
    walks = []
    walk = intmath._least_prime_factor
    monkeypatch.setattr(intmath, "_least_prime_factor", lambda n: walks.append(n) or walk(n))
    g = parse_group("L2(999999999989)")
    assert (order(g), out_order(g)) == facts(g)
    assert walks == [999999999989]


def test_display_names():
    assert display_name(alternating(5)) == "A5"
    assert display_name(lie(Family.LINEAR, 3, 4)) == "L3(4)"
    assert display_name(lie(Family.ORTHOGONAL_PLUS, 8, 2)) == "O+8(2)"
    assert display_name(lie(Family.ORTHOGONAL_MINUS, 8, 2)) == "O-8(2)"
    assert display_name(lie(Family.SUZUKI, 0, 8)) == "2B2(8)"
    assert display_name(lie(Family.REE_G2, 0, 27)) == "2G2(27)"
    assert display_name(lie(Family.STEINBERG_3D4, 0, 2)) == "3D4(2)"
    assert display_name(tits()) == "2F4(2)'"
    assert display_name(sporadic("M11")) == "M11"


def test_parse_display_roundtrip():
    names = [n for n, _ in ORDER_ANCHORS]
    for name in names:
        gid = parse_group(name)
        # Aliases parse to a canonical group; everything in the anchor
        # table is already canonical.
        assert display_name(gid) == name


def test_parse_rejects_junk():
    for bad in ["A4", "L1(5)", "L2(2)", "L2(3)", "L2(6)", "U2(3)", "U3(2)",
                "S4(2)", "S3(3)", "O5(3)", "O6(3)", "O+6(2)", "O-7(3)",
                "G2(2)", "2B2(4)", "2B2(16)", "2G2(3)", "2G2(9)", "2F4(4)",
                "X3(2)", "A", "", "L3", "M99", "E62(3)", "L(4)", "G23(4)", "2B23(8)"]:
        with pytest.raises(DomainError):
            parse_group(bad)


def _parse_outcome(parse, word):
    try:
        return parse(word)
    except DomainError as exc:
        return str(exc)


def test_parse_group_reads_the_words_its_patterns_read():
    names = oracles.catalog_names()
    assert len(names) > 250
    for word in names + oracles.WORDS:
        assert _parse_outcome(parse_group, word) == _parse_outcome(oracles.parse_group_by_regex, word), word


_NAME_PIECES = ["A", "L", "O", "O+", "G2", "2B2", "E6", "M11", "(", ")", "2", "3", "8", "٨", "²", "\n", " ", "x"]


@given(st.lists(st.sampled_from(_NAME_PIECES), max_size=7).map("".join))
def test_parse_group_agrees_with_its_patterns_on_generated_words(word):
    assert _parse_outcome(parse_group, word) == _parse_outcome(oracles.parse_group_by_regex, word)


def test_lie_display_parse_roundtrip():
    # Over every Lie family of the grid, raw cells such as L2(4) included.
    families = set()
    for fam, n, q, _ in oracles.out4_grid(12, 64):
        gid = lie(fam, n, q)
        assert parse_group(display_name(gid)) == gid, (fam, n, q)
        families.add(fam)
    assert families == set(atlas._SYMBOL)


@pytest.mark.parametrize("fam, name", [(Family.E6, "E62(3)"), (Family.G2, "G22(3)")])
def test_exceptional_id_with_n_is_named_with_n(fam, name):
    # E6(3) and G2(3) are simple; only the n = 2 makes these ids invalid, so
    # the error must not name the valid group.
    message = f"^{re.escape(name)} is outside its family's domain$"
    with pytest.raises(DomainError, match=message):
        lie(fam, 2, 3)
    with pytest.raises(DomainError, match=message):
        order(SimpleGroupId(fam, n=2, p=3, f=1))


def test_classical_families_are_the_textbook_ones():
    # atlas derives them as the Lie-type families with no exceptional order datum.
    assert atlas._CLASSICAL_FAMILIES == set(oracles._CLASSICAL)


def test_lie_rejects_other_families():
    with pytest.raises(DomainError, match="not a Lie-type family"):
        lie(Family.ALTERNATING, 5, 2)


def test_constructor_domains():
    with pytest.raises(DomainError):
        alternating(4)
    with pytest.raises(DomainError):
        lie(Family.LINEAR, 2, 2)
    with pytest.raises(DomainError):
        lie(Family.LINEAR, 2, 3)
    with pytest.raises(DomainError):
        lie(Family.LINEAR, 2, 6)  # not a prime power
    with pytest.raises(DomainError):
        lie(Family.UNITARY, 3, 2)
    with pytest.raises(DomainError):
        lie(Family.SYMPLECTIC, 4, 2)
    with pytest.raises(DomainError):
        lie(Family.SYMPLECTIC, 5, 3)  # odd dimension
    with pytest.raises(DomainError):
        lie(Family.ORTHOGONAL_ODD, 7, 2)  # q must be odd
    with pytest.raises(DomainError):
        lie(Family.ORTHOGONAL_ODD, 5, 3)
    with pytest.raises(DomainError):
        lie(Family.ORTHOGONAL_PLUS, 6, 2)
    with pytest.raises(DomainError):
        lie(Family.G2, 0, 2)  # has a normal subgroup of index 2
    with pytest.raises(DomainError):
        lie(Family.SUZUKI, 0, 2)
    with pytest.raises(DomainError):
        lie(Family.SUZUKI, 0, 16)  # even exponent
    with pytest.raises(DomainError):
        lie(Family.REE_G2, 0, 3)
    with pytest.raises(DomainError):
        lie(Family.REE_F4, 0, 2)
    with pytest.raises(DomainError):
        sporadic("Zz")


def test_g2_smallest_is_3():
    assert order(lie(Family.G2, 0, 3)) == 4245696
    assert oracles.order_floor_holds(lie(Family.G2, 0, 3))


# The orders of the 26 sporadic groups and the Tits group as the ATLAS of
# Finite Groups (Conway et al. 1985) factors them.
SPORADIC_ATLAS_ORDERS = {
    "M11": "2^4 3^2 5 11",
    "M12": "2^6 3^3 5 11",
    "M22": "2^7 3^2 5 7 11",
    "M23": "2^7 3^2 5 7 11 23",
    "M24": "2^10 3^3 5 7 11 23",
    "J1": "2^3 3 5 7 11 19",
    "J2": "2^7 3^3 5^2 7",
    "J3": "2^7 3^5 5 17 19",
    "J4": "2^21 3^3 5 7 11^3 23 29 31 37 43",
    "Co1": "2^21 3^9 5^4 7^2 11 13 23",
    "Co2": "2^18 3^6 5^3 7 11 23",
    "Co3": "2^10 3^7 5^3 7 11 23",
    "Fi22": "2^17 3^9 5^2 7 11 13",
    "Fi23": "2^18 3^13 5^2 7 11 13 17 23",
    "Fi24'": "2^21 3^16 5^2 7^3 11 13 17 23 29",
    "HS": "2^9 3^2 5^3 7 11",
    "McL": "2^7 3^6 5^3 7 11",
    "He": "2^10 3^3 5^2 7^3 17",
    "Ru": "2^14 3^3 5^3 7 13 29",
    "Suz": "2^13 3^7 5^2 7 11 13",
    "ON": "2^9 3^4 5 7^3 11 19 31",
    "HN": "2^14 3^6 5^6 7 11 19",
    "Ly": "2^8 3^7 5^6 7 11 31 37 67",
    "Th": "2^15 3^10 5^3 7^2 13 19 31",
    "B": "2^41 3^13 5^6 7^2 11 13 17 19 23 31 47",
    "M": "2^46 3^20 5^9 7^6 11^2 13^3 17 19 23 29 31 41 47 59 71",
    "2F4(2)'": "2^11 3^3 5^2 13",
}

# The sporadic groups, the Tits group among them, with |Out(T)| = 2; the
# other 14 have |Out(T)| = 1.
SPORADIC_OUT_TWO = {
    "M12", "M22", "J2", "J3", "HS", "McL", "He", "Suz", "ON", "HN", "Fi22", "Fi24'", "2F4(2)'",
}


def test_sporadic_facts_match_the_atlas():
    assert set(atlas._SPORADIC_FACTS) == set(SPORADIC_ATLAS_ORDERS)
    for name, factored in SPORADIC_ATLAS_ORDERS.items():
        powers = (token.partition("^") for token in factored.split())
        expected = math.prod(int(p) ** int(e or 1) for p, _, e in powers)
        assert facts(parse_group(name)) == (expected, 2 if name in SPORADIC_OUT_TWO else 1), name


def test_sporadic_facts_reach_parse_and_lookup(monkeypatch):
    monkeypatch.setattr(atlas, "_SPORADIC_FACTS", {"Xy1": atlas.GroupFacts(5040, 3)})
    gid = parse_group("Xy1")
    assert order(gid) == 5040
    assert out_order(gid) == 3
    with pytest.raises(DomainError):
        parse_group("M11")


def test_catalog_bound_200():
    names = [display_name(g) for g, _ in enumerate_catalog(200)]
    assert names == ["A5", "L2(7)"]


def test_catalog_bound_59():
    assert enumerate_catalog(59) == []


def test_catalog_bound_400():
    names = [display_name(g) for g, _ in enumerate_catalog(400)]
    assert names == ["A5", "L2(7)", "A6"]
    assert names.count("A6") == 1
    assert "L2(9)" not in names


def test_catalog_order_and_dedup():
    cat = enumerate_catalog(30000)
    names = [display_name(g) for g, _ in cat]
    assert len(names) == len(set(names))
    orders = [f.order for _, f in cat]
    assert orders == sorted(orders)
    # A8 and L3(4) share order 20160; family order breaks the tie
    i_a8, i_l34 = names.index("A8"), names.index("L3(4)")
    assert i_a8 + 1 == i_l34
    assert "U4(2)" in names and "S4(3)" not in names
    assert "M11" in names
    assert "2B2(8)" in names
    # The only other tie below 10^12: |S6(3)| = |O7(3)| = 4,585,351,680.
    names = [display_name(g) for g, _ in enumerate_catalog(10**10)]
    assert names.index("S6(3)") + 1 == names.index("O7(3)")


def test_catalog_includes_borderline():
    cat = enumerate_catalog(10_000_000)
    names = [display_name(g) for g, _ in cat]
    assert "L5(2)" in names  # order 9999360
    by_name = {display_name(g): f for g, f in cat}
    assert by_name["L5(2)"].order == 9999360
    assert all(f.order <= 10_000_000 for _, f in cat)


def test_catalog_excludes_sporadic_when_table_empty(monkeypatch):
    monkeypatch.setattr(atlas, "_SPORADIC_FACTS", {})
    names = [display_name(g) for g, _ in enumerate_catalog(10**5)]
    assert "M11" not in names
    assert "A5" in names


def test_facts_consistency():
    for name, expected in ORDER_ANCHORS:
        gid = parse_group(name)
        f = facts(gid)
        assert f.order == expected
        assert f.out_order == out_order(gid)


# q = 4, 5, 9 are missing: those cells canonicalize to alternating groups,
# and the bound predicate is only defined for Lie identifiers.
@pytest.mark.parametrize("q", [7, 8, 11, 13, 16, 25, 27, 32, 64])
def test_linear2_lower_bound(q):
    assert oracles.order_floor_holds(lie(Family.LINEAR, 2, q))


# Every raw Lie-type id of the out4 scan grid at the default box, the ids
# that canonicalize elsewhere (L2(4) to A5, S4(3) to U4(2), ...) included.
# The scan prunes its grid with these two bounds, so they must hold at each.
OUT4_GRID = [g for _, _, _, g in oracles.out4_grid(12, 1024)]


def test_out4_grid_covers_every_lie_family():
    assert len(OUT4_GRID) == 8291
    assert {g.family for g in OUT4_GRID} == set(atlas._SYMBOL)
    assert len(atlas._SYMBOL) == 16
    raw = {(g.family, g.n, g.q) for g in OUT4_GRID}
    for fam, n, q in [
        (Family.LINEAR, 2, 4),
        (Family.LINEAR, 2, 5),
        (Family.LINEAR, 2, 9),
        (Family.LINEAR, 3, 2),
        (Family.LINEAR, 4, 2),
        (Family.SYMPLECTIC, 4, 3),
    ]:
        assert (fam, n, q) in raw


def test_order_lower_bounds_sweep():
    # |T| exceeds the order floor that cuts off the catalog walk and prunes
    # the out4 scan, at every raw id of the scan grid.
    for gid in OUT4_GRID:
        assert oracles.order_floor_holds(gid), display_name(gid)


# The degrees d of the factors (1 - q^-d) of P(q) = d*|T| / q^e for each
# Lie family at dimension n, read off the textbook order formulas; the
# other factors of P(q), such as (q^9 + 1)/q^9, are at least 1.
FALLING_DEGREES = {
    Family.LINEAR: lambda n: tuple(range(2, n + 1)),
    Family.UNITARY: lambda n: tuple(range(2, n + 1, 2)),
    Family.SYMPLECTIC: lambda n: tuple(range(2, n + 1, 2)),
    Family.ORTHOGONAL_ODD: lambda n: tuple(range(2, n, 2)),
    Family.ORTHOGONAL_PLUS: lambda n: (n // 2, *range(2, n - 1, 2)),
    Family.ORTHOGONAL_MINUS: lambda n: tuple(range(2, n - 1, 2)),
    Family.G2: lambda n: (6, 2),
    Family.F4: lambda n: (12, 8, 6, 2),
    Family.E6: lambda n: (12, 9, 8, 6, 5, 2),
    Family.E7: lambda n: (18, 14, 12, 10, 8, 6, 2),
    Family.E8: lambda n: (30, 24, 20, 18, 14, 12, 8, 2),
    Family.SUZUKI: lambda n: (1,),
    Family.REE_G2: lambda n: (1,),
    Family.REE_F4: lambda n: (4, 1),
    Family.STEINBERG_3D4: lambda n: (6, 2),
    Family.STEINBERG_2E6: lambda n: (12, 8, 6, 2),
}

# Every (family, n) with classical ranks up to 40.
FLOOR_ROWS = [(fam, n) for fam in FALLING_DEGREES for n in oracles.ranks(fam, 40)]

# The classical points with n <= 40 and q <= 64 in the textbook domains.
CLASSICAL_SWEEP_POINTS = 3863


def _falling_product(degrees, q):
    # prod(1 - q^-d) as (numerator, denominator).
    return math.prod(q**d - 1 for d in degrees), q ** sum(degrees)


def test_exceptional_floor_lemma():
    # The floor 2*d_max*|T| > q^e of _order_floor holds once P(q) > 1/2,
    # for every Lie family.  P(q) is at least the product of its falling
    # factors, which grows with q; that product exceeds 1/2 at the smallest
    # q of the domain.  The degrees are distinct and at least 2, except
    # that O+_n repeats n/2 when 4 divides n, and that the groups with a
    # degree 1 have q >= 8: the cases _order_floor's bound on P(q) covers.
    assert set(FALLING_DEGREES) == set(atlas._SYMBOL)
    for fam, n in FLOOR_ROWS:
        degrees = FALLING_DEGREES[fam](n)
        c, e = atlas._order_floor(fam, n)
        assert c == 2 * atlas._max_centre(fam, n)
        # e is the degree of the undivided order: q^e/2 < N(q) < 2*q^e at q = 2^32.
        num, _ = atlas._order_parts(atlas._order_datum(fam, n), 1 << 32)
        assert 1 << 32 * e < 2 * num < 1 << 32 * e + 2, (fam, n)
        q0 = min(q for q in range(2, 64) if oracles.textbook_domain(fam, n, q))
        low, high = _falling_product(degrees, q0)
        assert 2 * low > high, (fam, n)
        repeated = len(degrees) - len(set(degrees))
        assert repeated == (fam is Family.ORTHOGONAL_PLUS and n % 4 == 0), (fam, n)
        assert min(degrees) >= 2 or q0 >= 8, (fam, n)


def test_floor_lemma_constants():
    # The two bounds on P(q) that _order_floor states, exactly: a tail
    # prod(1 - x^d for d >= D) is at least 1 - sum(x^d for d >= D).
    head = math.prod(1 - Fraction(1, 2**d) for d in range(2, 41)) * (1 - Fraction(1, 2**40))
    assert (1 - Fraction(1, 16)) * head > Fraction(54, 100)
    assert Fraction(7, 8) * (1 - Fraction(1, 56)) > Fraction(85, 100)


def test_exceptional_floor_sweep():
    # Every exceptional point with q <= 4096 and every classical point with
    # n <= 40 and q <= 64: P(q) is at least the product of its falling
    # factors, and the floor holds.
    points = {True: 0, False: 0}
    grid = [cell for cell in oracles.out4_grid(40, 64) if cell[0] in atlas._CLASSICAL_FAMILIES]
    grid += [cell for cell in oracles.out4_grid(2, 4096) if cell[0] not in atlas._CLASSICAL_FAMILIES]
    for fam, n, q, gid in grid:
        _, e = atlas._order_floor(fam, n)
        num, _ = atlas._order_parts(atlas._order_datum(fam, n), q)
        low, high = _falling_product(FALLING_DEGREES[fam](n), q)
        assert num * high >= q**e * low, display_name(gid)
        assert oracles.order_floor_holds(gid), display_name(gid)
        points[fam in atlas._CLASSICAL_FAMILIES] += 1
    assert points == {False: 4240, True: CLASSICAL_SWEEP_POINTS}


def test_bound_predicates_reject_other_families():
    for gid in (alternating(5), sporadic("M11"), tits()):
        with pytest.raises(DomainError, match="is not a Lie-type family"):
            oracles.order_floor_holds(gid)
        with pytest.raises(DomainError, match="is not a Lie-type family"):
            oracles.out_cap_holds(gid)


def test_out_order_bounds_sweep():
    for gid in OUT4_GRID:
        assert oracles.out_cap_holds(gid), display_name(gid)


@pytest.mark.parametrize("fam", sorted(atlas._SYMBOL, key=lambda fam: fam.value))
def test_row_bound_lemma(fam):
    # The certified region closes a (family, n) row at b = bit_length(q) - 1 once
    # (b+1)^4 <= 2^e * b^4, taking U(b) = c*(K*b)^4 / 2^(b*e) to bound the
    # rest of the row.  Once the condition holds it holds at every larger b,
    # since (b+1)/b decreases, and from there on U does not increase.
    ranks = [0]
    if fam in atlas._CLASSICAL_FAMILIES:
        ranks = list(takewhile(lambda n: n <= 24, atlas._rank_values(fam)))
    for n in ranks:
        c, e = atlas._order_floor(fam, n)
        cap = atlas._out_cap(fam, n)
        holds = [(b + 1) ** 4 <= b**4 << e for b in range(1, 65)]
        first = holds.index(True) + 1
        assert all(holds[first - 1 :]), (fam, n)
        for b in range(first, 65):
            assert (b + 2) * b < (b + 1) ** 2
            assert c * (cap * (b + 1)) ** 4 << b * e <= c * (cap * b) ** 4 << (b + 1) * e, (fam, n, b)


def test_row_settled_needs_the_monotone_condition():
    # Floor q^2 and cap f: at b = 2, U = 16/16 is <= 1, but U can still grow
    # ((b+1)^4 > 2^2 * b^4), so the row goes on.
    floor, cap = (1, 2), 1
    assert not atlas._row_settled(floor, cap, 4)
    assert not atlas._row_settled(floor, cap, 8)  # U(3) = 81/64 > 1
    assert atlas._row_settled(floor, cap, 16)  # U(4) = 1, and U falls from here


def test_row_bound_bounds_every_ratio():
    # U(b) bounds |Out|^4/|T| at each point of the grid: q >= 2^b, f <= b.
    for gid in OUT4_GRID:
        c, e = atlas._order_floor(gid.family, gid.n)
        b = gid.q.bit_length() - 1
        assert gid.f <= b and gid.q >= 1 << b
        o4, t = out_order(gid) ** 4, order(gid)
        assert o4 << b * e < c * (atlas._out_cap(gid.family, gid.n) * b) ** 4 * t, display_name(gid)


def test_out4_scan_reference_bounds():
    scan = out4_scan(12, 1024)
    assert [display_name(g) for g in scan.candidates] == ["L3(4)"]
    assert scan.ok
    assert scan.failing_checks() == []
    assert scan.matches_reference
    l34 = scan.candidates[0]
    assert order(l34) == 20160 and out_order(l34) == 12
    assert 20160 < 12**4


def test_out4_scan_no_alias_candidates():
    scan = out4_scan(12, 1024)
    names = {display_name(g) for g in scan.candidates}
    for alias in ["A5", "A6", "A8", "U4(2)"]:
        assert alias not in names


def test_out4_scan_small_box_fails_tails():
    scan = out4_scan(6, 3)
    assert scan.candidates == ()
    assert not scan.ok
    failing = {c.family for c in scan.failing_checks()}
    assert failing  # the box is genuinely too small
    # families whose smallest admissible q exceeds 3 contribute no checks,
    # hence no failures
    assert not failing & {Family.SUZUKI, Family.REE_G2, Family.REE_F4}


def test_out4_scan_rejects_tiny_bounds():
    with pytest.raises(DomainError):
        out4_scan(4, 1024)
    with pytest.raises(DomainError):
        out4_scan(12, 1)


def test_out4_scan_tiny_box_is_not_ok():
    # The box misses L3(4) and finds nothing, which proves nothing.
    scan = out4_scan(5, 2)
    assert scan.candidates == ()
    assert not scan.ok
    assert [row.label for row in scan.failing_checks()] == ["L2(q <= 61)", "L3(q <= 7)", "U3(q <= 7)"]


def test_out4_scan_skips_region_rows_beyond_n_max(monkeypatch):
    # Every row of the certified region has n <= 3, so no box with
    # n_max >= 5 misses one by n; a row at n = 6 must be skipped by the scan
    # and reported as missed.
    extra = atlas.RegionRow(Family.LINEAR, 6, 2)
    region = atlas._certified_region() + (extra,)
    monkeypatch.setattr(atlas, "_certified_region", lambda: region)
    walked = []
    real_row = atlas._row

    def recording_row(fam, n, q_max):
        walked.append((fam, n))
        return real_row(fam, n, q_max)

    monkeypatch.setattr(atlas, "_row", recording_row)
    scan = out4_scan(5, 61)
    assert (Family.LINEAR, 6) not in walked
    assert walked == [(row.family, row.n) for row in region[:-1]]
    assert [display_name(g) for g in scan.candidates] == ["L3(4)"]
    assert scan.failing_checks() == [extra]
    assert not scan.ok


def test_region_row_label_is_the_lie_name_of_its_bound():
    # A classical row writes its n and an exceptional row, at n = 0, none.
    rows = [(Family.LINEAR, 2, 61), (Family.ORTHOGONAL_PLUS, 8, 2), (Family.G2, 0, 7), (Family.SUZUKI, 0, 8)]
    assert [atlas.RegionRow(*row).label for row in rows] == [
        "L2(q <= 61)", "O+8(q <= 2)", "G2(q <= 7)", "2B2(q <= 8)"
    ]


@pytest.mark.parametrize("box", [atlas.certified_box(), (12, 1024), (16, 2048), (24, 4096)])
def test_out4_scan_calls_out_order_once_per_examined_point(monkeypatch, box):
    # perfbench counts the grid points of a scan as its calls to out_order:
    # A5, the 26 sporadic groups, the Tits group and the 2 region points
    # that pass the floor check, in every box that covers the region.
    calls = []
    real = atlas.out_order
    monkeypatch.setattr(atlas, "out_order", lambda g: calls.append(g) or real(g))
    scan = out4_scan(*box)
    assert len(calls) == 30
    assert calls[0] == atlas.alternating(5)
    assert {g.family for g in calls[1:28]} == {Family.SPORADIC, Family.TITS}
    assert [display_name(g) for g in scan.candidates] == ["L3(4)"]


def test_certified_region_shape():
    # The rows where the floor and cap leave |T| < |Out(T)|^4 open, with the
    # largest q each needs: the same rows as the brute-force region.
    region = atlas._certified_region()
    assert [row.label for row in region] == ["L2(q <= 61)", "L3(q <= 7)", "U3(q <= 7)"]
    needed = {}
    for fam, n, q, _ in oracles.out4_region_points(ORACLE_REGION):
        needed[fam, n] = max(needed.get((fam, n), 0), q)
    assert {(row.family, row.n): row.q for row in region} == needed
    assert len(list(oracles.out4_region_points(ORACLE_REGION))) == REGION_POINTS


@pytest.mark.parametrize("fam", sorted(atlas._CLASSICAL_FAMILIES, key=lambda fam: fam.value))
def test_rank_step_lemma(fam):
    # Past the first rank settled at b = 1, consecutive ranks n < n' have
    # c(n')*K(n')^4 <= 2^(e(n') - e(n)) * c(n)*K(n)^4, so U(n', b) <= U(n, b)
    # at every b >= 1; this is what lets _certified_region stop at that rank.
    ranks = list(takewhile(lambda n: n <= 200, atlas._rank_values(fam)))
    settled = [atlas._row_settled(atlas._order_floor(fam, n), atlas._out_cap(fam, n), 2) for n in ranks]
    first = settled.index(True)
    assert all(settled[first:]), fam
    for n, later in zip(ranks[first:], ranks[first + 1 :]):
        (c, e), (c_later, e_later) = atlas._order_floor(fam, n), atlas._order_floor(fam, later)
        weight, weight_later = c * atlas._out_cap(fam, n) ** 4, c_later * atlas._out_cap(fam, later) ** 4
        assert e_later > e and weight_later <= weight << e_later - e, (fam, n)


def test_validate_rejects_bad_prime_power_data():
    for bad in [
        SimpleGroupId(Family.LINEAR, n=3, p=4, f=1),  # p not prime
        SimpleGroupId(Family.LINEAR, n=3, p=2, f=0),  # f < 1
        SimpleGroupId(Family.ORTHOGONAL_ODD, n=7, p=2, f=1),  # q even
        SimpleGroupId(Family.G2, n=5, p=3, f=1),  # exceptional ids carry no n
        SimpleGroupId(Family.SUZUKI, p=2, f=4),  # even exponent
        SimpleGroupId(Family.TITS, name="M11"),  # a sporadic name under the Tits tag
        SimpleGroupId(Family.SPORADIC, name="2F4(2)'"),  # the Tits name under the sporadic tag
        SimpleGroupId(Family.ALTERNATING, n=5, name="M11"),  # stray name
        SimpleGroupId(Family.LINEAR, n=3, p=2, f=1, name="M11"),  # stray name
    ]:
        with pytest.raises(DomainError):
            order(bad)
        with pytest.raises(DomainError):
            out_order(bad)
        with pytest.raises(DomainError):
            facts(bad)


# -- the catalog walk's stop rule -------------------------------------------

CATALOG_REACH = 10**12


def _reached_ranks(fam, max_order):
    """The dimensions the catalog walk visits at max_order: 0 for an
    exceptional family, else each n until the order floor at its smallest q
    passes max_order.  Each smallest q is looked for up to 64, and must be
    found there."""
    if fam not in atlas._CLASSICAL_FAMILIES:
        return [0]
    triples = prime_power_triples_upto(64)
    ranks = []
    for n in atlas._rank_values(fam):
        min_q = next((q for q, p, f in triples if atlas._in_domain(fam, n, p, f)), None)
        assert min_q is not None, (fam, n)
        c, e = atlas._order_floor(fam, n)
        if min_q**e > c * max_order:
            return ranks
        ranks.append(n)


def _walk_orders(fam, n, max_order, beyond=2):
    """(id, N, d) for each in-domain q of one walk, through the q where the
    walk stops and `beyond` in-domain q past it.

    The row is read up to a bound: N >= |T| > q^e/c passes the walk's limit
    at every q past t = (c*limit)^(1/e), and the bound leaves room for
    `beyond` + 1 in-domain q after t at the ratio of the row's two smallest
    (9 for 2G2, whose q are the odd powers of 3).  The walk must stop
    before it."""
    c, e = atlas._order_floor(fam, n)
    limit = atlas._max_centre(fam, n) * max_order
    q1, q2 = [q for q, p, f in prime_power_triples_upto(1000) if atlas._in_domain(fam, n, p, f)][:2]
    bound = (int_nth_root(c * limit, e) + 1) * -(-q2 // q1) ** (beyond + 1)
    out, past = [], 0
    for q, p, f in prime_power_triples_upto(bound):
        if not atlas._in_domain(fam, n, p, f):
            continue
        num, d = atlas._order_parts(atlas._order_datum(fam, n), q)
        out.append((SimpleGroupId(fam, n=n, p=p, f=f), num, d))
        if num > limit:
            past += 1
            if past > beyond:
                return out
    raise AssertionError(f"the walk at {fam.name}, n = {n} did not stop below {bound}")


@pytest.mark.parametrize("fam", sorted(atlas._SYMBOL, key=lambda fam: fam.value))
def test_undivided_order_strictly_increases_along_each_walk(fam):
    ranks = _reached_ranks(fam, CATALOG_REACH)
    assert ranks
    for n in ranks:
        walk = _walk_orders(fam, n, CATALOG_REACH)
        for gid, num, d in walk:
            assert 1 <= d <= atlas._max_centre(fam, n)
            assert num % d == 0 and order(gid) == num // d
        undivided = [num for _, num, _ in walk]
        assert all(a < b for a, b in zip(undivided, undivided[1:])), (fam, n)


def test_exact_order_is_not_monotone_in_q():
    l2_8 = lie(Family.LINEAR, 2, 8)
    l2_9 = SimpleGroupId(Family.LINEAR, n=2, p=3, f=2)  # raw; lie(Family.LINEAR, 2, 9) is A6
    assert order(l2_8) == 504 > order(l2_9) == 360
    # The undivided orders, which stop the walk, keep q's order.
    assert atlas._order_parts(atlas._order_datum(Family.LINEAR, 2), 8) == (504, 1)
    assert atlas._order_parts(atlas._order_datum(Family.LINEAR, 2), 9) == (720, 2)
    assert [display_name(g) for g, _ in enumerate_catalog(504)][-2:] == ["A6", "L2(8)"]


@pytest.mark.parametrize("bound", [59, 200, 30_000, 10**7, 10**9])
def test_catalog_matches_cited_bound_walk(bound):
    assert enumerate_catalog(bound) == oracles.catalog_by_cited_bounds(bound)


def test_catalog_size_at_1e12():
    # The count the cited-bound walk gives, which is too slow for the suite
    # at this bound.
    assert len(enumerate_catalog(10**12)) == 1650


# The shared prime-power table is sieved once, straight to the q_top of the
# L2 row, the largest any walk needs: 7,368 for the catalog at 10^11, and
# 341 at the 10^7 catalog of run_reduce, however many (family, n) walks
# read it.
_SIEVE_CALLS = {"atlas.enumerate_catalog(10**11)": 1, "report.run_reduce(2)": 1}


@pytest.mark.parametrize("call", sorted(_SIEVE_CALLS))
def test_walks_share_one_prime_power_table(call):
    # A fresh interpreter starts with an empty table.
    probe = (
        "import symreduce.intmath as intmath\n"
        "sieve, limits = intmath.prime_power_triples_upto, []\n"
        "intmath.prime_power_triples_upto = lambda limit: limits.append(limit) or sieve(limit)\n"
        "from symreduce import atlas, report\n"
        f"{call}\n"
        "print(len(limits))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(atlas.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert int(child.stdout) <= _SIEVE_CALLS[call]


OUT4_ORACLE_BOXES = [
    (5, 2), (5, 3), (6, 3), (7, 9), (9, 8), (11, 2), (5, 60), (5, 61), (5, 250), (5, 251), (12, 1024)
]

# Every (family, n, b) with U(n, b) > 1 for n <= 40 and b <= 200, from the
# bounds as the oracle restates them, and its number of raw ids.
ORACLE_REGION = oracles.out4_region_by_brute_force()
REGION_POINTS = 33


@pytest.mark.parametrize("n_max,q_max", OUT4_ORACLE_BOXES)
def test_out4_scan_matches_fraction_oracle(n_max, q_max):
    # The oracle computes every ratio exactly, so this also checks that the
    # scan skips no point that could change the result.
    scan = out4_scan(n_max, q_max)
    assert scan.candidates == oracles.out4_scan_by_fractions(n_max, q_max)
    assert scan.ok == oracles.box_covers(ORACLE_REGION, n_max, q_max)


def test_certified_box_is_the_smallest_covering_box():
    n_max, q_max = atlas.certified_box()
    assert (n_max, q_max) == (5, 61)
    assert oracles.box_covers(ORACLE_REGION, n_max, q_max)
    assert not oracles.box_covers(ORACLE_REGION, n_max, q_max - 1)
    assert out4_scan(n_max, q_max).ok
    assert not out4_scan(n_max, q_max - 1).ok


def _region_sweep_points():
    # The region plus one row and one column beyond it: the next rank of
    # each family with a region row, and one more b at each rank.
    extended = set(ORACLE_REGION)
    for fam in {fam for fam, _, _ in ORACLE_REGION}:
        ranks = sorted({n for f, n, _ in ORACLE_REGION if f is fam})
        ranks.append(next(n for n in oracles.ranks(fam, 40) if n > ranks[-1]))
        b_top = max(b for f, _, b in ORACLE_REGION if f is fam)
        extended.update((fam, n, b) for n in ranks for b in range(1, b_top + 2))
    return [gid for _, _, _, gid in oracles.out4_region_points(frozenset(extended))]


def _sweep_bounds():
    for gid in _region_sweep_points():
        assert oracles.order_floor_holds(gid), display_name(gid)
        assert oracles.out_cap_holds(gid), display_name(gid)


def test_bounds_hold_around_the_region():
    assert len(_region_sweep_points()) > REGION_POINTS
    _sweep_bounds()


def test_bound_sweep_catches_a_halved_cap(monkeypatch):
    # With K halved for L2, |Out(L2(9))| = 4 > (K/2)*f = 2: the sweep fails.
    real = atlas._out_cap

    def halved(fam, n):
        return real(fam, n) // 2 if (fam, n) == (Family.LINEAR, 2) else real(fam, n)

    monkeypatch.setattr(atlas, "_out_cap", halved)
    with pytest.raises(AssertionError, match="L2"):
        _sweep_bounds()


def test_bound_sweep_catches_a_raised_floor(monkeypatch):
    # With e + 1 for L2, 4*|L2(q)| > q^4 fails at every q >= 4: the sweep fails.
    real = atlas._order_floor

    def raised(fam, n):
        c, e = real(fam, n)
        return (c, e + 1) if (fam, n) == (Family.LINEAR, 2) else (c, e)

    monkeypatch.setattr(atlas, "_order_floor", raised)
    with pytest.raises(AssertionError, match="L2"):
        _sweep_bounds()


# sha256 of repr(out4_scan(n_max, q_max)), for boxes too large for the
# oracle in the suite; pinned after the candidates at each box were checked
# against the unpruned oracle.
OUT4_REPR_SHA256 = {
    (16, 2048): "31ac8959e11407190d632f88dd96b911b2f83558574a35e368da4d7ba2e642b4",
    (24, 4096): "ad298a5ad272970eb8481d076eae4158a85cb067dd0b2d2c2409398e10de33e7",
}


@pytest.mark.parametrize("box", sorted(OUT4_REPR_SHA256))
def test_out4_scan_repr_pinned(box):
    digest = hashlib.sha256(repr(out4_scan(*box)).encode()).hexdigest()
    assert digest == OUT4_REPR_SHA256[box]


# sha256 of repr(enumerate_catalog(bound)): every |T| and |Out(T)| of the
# 885 groups up to 10^11, as the per-family order formulas gave them.
CATALOG_REPR_SHA256 = {
    10**7: "4cb383bc1c996c51599cb4c140fd572abeacaf70f421a9729fce8419bee79175",
    10**9: "e61f217c96b0d07195a9b68961b823480b3f473c94ff76cac104f74c8a0049db",
    10**11: "0232af9e6785c8cfcc1b3b2cd66005b885d24a856cb512805a6d723e23a4a877",
}


@pytest.mark.parametrize("bound", sorted(CATALOG_REPR_SHA256))
def test_catalog_repr_pinned(bound):
    digest = hashlib.sha256(repr(enumerate_catalog(bound)).encode()).hexdigest()
    assert digest == CATALOG_REPR_SHA256[bound]


def test_out4_scan_computes_few_exact_orders(monkeypatch):
    # out4_scan calls out_order once per point whose exact order it
    # computes; the unpruned scan made 8,326 such calls at this box, and
    # the certified region leaves 30: A5, 27 sporadic, L2(9) and L3(4).
    calls = 0
    real = atlas.out_order

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(atlas, "out_order", counting)
    scan = out4_scan(12, 1024)
    assert [display_name(g) for g in scan.candidates] == ["L3(4)"]
    assert calls == 30


def test_alternating_groups_past_a5_are_no_candidates():
    # What lets out4_scan examine only A5: |Out(A_n)|^4 < |A_n| for n >= 6.
    for n in range(6, 41):
        gid = alternating(n)
        assert out_order(gid) ** 4 < order(gid) == math.factorial(n) // 2, n
