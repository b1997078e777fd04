import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce import atlas, diagonal
from symreduce.atlas import (
    MIN_SIMPLE_ORDER,
    Family,
    alternating,
    display_name,
    lie,
    parse_group,
    sporadic,
)
from symreduce.diagonal import (
    M_RANGE,
    DiagonalCase,
    diag_m_admissible,
    diag_oddpart_test,
    diagonal_scan,
    implication_check,
)
from symreduce.errors import DomainError
from symreduce.intmath import odd_part


def test_m_admissible_examples():
    assert diag_m_admissible(60, 6) is True
    assert diag_m_admissible(60, 7) is False
    assert diag_m_admissible(60, 3) is True


def test_m_admissible_domain():
    with pytest.raises(DomainError):
        diag_m_admissible(59, 6)
    with pytest.raises(DomainError):
        diag_m_admissible(60, 2)


def test_m_admissible_tail():
    # 60**(m-5) < m**4 already fails at m = 7 and keeps failing, for every
    # order from 60 up, so M_RANGE ends at 6
    assert M_RANGE == (2, 6)
    assert diag_m_admissible(MIN_SIMPLE_ORDER, 6)
    for order_t in (MIN_SIMPLE_ORDER, 168, 20160, 10**12):
        for m in range(7, 40):
            assert diag_m_admissible(order_t, m) is False, (order_t, m)


def test_oddpart_constants():
    assert odd_part(math.factorial(2) ** 4) == 1
    assert odd_part(math.factorial(3) ** 4) == 81
    assert odd_part(math.factorial(4) ** 4) == 81
    assert odd_part(math.factorial(5) ** 4) == 50625
    assert odd_part(math.factorial(6) ** 4) == 4100625


def test_oddpart_test_examples():
    # L3(4), m=2: odd_part(2!**4 * 12**4) = 81 and 20160 >= 81
    assert diag_oddpart_test(parse_group("L3(4)"), 2) is False
    # A5, m=6: 60**5 = 777600000 >= odd_part(6!**4 * 2**4) = 4100625
    assert diag_oddpart_test(alternating(5), 6) is False
    assert diag_oddpart_test(alternating(5), 2) is False


def test_oddpart_test_domain():
    with pytest.raises(DomainError):
        diag_oddpart_test(alternating(5), 1)
    with pytest.raises(DomainError):
        diag_oddpart_test(alternating(5), 7)


def test_oddpart_never_passes_in_catalog():
    # the elimination rests on this being False everywhere
    for m in range(2, 7):
        assert diag_oddpart_test(lie(Family.LINEAR, 3, 4), m) is False
        assert diag_oddpart_test(sporadic("M11"), m) is False


def test_implication_a5_m3_direct():
    chk = implication_check(alternating(5), 3)
    assert chk.handled_by == "direct-check"
    assert not chk.constant_step_ok  # 81 >= 60
    assert not chk.premise
    assert chk.valid


def test_implication_generic_cases():
    for name, m in [("L2(7)", 3), ("L3(4)", 4), ("M11", 5), ("A6", 6)]:
        chk = implication_check(parse_group(name), m)
        assert chk.valid, (name, m)
    chk = implication_check(parse_group("L2(7)"), 3)
    assert chk.handled_by == "constant-step"
    assert chk.constant_step_ok  # 81 < 168


def test_implication_m2_trivial_constant():
    chk = implication_check(alternating(5), 2)
    assert chk.constant_step_ok  # odd_part(2!**4) == 1
    assert chk.valid


def test_scan_default_bound():
    result = diagonal_scan(10_000_000)
    assert result.survivors == ()
    assert [display_name(g) for g in result.near_misses] == ["L3(4)"]
    assert result.catalog_size > 50


def test_scan_small_bound():
    result = diagonal_scan(59)
    assert result.survivors == ()
    assert result.near_misses == ()
    assert result.catalog_size == 0


def test_scan_implication_everywhere():
    # every catalog member, every m: the odd-part chain validly implies
    # the |T| < |Out|^4 reduction
    from symreduce.atlas import enumerate_catalog

    for gid, _ in enumerate_catalog(100_000):
        for m in range(2, 7):
            assert implication_check(gid, m).valid, (display_name(gid), m)


def test_scan_keeps_survivors_of_a_custom_sporadic_row(monkeypatch):
    # |T| = 100, |Out| = 50 passes the odd-part test at every m.  |T| = 300,
    # |Out| = 21 fails at m = 4 and passes at m = 5: 300^3 >= 81 * 21^4, but
    # 300^4 < 50625 * 21^4.  The scan stops at a failed m only from
    # |T| >= 625 on, so it must keep (T, 5).
    passing = {"FAKE": (2, 3, 4, 5, 6), "FAKE300": (2, 3, 5)}
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(100, 50))
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE300", atlas.GroupFacts(300, 21))
    result = diagonal_scan(10_000_000)
    assert result.survivors == tuple(DiagonalCase(sporadic(name), m) for name, ms in passing.items() for m in ms)
    for name, ms in passing.items():
        assert tuple(m for m in range(2, 7) if diag_oddpart_test(sporadic(name), m)) == ms


def test_largest_step_of_the_odd_factorials():
    # odd_part(m!)^4 grows from m to m + 1 by odd_part(m + 1)^4: 81, 1,
    # 625 and 81 across M_RANGE = (2, 6).
    assert diagonal._LARGEST_STEP == 625
    assert diagonal._LARGEST_STEP == max(odd_part(m + 1) ** 4 for m in range(M_RANGE[0], M_RANGE[1]))


@given(
    st.integers(diagonal._LARGEST_STEP, 10**15), st.integers(1, 10**4), st.integers(M_RANGE[0], M_RANGE[1] - 1)
)
def test_a_failed_m_stays_failed_past_the_largest_step(order_t, out, m):
    # The lemma behind the scan's early exit, at |T| >= 625.
    def holds(m):
        return order_t ** (m - 1) < odd_part(math.factorial(m) ** 4 * out**4)

    assert holds(m) or not holds(m + 1)


def _scan_by_definition(bound):
    """diagonal_scan's survivors and near misses, group by group, through
    diag_oddpart_test and the facts of atlas.facts."""
    catalog = [g for g, _ in atlas.enumerate_catalog(bound)]
    survivors = tuple(
        DiagonalCase(g, m) for g in catalog for m in range(M_RANGE[0], M_RANGE[1] + 1) if diag_oddpart_test(g, m)
    )
    near_misses = []
    for g in catalog:
        fct = atlas.facts(g)
        if odd_part(fct.out_order**4) <= fct.order < fct.out_order**4:
            near_misses.append(g)
    return survivors, tuple(near_misses)


@pytest.mark.parametrize(
    "row", [None, atlas.GroupFacts(100, 4), atlas.GroupFacts(100, 50), atlas.GroupFacts(300, 21)]
)
def test_scan_equals_its_per_group_definition(monkeypatch, row):
    # diagonal_scan hoists odd_part(m!)^4 and odd_part(|Out|)^4 out of the
    # test and stops at a group's first failed m; it must still agree with
    # the test stated per (T, m).
    if row is not None:
        monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", row)
    for bound in (10**5, 10**7, 10**9):
        result = diagonal_scan(bound)
        assert (result.survivors, result.near_misses) == _scan_by_definition(bound), bound
        assert result.catalog_size == len(atlas.enumerate_catalog(bound)), bound


def test_scan_near_miss_takes_the_odd_part_of_out(monkeypatch):
    # |T| = 100 < |Out|^4 = 256, but odd_part(|Out|^4) = 1: a near miss at
    # every m.  A scan that used |Out|^4 for odd_part(|Out|)^4 would pass
    # it at m = 2, where 100 < 256.
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(100, 4))
    result = diagonal_scan(10**9)
    assert sporadic("FAKE") in result.near_misses
    assert result.survivors == ()
