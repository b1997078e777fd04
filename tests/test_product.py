import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreduce import product
from symreduce.design import flag_parameters, is_symmetric_admissible
from symreduce.errors import DomainError
from symreduce.intmath import divisors
from symreduce.product import (
    COMPONENT_V0_MIN,
    M4_V0,
    a_upper_bound,
    enumerate_product_cases,
    lambda_from,
    m4_case,
    power_gap_feasible,
    reference_triples,
    v0_candidates,
)

from .oracles import lambda_by_scan, product_triples_by_brute_force


def test_a_upper_bound_values():
    assert a_upper_bound(2) == 17
    assert a_upper_bound(3) == 14
    assert a_upper_bound(4) == 24


def test_a_upper_bound_is_sharp():
    # the returned a satisfies the strict bound, a + 1 does not
    for m in (2, 3, 4):
        a = a_upper_bound(m)
        d = m**6 + (20 * m - 36) * (m**2 + 2)
        for candidate, expect in ((a, True), (a + 1, False)):
            t = (10 * m - 18) * candidate - m**4
            below = t <= 0 or t * t < m * m * d
            assert below is expect


def test_v0_candidates_examples():
    assert v0_candidates(2, 2) == [2, 3, 4, 5, 7, 13]
    assert v0_candidates(2, 1) == [2, 3, 5]


def test_v0_candidates_structure():
    # each candidate minus one divides m*a*(a+1)
    for m in (2, 3):
        for a in range(1, 18):
            for v0 in v0_candidates(m, a):
                assert (m * a * (a + 1)) % (v0 - 1) == 0


def test_lambda_from_examples():
    assert lambda_from(2, 4, 11) == 5
    assert lambda_from(2, 5, 21) == 7
    assert lambda_from(2, 2, 4) == 2
    assert lambda_from(2, 3, 11) is None  # not integral


def test_integral_lambda_forces_integral_k():
    # Wherever lambda_from is integral, k = lambda*m*(v0-1)/a is an integer:
    # it is a rational root of the monic x^2 - x - lambda(v-1).
    for m in range(2, 11):
        for a in range(1, a_upper_bound(m) + 1):
            for v0 in v0_candidates(m, a):
                lam = lambda_from(m, a, v0)
                if lam is not None:
                    assert lam * m * (v0 - 1) % a == 0, (m, a, v0)


def test_lambda_from_agrees_with_scan_oracle():
    for m in (2, 3):
        for a in range(1, a_upper_bound(m) + 1):
            for v0 in v0_candidates(m, a):
                lam = lambda_from(m, a, v0)
                scanned = lambda_by_scan(m, a, v0)
                if lam is None:
                    assert scanned is None, (m, a, v0)
                else:
                    assert scanned == lam, (m, a, v0)


def test_multiplier_lemma():
    # (5m-9)(v0-1)^2 <= v0^m, which turns admissibility's k^2 > lambda*v
    # into the multiplier bound a^2(5m-9) < m^2*lambda behind a_upper_bound.
    for m in range(2, 40):
        for v0 in range(2, 2000):
            assert (5 * m - 9) * (v0 - 1) ** 2 <= v0**m, (m, v0)


def test_witnesses_satisfy_the_flag_relations():
    # The enumeration reads each witness from flag_parameters, which proves both.
    for t in enumerate_product_cases(2, tuple(range(2, 11))):
        for c in t.witnesses:
            assert c.k * c.a == c.lam * c.m * (c.v0 - 1), c
            assert c.lam * (c.v0**c.m - 1) == c.k * (c.k - 1), c


def test_witnesses_satisfy_the_multiplier_bound():
    # The bound is no filter of the enumeration; admissibility implies it.
    for t in enumerate_product_cases(2, tuple(range(2, 11))):
        for c in t.witnesses:
            assert c.a * c.a * (5 * c.m - 9) < c.m * c.m * c.lam, c


# The brute force walks v0 past the enumeration's largest candidate
# m*a(a+1) + 1 at a = a_upper_bound(m): 613 at m = 2 and 631 at m = 3.
BRUTE_FORCE_BOX = {2: 1000, 3: 632}


@pytest.mark.parametrize("m", sorted(BRUTE_FORCE_BOX))
def test_enumeration_agrees_with_brute_force(m):
    top = BRUTE_FORCE_BOX[m]
    a_max = a_upper_bound(m)
    assert max(v0_candidates(m, a_max)) < top
    brute = product_triples_by_brute_force(m, range(2, top))
    cases = sorted(
        (c.m, c.v0, t.v, t.k, t.lam) for t in enumerate_product_cases(2, (m,)) for c in t.witnesses
    )
    assert sorted(brute) == cases
    # Each brute-force row is the flag lemma's (lambda, k) at the integer c
    # that k | lambda*m*(v0-1) leaves.
    for _, v0, v, k, lam in brute:
        c, rest = divmod(lam * m * (v0 - 1), k)
        assert rest == 0
        assert flag_parameters(v, m * (v0 - 1), c) == (lam, k)


def test_power_gap_points_below_the_component_floor_admit_nothing():
    # power_gap_feasible holds at m = 4, v0 = 2, 3, 4 and m = 5, v0 = 2
    # (test_power_gap_below_component_floor), and the arithmetic settles
    # them: neither the enumeration nor the brute force admits a triple.
    assert enumerate_product_cases(2, (4,)) == []
    assert enumerate_product_cases(2, (5,)) == []
    assert product_triples_by_brute_force(4, (2, 3, 4)) == []
    assert product_triples_by_brute_force(5, (2,)) == []
    # k | lambda*m*(v0-1) is what settles them.
    assert product_triples_by_brute_force(4, (2, 3, 4), k_divides=False) == [
        (4, 2, 16, 6, 2),
        (4, 3, 81, 16, 3),
    ]
    assert product_triples_by_brute_force(5, (2,), k_divides=False) == []
    # The flag lemma is that gate: at no c does it give those (lambda, k).
    for m, v0, v, k, lam in [(4, 2, 16, 6, 2), (4, 3, 81, 16, 3)]:
        delta = m * (v0 - 1)
        assert all(flag_parameters(v, delta, c) != (lam, k) for c in range(1, delta + 1))


def test_power_gap_examples():
    assert power_gap_feasible(2, 25) is True
    assert power_gap_feasible(4, 5) is True
    assert power_gap_feasible(4, 7) is False
    assert power_gap_feasible(5, 5) is False


def test_power_gap_pattern():
    # m = 2, 3: feasible for every v0; m = 4: only v0 in {5, 6}; m >= 5: never
    assert M4_V0 == (5, 6)
    for v0 in range(5, 2000):
        assert power_gap_feasible(2, v0)
        assert power_gap_feasible(3, v0)
        assert power_gap_feasible(4, v0) == (v0 in M4_V0)
        for m in range(5, 9):
            assert not power_gap_feasible(m, v0)


def test_power_gap_tail_lemma():
    # v0 >= 5, m >= 4 and v0^(m-3) >= m^2 make the power gap infeasible;
    # M4_V0 checks only the v0 below that bound.
    for m in range(4, 12):
        for v0 in range(COMPONENT_V0_MIN, 400):
            if v0 ** (m - 3) >= m * m:
                assert not power_gap_feasible(m, v0), (m, v0)


def test_power_gap_below_component_floor():
    # The floor of M4_V0 is the component degree 5, not v0_min: below it the
    # power gap is feasible at m = 4 and at m = 5.
    assert [v0 for v0 in range(2, 5) if power_gap_feasible(4, v0)] == [2, 3, 4]
    assert [v0 for v0 in range(2, 5) if power_gap_feasible(5, v0)] == [2]


def test_enumeration_drops_what_admissibility_rejects(monkeypatch):
    # No enumeration in the suite's boxes reaches the admissibility gate
    # with an inadmissible triple; one that rejects (81, 16, 3) leaves the
    # reference triples.
    real = product.is_symmetric_admissible

    def rejecting(v, k, lam):
        return (False, ["rejected"]) if (v, k, lam) == (81, 16, 3) else real(v, k, lam)

    monkeypatch.setattr(product, "is_symmetric_admissible", rejecting)
    assert tuple(t.triple for t in enumerate_product_cases(2)) == reference_triples(2)


def test_enumerate_default():
    triples = enumerate_product_cases(2)
    got = [t.triple for t in triples]
    # Three of these match the reference outcome; (81, 16, 3) also passes
    # every stated filter (checked by hand: lambda = (9*91 + 6)/(2*2*8) = 3,
    # k = 3*2*8/3 = 16, identity 16*15 = 3*80, focus 16 > 3, admissible with
    # k^2 = 256 > 243 = lambda*v, which gives the multiplier bound 9 < 12),
    # so the enumeration reports it and the reference comparison flags the
    # disagreement.
    assert (16, 6, 2) in got
    assert (121, 25, 5) in got
    assert (441, 56, 7) in got
    assert (81, 16, 3) in got
    assert len(got) == 4
    assert got == sorted(got)


def test_enumerate_v0_floor():
    triples = enumerate_product_cases(5)
    got = [t.triple for t in triples]
    # (16, 6, 2) only arises with v0 = 4, so the floor excludes it
    assert got == [(81, 16, 3), (121, 25, 5), (441, 56, 7)]


def test_enumerate_m3_contributes_nothing():
    triples = enumerate_product_cases(2, m_values=(3,))
    assert [t.triple for t in triples] == []


@pytest.mark.parametrize(
    "function, args, message",
    [
        (a_upper_bound, (1,), "need m >= 2, got 1"),
        (v0_candidates, (1, 1), "need m >= 2, a >= 1; got 1, 1"),
        (lambda_from, (2, 1, 1), "need m >= 2, a >= 1, v0 >= 2; got 2, 1, 1"),
        (power_gap_feasible, (1, 5), "need m >= 2, v0 >= 2; got 1, 5"),
    ],
)
def test_guards_reject_out_of_domain_input(function, args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        function(*args)


def test_enumerate_rejects_other_floors():
    with pytest.raises(DomainError):
        enumerate_product_cases(3)


def test_enumerate_witnesses():
    triples = enumerate_product_cases(2)
    by_triple = {t.triple: t for t in triples}
    w = by_triple[(121, 25, 5)].witnesses
    assert any(c.m == 2 and c.a == 4 and c.v0 == 11 for c in w)
    w16 = by_triple[(16, 6, 2)].witnesses
    assert any(c.v0 < 5 for c in w16)


def test_enumerate_triples_admissible():
    for t in enumerate_product_cases(2):
        ok, violations = is_symmetric_admissible(t.v, t.k, t.lam)
        assert ok, violations
        assert t.k > t.lam * (t.lam - 2)


def test_reference_triples():
    assert reference_triples(2) == ((16, 6, 2), (121, 25, 5), (441, 56, 7))
    assert reference_triples(5) == ((121, 25, 5), (441, 56, 7))


def test_m4_case_v0_5():
    rep = m4_case(5)
    assert rep.k_interval == (218, 288)
    assert rep.k_min_exact == 220
    assert rep.stabilizer_order == 7962624
    assert rep.stabilizer_order == 2**15 * 3**5
    assert rep.candidates == (243, 256)
    assert rep.survivors == ()
    reasons = {r.k: r for r in rep.rejections}
    assert reasons[243].remainder == 150
    assert reasons[256].remainder == 384


def test_m4_case_v0_6():
    rep = m4_case(6)
    assert rep.k_interval == (391, 440)
    assert rep.k_min_exact == 392
    assert rep.stabilizer_order == 4976640000
    assert rep.stabilizer_order == 2**15 * 3**5 * 5**4
    assert rep.candidates == (400, 405, 432)
    assert rep.survivors == ()


def test_exact_lower_bound_matches_brute_force():
    # 4X a square: k + 1 > X + 2 - 2*sqrt(X) is met with equality one below.
    assert product._exact_lower_bound(4) == 2
    assert product._exact_lower_bound(9) == 5
    # The least k with k + 1 > X + 2 - 2*sqrt(X), that is 2*sqrt(X) > X + 1 - k,
    # decided in integers by squaring when both sides are non-negative.
    for x in range(200):
        k = next(k for k in range(x + 3) if x + 1 - k < 0 or 4 * x > (x + 1 - k) ** 2)
        assert product._exact_lower_bound(x) == k, x


def test_m4_case_domain():
    with pytest.raises(DomainError, match=r"splits on v0 in \{5, 6\}, got 7"):
        m4_case(7)
    with pytest.raises(DomainError):
        m4_case(4)


def test_m4_candidates_divide_stabilizer():
    for v0 in (5, 6):
        rep = m4_case(v0)
        for k in rep.candidates:
            assert rep.stabilizer_order % k == 0
            assert rep.k_interval[0] < k < rep.k_interval[1]
            # exact bound is at least as strong as the printed one
            assert k >= rep.k_min_exact


def test_m4_candidates_are_the_divisors_in_the_interval():
    # The interval walk keeps exactly the stabilizer's divisors in the open
    # k-interval, as filtering its full divisor list does.
    for v0 in M4_V0:
        rep = m4_case(v0)
        lo, hi = rep.k_interval
        assert rep.candidates == tuple(k for k in divisors(rep.stabilizer_order) if lo < k < hi)


@given(st.integers(min_value=1, max_value=17), st.integers(min_value=2, max_value=200))
@settings(max_examples=300)
def test_lambda_from_matches_oracle_random(a, v0):
    lam = lambda_from(2, a, v0)
    scanned = lambda_by_scan(2, a, v0)
    assert lam == scanned
