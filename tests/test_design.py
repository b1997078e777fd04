import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce.design import flag_parameters, is_symmetric_admissible, satisfies_focus_condition
from symreduce.errors import DomainError
from symreduce.intmath import TRIAL_DIVISION_LIMIT

from .oracles import ratio_bound_holds


def test_is_symmetric_admissible():
    ok, violations = is_symmetric_admissible(16, 6, 2)
    assert ok and violations == []
    ok, violations = is_symmetric_admissible(8, 3, 1)
    assert not ok and violations
    ok, violations = is_symmetric_admissible(16, 6, 3)
    assert not ok
    # Schutzenberger: (22, 7, 2) meets the other identities, but v is even
    # and k - lambda = 5 is not a square; for (16, 6, 2) it is 4 = 2^2.
    assert is_symmetric_admissible(22, 7, 2) == (
        False, ["v = 22 is even but k - lambda = 5 is not a square"]
    )


def test_bruck_ryser_chowla():
    # No projective plane of order 6, and no biplane with k = 8.
    assert is_symmetric_admissible(43, 7, 1) == (
        False,
        ["v = 43 is odd but x^2 = 6y^2 - 1z^2 has no nontrivial integer solution (Bruck-Ryser-Chowla)"],
    )
    assert not is_symmetric_admissible(29, 8, 2)[0]
    assert not is_symmetric_admissible(247, 42, 7)[0]
    # Order 10 passes BRC; (81, 16, 3) passes too, as does the known
    # (37, 9, 2) biplane.
    for triple in ((111, 11, 1), (81, 16, 3), (37, 9, 2), (7, 3, 1)):
        assert is_symmetric_admissible(*triple) == (True, [])


def _plane(n: int) -> tuple[int, int, int]:
    return (n * n + n + 1, n + 1, 1)


def test_bruck_ryser_chowla_factor_limit():
    # k - lambda = n, not a square: up to the limit it is factored, above it
    # the test refuses rather than trial-divide without bound.
    # 999999999989, a prime = 1 mod 4 near the limit, is the slow case.
    assert TRIAL_DIVISION_LIMIT == 10**12
    assert is_symmetric_admissible(*_plane(999_999_999_989)) == (True, [])
    assert is_symmetric_admissible(*_plane(TRIAL_DIVISION_LIMIT - 2))[0] is False
    for n in (TRIAL_DIVISION_LIMIT + 1, 10**18 + 3):
        with pytest.raises(DomainError) as refused:
            is_symmetric_admissible(*_plane(n))
        assert str(refused.value) == (
            "Bruck-Ryser-Chowla needs k - lambda and lambda <= 1000000000000 "
            f"when k - lambda is not a square, got {n} and 1"
        )
    # A square k - lambda needs no factoring, however large.
    assert is_symmetric_admissible(*_plane((10**9 + 7) ** 2)) == (True, [])


# Every odd v up to this bound is checked against sympy's solver.
BRC_ORACLE_V_MAX = 201


def test_bruck_ryser_chowla_matches_sympy():
    from sympy import symbols
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

    x, y, z = symbols("x y z", integer=True)
    checked = rejected = 0
    for v in range(3, BRC_ORACLE_V_MAX + 1, 2):
        for k in range(2, v):
            lam, rest = divmod(k * (k - 1), v - 1)
            if rest or lam < 1 or k * k <= lam * v:
                continue
            # Every other condition holds, so BRC alone decides.
            c = lam if v % 4 == 1 else -lam
            solvable = diop_ternary_quadratic(x**2 - (k - lam) * y**2 - c * z**2)[0] is not None
            assert is_symmetric_admissible(v, k, lam)[0] == solvable, (v, k, lam)
            checked += 1
            rejected += not solvable
    # Not vacuous: BRC rejects 60 of the 398 triples.
    assert (checked, rejected) == (398, 60)


def test_admissible_requires_fisher():
    # lambda*(v-1) = k*(k-1) holds but k**2 <= lambda*v
    ok, violations = is_symmetric_admissible(7, 3, 1)
    assert ok  # 9 > 7
    ok, violations = is_symmetric_admissible(4, 3, 2)
    assert ok  # complete design boundary: 9 > 8


def test_focus_condition():
    assert satisfies_focus_condition(6, 2)
    assert satisfies_focus_condition(25, 5)
    assert not satisfies_focus_condition(3, 3)
    assert satisfies_focus_condition(2, 1)  # 2 > -1
    assert not satisfies_focus_condition(15, 5)  # 15 = 5*3


@pytest.mark.parametrize(
    "predicate, args", [(satisfies_focus_condition, (0, 1)), (satisfies_focus_condition, (1, 0))]
)
def test_predicates_reject_nonpositive_parameters(predicate, args):
    with pytest.raises(DomainError, match="k and lambda must be positive"):
        predicate(*args)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=1, max_value=10**3),
    st.integers(min_value=1, max_value=10**3),
)
def test_flag_parameters_solve_both_relations(v, delta, c):
    # None exactly when lambda = c((v-1)c + delta)/delta^2 is fractional;
    # otherwise k*c = lambda*delta and lambda(v-1) = k(k-1).
    params = flag_parameters(v, delta, c)
    assert (params is None) == (Fraction(c * ((v - 1) * c + delta), delta**2).denominator != 1)
    if params is not None:
        lam, k = params
        assert k * c == lam * delta
        assert lam * (v - 1) == k * (k - 1)


@pytest.mark.parametrize("args", [(1, 1, 1), (2, 0, 1), (2, 1, 0)])
def test_flag_parameters_reject_out_of_domain_input(args):
    with pytest.raises(DomainError, match=r"^need v >= 2, delta >= 1, c >= 1; got "):
        flag_parameters(*args)


# satisfies_focus_condition's docstring proves that for k, lambda >= 1 the
# focus condition is the ratio bound k/lambda > sqrt(k+1) - 1; the tests
# below check it against the oracle's (k+lambda)^2 > lambda^2 (k+1).


def test_ratio_examples():
    # 900 > 650, 36 <= 36 and 3969 > 2793
    for k, lam, holds in ((25, 5, True), (3, 3, False), (56, 7, True)):
        assert ratio_bound_holds(k, lam) is holds
        assert satisfies_focus_condition(k, lam) is holds


@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=2000))
def test_ratio_matches_float_when_safe(k, lam):
    # (k + lam)/lam > sqrt(k + 1); in this range floats are an adequate
    # oracle away from the boundary.
    exact = satisfies_focus_condition(k, lam)
    assert exact == ratio_bound_holds(k, lam)
    approx = (k + lam) / lam > math.sqrt(k + 1)
    if abs((k + lam) / lam - math.sqrt(k + 1)) > 1e-9:
        assert exact == approx


def test_ratio_boundary_exact():
    # k/lambda = sqrt(k+1) - 1 exactly at k = 3, lambda = 3, where
    # k = lambda(lambda-2): neither passes
    assert not ratio_bound_holds(3, 3)
    assert not satisfies_focus_condition(3, 3)
    # and at k = 8, lambda such that 8/lam = 3: lam isn't integral, but
    # (k, lam) = (8, 2): 100 > 36 passes
    assert ratio_bound_holds(8, 2)
    assert satisfies_focus_condition(8, 2)
