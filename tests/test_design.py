import math

from hypothesis import given
from hypothesis import strategies as st

from symreduce.design import (
    is_symmetric_admissible,
    k_lambda_ratio_exceeds_sqrt,
    satisfies_focus_condition,
)


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


def test_ratio_examples():
    assert k_lambda_ratio_exceeds_sqrt(25, 5) is True  # 900 > 650
    assert k_lambda_ratio_exceeds_sqrt(3, 3) is False  # 36 <= 36
    assert k_lambda_ratio_exceeds_sqrt(56, 7) is True  # 3969 > 2793


@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=2000))
def test_ratio_matches_float_when_safe(k, lam):
    # (k + lam)/lam > sqrt(k + 1); in this range floats are an adequate
    # oracle away from the boundary.
    exact = k_lambda_ratio_exceeds_sqrt(k, lam)
    approx = (k + lam) / lam > math.sqrt(k + 1)
    if abs((k + lam) / lam - math.sqrt(k + 1)) > 1e-9:
        assert exact == approx


def test_ratio_boundary_exact():
    # k/lambda = sqrt(k+1) exactly at k = 3, lambda = 3 must not pass
    assert not k_lambda_ratio_exceeds_sqrt(3, 3)
    # and at k = 8, lambda such that 8/lam = 3: lam isn't integral, but
    # (k, lam) = (8, 2): 100 > 36 passes
    assert k_lambda_ratio_exceeds_sqrt(8, 2)
