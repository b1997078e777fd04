"""Exact arithmetic for symmetric-design parameters.

Every predicate is decided over the integers.  Square-root comparisons are
done by squaring, so strict inequalities stay strict at boundary cases.
"""

from __future__ import annotations

from math import isqrt

from .errors import DomainError

# The choices of v0_min, the least component degree of a product action.
# 2, the default, keeps every arithmetic survivor; 5 is the least degree
# of a component with a non-abelian simple socle (A5 on 5 points).
DEFAULT_V0_MIN = 2
COMPONENT_V0_MIN = 5
V0_MIN_CHOICES = (DEFAULT_V0_MIN, COMPONENT_V0_MIN)


def is_symmetric_admissible(v: int, k: int, lam: int) -> tuple[bool, list[str]]:
    """Checks the symmetric-design identities; returns all violations
    instead of failing fast, which keeps CLI diagnostics useful."""
    if min(v, k, lam) < 1:
        raise DomainError("v, k, lambda must be positive")
    violations = []
    if lam * (v - 1) != k * (k - 1):
        violations.append(f"lambda(v-1) = {lam * (v - 1)} != {k * (k - 1)} = k(k-1)")
    if k * k <= lam * v:
        violations.append(f"k^2 = {k * k} <= {lam * v} = lambda*v")
    if not 2 <= k < v:
        violations.append(f"need 2 <= k < v, got k={k}, v={v}")
    # Schutzenberger: a symmetric design with v even has k - lambda a square.
    if v % 2 == 0 and (k < lam or isqrt(k - lam) ** 2 != k - lam):
        violations.append(f"v = {v} is even but k - lambda = {k - lam} is not a square")
    return not violations, violations


def satisfies_focus_condition(k: int, lam: int) -> bool:
    """k > lambda(lambda-2), the hypothesis the whole reduction runs under."""
    if k < 1 or lam < 1:
        raise DomainError("k and lambda must be positive")
    return k > lam * (lam - 2)


def k_lambda_ratio_exceeds_sqrt(k: int, lam: int) -> bool:
    """k/lambda > sqrt(k+1) - 1, decided as (k+lambda)^2 > lambda^2 (k+1)."""
    if k < 1 or lam < 1:
        raise DomainError("k and lambda must be positive")
    return (k + lam) ** 2 > lam * lam * (k + 1)
