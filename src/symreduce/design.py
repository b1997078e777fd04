"""Exact arithmetic for 2-design and symmetric-design parameters.

Every predicate is decided over the integers.  Square-root comparisons are
done by squaring, so strict inequalities stay strict at boundary cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import DomainError, NonIntegralError


@dataclass(frozen=True)
class DesignParams:
    """Parameters of a 2-(v,k,lambda) design with replication r and b blocks.

    Constructing one asserts the counting identities, so an instance is
    always arithmetically consistent.
    """

    v: int
    k: int
    lam: int
    r: int
    b: int

    def __post_init__(self):
        if min(self.v, self.k, self.lam, self.r, self.b) < 1:
            raise DomainError("all design parameters must be positive")
        if not 2 <= self.k < self.v:
            raise DomainError(f"need 2 <= k < v, got k={self.k}, v={self.v}")
        if self.lam * (self.v - 1) != self.r * (self.k - 1):
            raise DomainError("lambda(v-1) = r(k-1) violated")
        if self.b * self.k != self.v * self.r:
            raise DomainError("bk = vr violated")


@dataclass(frozen=True)
class SymmetricParams:
    """A symmetric design: b = v and r = k, so the triple (v,k,lambda)
    determines everything."""

    v: int
    k: int
    lam: int

    def __post_init__(self):
        ok, violations = is_symmetric_admissible(self.v, self.k, self.lam)
        if not ok:
            raise DomainError("; ".join(violations))

    @property
    def r(self) -> int:
        return self.k

    @property
    def b(self) -> int:
        return self.v


def derive_replication(v: int, k: int, lam: int) -> int:
    """r = lambda(v-1)/(k-1), when that is an integer."""
    if v < 3 or lam < 1 or not 2 <= k < v:
        raise DomainError(f"need v >= 3, 2 <= k < v, lambda >= 1; got v={v}, k={k}, lambda={lam}")
    num = lam * (v - 1)
    if num % (k - 1) != 0:
        raise NonIntegralError(f"(k-1)={k - 1} does not divide lambda(v-1)={num}")
    return num // (k - 1)


def symmetric_lambda(v: int, k: int) -> int:
    """lambda = k(k-1)/(v-1) for a symmetric design, when integral."""
    if not 2 <= k < v:
        raise DomainError(f"need 2 <= k < v, got k={k}, v={v}")
    num = k * (k - 1)
    if num % (v - 1) != 0:
        raise NonIntegralError(f"(v-1)={v - 1} does not divide k(k-1)={num}")
    return num // (v - 1)


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
    return not violations, violations


def suborbit_divisibility(r: int, lam: int, suborbit_len: int) -> bool:
    """True iff r divides lambda * suborbit_len.

    The replication number divides lambda times any union of nontrivial
    point-stabilizer orbit lengths; this is the single-orbit form.
    """
    if min(r, lam, suborbit_len) < 1:
        raise DomainError("inputs must be positive")
    return (lam * suborbit_len) % r == 0


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


def max_fixed_points(k: int, lam: int) -> int:
    """floor(k + sqrt(k-lambda)): the fixed-point bound for a nontrivial
    automorphism of a symmetric design."""
    if k <= lam:
        raise DomainError(f"bound requires k > lambda, got k={k}, lambda={lam}")
    return k + isqrt(k - lam)

