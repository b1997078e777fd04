"""Exact arithmetic for symmetric-design parameters.

Every predicate is decided over the integers.  Square-root comparisons are
done by squaring, so strict inequalities stay strict at boundary cases.
"""

from math import isqrt, prod

from .errors import DomainError
from .intmath import TRIAL_DIVISION_LIMIT, factorize

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
    identity_holds = lam * (v - 1) == k * (k - 1)
    if not identity_holds:
        violations.append(f"lambda(v-1) = {lam * (v - 1)} != {k * (k - 1)} = k(k-1)")
    if k * k <= lam * v:
        violations.append(f"k^2 = {k * k} <= {lam * v} = lambda*v")
    if not 2 <= k < v:
        violations.append(f"need 2 <= k < v, got k={k}, v={v}")
    # Schutzenberger: a symmetric design with v even has k - lambda a square.
    if v % 2 == 0 and (k < lam or isqrt(k - lam) ** 2 != k - lam):
        violations.append(f"v = {v} is even but k - lambda = {k - lam} is not a square")
    # Bruck-Ryser-Chowla: with v odd, x^2 = (k - lambda) y^2 + c z^2 has a
    # nontrivial integer solution, where c = (-1)^((v-1)/2) lambda.
    if v % 2 == 1 and identity_holds and k > lam:
        c = lam if v % 4 == 1 else -lam
        if not _has_rational_point(k - lam, c):
            violations.append(
                f"v = {v} is odd but x^2 = {k - lam}y^2 {'-' if c < 0 else '+'} {lam}z^2 "
                "has no nontrivial integer solution (Bruck-Ryser-Chowla)"
            )
    return not violations, violations


def _has_rational_point(n: int, c: int) -> bool:
    """Whether x^2 = n y^2 + c z^2 (n >= 1, c != 0) has a nontrivial integer
    solution.  A square n gives (isqrt(n), 1, 0).  Otherwise, by
    Hasse-Minkowski, it has one iff the Hilbert symbol (n, c)_p is 1 at every
    place p.  The symbol depends only on the squarefree parts of n and c.
    It is 1 at infinity, since n > 0, and at each odd p dividing neither
    part; by the product formula, the symbol at 2 is then the product of
    those at the odd p dividing n*c.  So it suffices that they are 1: with
    n = p^a u and c = p^b w, a, b in {0, 1}, (n, c)_p is the Legendre
    symbol of (-1)^(ab) u^b w^a mod p.  Raises DomainError when n is not a
    square and n or |c| exceeds TRIAL_DIVISION_LIMIT, the bound up to which
    intmath factors."""
    if isqrt(n) ** 2 == n:
        return True
    if max(n, abs(c)) > TRIAL_DIVISION_LIMIT:
        raise DomainError(
            f"Bruck-Ryser-Chowla needs k - lambda and lambda <= {TRIAL_DIVISION_LIMIT} "
            f"when k - lambda is not a square, got {n} and {abs(c)}"
        )
    n_odd = {p for p, e in factorize(n).items() if e % 2}
    c_odd = {p for p, e in factorize(abs(c)).items() if e % 2}
    n, c = prod(n_odd), prod(c_odd) * (1 if c > 0 else -1)
    for p in (n_odd | c_odd) - {2}:
        a, b = p in n_odd, p in c_odd
        u, w = n // p if a else n, c // p if b else c
        symbol_arg = (-1 if a and b else 1) * (u if b else 1) * (w if a else 1)
        if pow(symbol_arg, (p - 1) // 2, p) != 1:
            return False
    return True


def flag_parameters(v: int, delta: int, c: int) -> tuple[int, int] | None:
    """(lambda, k) of a flag-transitive symmetric design on v points where a
    G_alpha-invariant set Delta of delta points, alpha not in it, meets each
    block through alpha in c points; None when that lambda is not integral.

    The flag lemma: G_alpha is transitive on the k blocks through alpha and
    fixes Delta, so each meets Delta in the same c points.  Counting the
    pairs (beta in Delta, block through alpha and beta) both ways gives
    k*c = lambda*delta.  Put k = lambda*delta/c into lambda(v-1) = k(k-1):
    (v-1)c^2 = delta(lambda*delta - c), so lambda = c((v-1)c + delta)/delta^2.
    When lambda is an integer, k is a rational root of the monic integer
    polynomial x^2 - x - lambda(v-1), so k is an integer too.

    Corollaries: the G_alpha-orbits partition the other v - 1 points and
    each orbit size divides |G_alpha|, so k | lambda*d with
    d = gcd(v - 1, |G_alpha|).  Then the focus condition
    lambda(lambda-2) < k <= lambda*d gives lambda <= d + 1, and
    k^2 > lambda*v gives v < lambda*d^2 <= (d + 1)d^2."""
    if v < 2 or delta < 1 or c < 1:
        raise DomainError(f"need v >= 2, delta >= 1, c >= 1; got {v}, {delta}, {c}")
    num, den = c * ((v - 1) * c + delta), delta * delta
    if num % den:
        return None
    lam = num // den
    return lam, lam * delta // c


def satisfies_focus_condition(k: int, lam: int) -> bool:
    """k > lambda(lambda-2), the hypothesis the whole reduction runs under.

    For k, lambda >= 1 it is the same condition as the ratio bound
    k/lambda > sqrt(k+1) - 1.  Both sides of (k+lambda)/lambda > sqrt(k+1)
    are positive, so that bound is (k+lambda)^2 > lambda^2 (k+1), and
    (k+lambda)^2 - lambda^2 (k+1) = k^2 + 2k*lambda - k*lambda^2
    = k(k - lambda(lambda-2)), which is positive iff k > lambda(lambda-2)
    since k > 0."""
    if k < 1 or lam < 1:
        raise DomainError("k and lambda must be positive")
    return k > lam * (lam - 2)
