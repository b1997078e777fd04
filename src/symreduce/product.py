"""Elimination of the product socle type.

On v = v0^m points the flag lemma of design.flag_parameters, read with
k*a = lambda*m*(v0-1), pins lambda and k rationally in (m, a, v0); the
enumeration walks the finitely many (m, a, v0) that a_upper_bound and
v0_candidates leave, keeps those that pass its four gates (the v0 floor,
lambda integrality, the focus condition and admissibility), and handles
the m = 4 interval cases separately.
"""

from collections import namedtuple
from collections.abc import Sequence
from math import factorial, isqrt

from .design import COMPONENT_V0_MIN, DEFAULT_V0_MIN, V0_MIN_CHOICES
from .design import flag_parameters, is_symmetric_admissible, satisfies_focus_condition
from .errors import DomainError
from .intmath import divisors


def a_upper_bound(m: int) -> int:
    """Largest integer a strictly below
    (m^4 + m*sqrt(m^6 + (20m-36)(m^2+2))) / (10m-18), the positive root of
    (5m-9)a^2 - m^4*a - m^2(m^2+2); every surviving case has a below it.

    With k = lambda*m*(v0-1)/a, admissibility's k^2 > lambda*v gives
    a^2 < lambda*m^2*(v0-1)^2 / v0^m <= lambda*m^2 / (5m-9), by the lemma
    (5m-9)(v0-1)^2 <= v0^m for m, v0 >= 2: at m = 2 it is plain; at m = 3,
    v0^3 - 6(v0-1)^2 has derivative 3(v0-2)^2 and is 2 at v0 = 2; for
    m >= 4, v0^m >= 2^(m-3)*v0^3 and 6*2^(m-3) >= 5m-9.  The focus
    condition k > lambda(lambda-2) gives lambda < m(v0-1)/a + 2, and lambda
    integrality gives v0-1 | m*a(a+1) (v0_candidates), so
    lambda < m^2(a+1) + 2.  Together, (5m-9)a^2 < m^2*lambda <
    m^4(a+1) + 2m^2.

    Search upward: a is below the bound iff (10m-18)a - m^4 <= 0, or its
    square stays under m^2 * (m^6 + (20m-36)(m^2+2)).
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    disc = m**6 + (20 * m - 36) * (m * m + 2)

    def below(a: int) -> bool:
        t = (10 * m - 18) * a - m**4
        return t <= 0 or t * t < m * m * disc

    a = 1
    while below(a + 1):
        a += 1
    return a


def v0_candidates(m: int, a: int) -> list[int]:
    """All v0 >= 2 with (v0 - 1) dividing m*a*(a+1), ascending: lambda_from
    is integral only there, since (v0^m - 1)/(v0 - 1) is m mod (v0 - 1)."""
    if m < 2 or a < 1:
        raise DomainError(f"need m >= 2, a >= 1; got {m}, {a}")
    return [d + 1 for d in divisors(m * a * (a + 1))]


def lambda_from(m: int, a: int, v0: int) -> int | None:
    """lambda = (a^2*(v0^(m-1)+...+v0+1) + m*a) / (m^2*(v0-1)) when that is
    a positive integer, else None: the lambda of flag_parameters at
    v = v0^m, delta = m(v0-1) and c = a."""
    if m < 2 or a < 1 or v0 < 2:
        raise DomainError(f"need m >= 2, a >= 1, v0 >= 2; got {m}, {a}, {v0}")
    params = flag_parameters(v0**m, m * (v0 - 1), a)
    return None if params is None else params[0]


def power_gap_feasible(m: int, v0: int) -> bool:
    """sqrt(2*v0^(m-1) - 2*sqrt(2*v0^(m-1)) + 2) - 1 < m*(v0-1), the
    inequality that kills all m >= 4 for v0 >= 5, except at m = 4 and v0 in
    M4_V0.

    With X = 2*v0^(m-1) and R = m*(v0-1)+1 the condition is
    X + 2 - R^2 < 2*sqrt(X): true when S = X + 2 - R^2 <= 0, else S^2 < 4X.
    """
    if m < 2 or v0 < 2:
        raise DomainError(f"need m >= 2, v0 >= 2; got {m}, {v0}")
    x = 2 * v0 ** (m - 1)
    r = m * (v0 - 1) + 1
    s = x + 2 - r * r
    return s <= 0 or s * s < 4 * x


def _require_v0_min(v0_min: int) -> None:
    if v0_min not in V0_MIN_CHOICES:
        choices = " or ".join(map(str, V0_MIN_CHOICES))
        raise DomainError(f"v0_min must be {choices}, got {v0_min}")


# The component counts m the enumeration walks; m >= 4 is settled by the
# power-gap inequality and the separate m = 4 analysis.
M_VALUES = (2, 3)


def _m4_v0() -> tuple[int, ...]:
    """The component degrees v0 >= COMPONENT_V0_MIN at which
    power_gap_feasible(4, v0) holds.

    Only v0 with v0^(m-3) < m^2 need a check.  In power_gap_feasible's
    terms, v0^(m-3) >= m^2 gives v0^(m-1) >= (m*v0)^2 >= R^2, so X >= 2R^2,
    S > X/2 > 0 and S^2 > X^2/4 >= 4X: the inequality fails.  The same bound
    holds at every m >= 5 from v0 = 5 on, which is why M_VALUES stops at 3.
    """
    m = 4  # v0^(m-3) < m^2 is v0 < 16
    return tuple(v0 for v0 in range(COMPONENT_V0_MIN, m * m) if power_gap_feasible(m, v0))


# The component degrees the m = 4 analysis splits on.
M4_V0 = _m4_v0()


ProductCase = namedtuple("ProductCase", "m a v0 lam k")


class ProductTriple(namedtuple("ProductTriple", "v k lam witnesses")):
    """A surviving (v, k, lambda) with every witness (m, a, v0) that
    produced it."""

    __slots__ = ()

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.lam)

    def as_payload(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "witnesses": [
                {
                    "m": case.m,
                    "a": case.a,
                    "v0": case.v0,
                    "v0_below_5": case.v0 < COMPONENT_V0_MIN,
                }
                for case in self.witnesses
            ],
        }


def enumerate_product_cases(
    v0_min: int = DEFAULT_V0_MIN, m_values: tuple[int, ...] = M_VALUES
) -> list[ProductTriple]:
    """Walk a <= a_upper_bound(m) and v0 over v0_candidates(m, a), keeping
    the (v, k, lambda) that pass four gates: the v0 floor, lambda
    integrality, the focus condition, and admissibility, which includes the
    symmetric identity and k^2 > lambda*v.

    (lambda, k) is flag_parameters(v0^m, m(v0-1), a): G_alpha preserves
    the number of coordinates in which a point differs from alpha, so the
    m(v0-1) points that differ in one coordinate form a G_alpha-invariant
    set, and a is how many of them each block through alpha holds."""
    _require_v0_min(v0_min)
    by_triple: dict[tuple[int, int, int], list[ProductCase]] = {}
    for m in m_values:
        for a in range(1, a_upper_bound(m) + 1):
            for v0 in v0_candidates(m, a):
                if v0 < v0_min:
                    continue
                v = v0**m
                params = flag_parameters(v, m * (v0 - 1), a)
                if params is None:
                    continue
                lam, k = params
                if not satisfies_focus_condition(k, lam):
                    continue
                admissible, _ = is_symmetric_admissible(v, k, lam)
                if not admissible:
                    continue
                case = ProductCase(m=m, a=a, v0=v0, lam=lam, k=k)
                by_triple.setdefault((v, k, lam), []).append(case)
    triples = [
        ProductTriple(v=v, k=k, lam=lam, witnesses=tuple(cases))
        for (v, k, lam), cases in by_triple.items()
    ]
    triples.sort(key=lambda t: t.triple)
    return triples


# The enumeration as printed elsewhere reports exactly these three, each
# with the v0 of its witness; (16,6,2) needs v0 = 4 and so drops out when
# the component point set must have at least 5 points.  The CLI compares its
# own run against this reference outcome.
REFERENCE_PRODUCT_TRIPLES = {(16, 6, 2): 4, (121, 25, 5): 11, (441, 56, 7): 21}


def reference_triples(v0_min: int = DEFAULT_V0_MIN) -> tuple[tuple[int, int, int], ...]:
    _require_v0_min(v0_min)
    return tuple(t for t, v0 in REFERENCE_PRODUCT_TRIPLES.items() if v0 >= v0_min)


def triples_match_reference(triples: Sequence[ProductTriple], v0_min: int) -> bool:
    """Whether an enumeration at v0_min found exactly the reference triples."""
    return tuple(t.triple for t in triples) == reference_triples(v0_min)


# The divisors of the point stabilizer each m = 4 case leaves in its
# k-interval, all of which the lambda integrality test must reject.
REFERENCE_M4_CANDIDATES = {5: (243, 256), 6: (400, 405, 432)}


def m4_matches_reference(rep: "M4Report") -> bool:
    """Whether an m = 4 case left exactly the reference candidates, all rejected."""
    return rep.candidates == REFERENCE_M4_CANDIDATES[rep.v0] and not rep.survivors


class M4Rejection(namedtuple("M4Rejection", "k lam_numerator lam_denominator remainder")):
    __slots__ = ()

    @property
    def reason(self) -> str:
        return (
            f"lambda = {self.lam_numerator}/{self.lam_denominator} is not an "
            f"integer (remainder {self.remainder})"
        )


class M4Report(
    namedtuple("M4Report", "v0 k_interval k_min_exact stabilizer_order candidates rejections")
):
    __slots__ = ()

    @property
    def survivors(self) -> tuple[int, ...]:
        rejected = {r.k for r in self.rejections}
        return tuple(k for k in self.candidates if k not in rejected)

    def as_payload(self) -> dict:
        return {
            "v0": self.v0,
            "k_interval_open": list(self.k_interval),
            "k_min_exact": self.k_min_exact,
            "stabilizer_order": self.stabilizer_order,
            "candidates": list(self.candidates),
            "rejections": [{"k": r.k, "reason": r.reason} for r in self.rejections],
            "survivors": list(self.survivors),
        }


def _truncated_lower_bound(x: int) -> int:
    """The open lower bound on k obtained by truncating
    sqrt(X - 2*sqrt(X) + 2) - 1 to one decimal digit d/10 and then solving
    sqrt(k+1) - 1 > d/10: the bound is floor(((d+10)^2 - 100)/100).

    d is the largest integer with (d+10)^2 <= 100*(X+2) - 200*sqrt(X),
    i.e. A = 100*(X+2) - (d+10)^2 satisfies A >= 0 and A^2 >= 40000*X.
    """
    d = 0
    while True:
        a = 100 * (x + 2) - (d + 11) ** 2
        if a < 0 or a * a < 40000 * x:
            break
        d += 1
    return ((d + 10) ** 2 - 100) // 100


def _exact_lower_bound(x: int) -> int:
    """Smallest integer k with sqrt(k+1) - 1 > sqrt(X - 2*sqrt(X) + 2) - 1,
    i.e. k + 1 > X + 2 - 2*sqrt(X)."""
    t = isqrt(4 * x)
    k_min = x + 1 - t
    if t * t == 4 * x:
        k_min += 1
    return k_min


def m4_case(v0: int) -> M4Report:
    """The m = 4 interval case at a component degree v0 in M4_V0.

    The k-interval endpoints reproduce the one-decimal truncation used in
    the derivation (218 and 391); the sharp exact minima (220 and 392) are
    reported alongside and admit the same candidate sets.
    """
    if v0 not in M4_V0:
        split = ", ".join(map(str, M4_V0))
        raise DomainError(f"the m=4 analysis splits on v0 in {{{split}}}, got {v0}")
    m = 4
    x = 2 * v0 ** (m - 1)
    lower_open = _truncated_lower_bound(x)
    upper_open = (m * (v0 - 1) + 1) ** 2 - 1
    k_min_exact = _exact_lower_bound(x)
    # point stabilizer of the wreath product: ((v0-1)!)^4 * 4!
    stabilizer = factorial(v0 - 1) ** 4 * factorial(m)
    # k divides the stabilizer order; walking the short open interval tests
    # far fewer k than listing every divisor of the stabilizer.
    candidates = tuple(k for k in range(lower_open + 1, upper_open) if stabilizer % k == 0)
    v_minus_1 = v0**m - 1
    rejections = []
    for k in candidates:
        num = k * (k - 1)
        if num % v_minus_1 != 0:
            rejections.append(
                M4Rejection(
                    k=k,
                    lam_numerator=num,
                    lam_denominator=v_minus_1,
                    remainder=num % v_minus_1,
                )
            )
    return M4Report(
        v0=v0,
        k_interval=(lower_open, upper_open),
        k_min_exact=k_min_exact,
        stabilizer_order=stabilizer,
        candidates=candidates,
        rejections=tuple(rejections),
    )
