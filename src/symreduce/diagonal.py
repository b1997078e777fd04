"""Elimination of the simple-diagonal socle type.

For a diagonal action on |T|^(m-1) points the block size is pinned between
a divisibility gate and an odd-part inequality chain; under lambda > 100
the chain forces |T| < odd_part(|Out(T)|^4), which no simple group
satisfies.  This module mechanizes the bound on m, the odd-part chain and
the catalog-wide scan.
"""

from collections import namedtuple
from math import factorial

from . import atlas
from .errors import DomainError
from .intmath import odd_part


DiagonalCase = namedtuple("DiagonalCase", "group m")


def diag_m_admissible(order_t: int, m: int) -> bool:
    """|T|^(m-5) < m^4.  For m <= 5 the left side is a non-positive power,
    so the inequality is automatic."""
    if order_t < atlas.MIN_SIMPLE_ORDER or m < 3:
        raise DomainError(
            f"need order >= {atlas.MIN_SIMPLE_ORDER} and m >= 3, got {order_t}, {m}"
        )
    if m <= 5:
        return True
    return order_t ** (m - 5) < m**4


def _last_admissible_m() -> int:
    """The last m at which diag_m_admissible holds at the smallest simple
    order.  It bounds m for every T, since |T|^(m-5) grows with |T|, and the
    first failure is final: from there each step multiplies the left side by
    |T| and the right side by (1 + 1/m)^4 < 2."""
    m = 3
    while diag_m_admissible(atlas.MIN_SIMPLE_ORDER, m + 1):
        m += 1
    return m


# The multiplicities m of the diagonal action the odd-part chain covers,
# as an inclusive range.
M_RANGE = (2, _last_admissible_m())


# (m, odd_part(m!)^4) for each m of M_RANGE.  odd_part is multiplicative,
# so the odd-part test's right side odd_part(m!^4 * |Out|^4) is
# odd_part(m!)^4 * odd_part(|Out|)^4.
_ODD_FACTORIALS = tuple((m, odd_part(factorial(m)) ** 4) for m in range(M_RANGE[0], M_RANGE[1] + 1))

# The largest factor odd_part(m + 1)^4 by which odd_part(m!)^4 grows from
# one m of M_RANGE to the next: 625, from m = 4 to 5.
_LARGEST_STEP = max(b // a for (_, a), (_, b) in zip(_ODD_FACTORIALS, _ODD_FACTORIALS[1:]))


def _require_m(m: int, what: str) -> None:
    lo, hi = M_RANGE
    if not lo <= m <= hi:
        raise DomainError(f"{what} defined for {lo} <= m <= {hi}, got m={m}")


def diag_oddpart_test(g: atlas.SimpleGroupId, m: int) -> bool:
    """|T|^(m-1) < odd_part(m!^4 * |Out(T)|^4)."""
    _require_m(m, "odd-part test")
    return _oddpart_holds(atlas.facts(g), m)


def _oddpart_holds(fct: atlas.GroupFacts, m: int) -> bool:
    return fct.order ** (m - 1) < odd_part(factorial(m) ** 4 * fct.out_order**4)


class ImplicationCheck(
    namedtuple("ImplicationCheck", "group m premise conclusion constant_step_ok handled_by")
):
    """How the step from |T|^(m-1) < odd_part(m!^4 |Out|^4) down to
    |T| < odd_part(|Out|^4) was discharged for one (group, m)."""

    __slots__ = ()  # handled_by: "constant-step" or "direct-check"

    @property
    def valid(self) -> bool:
        return (not self.premise) or self.conclusion


def implication_check(g: atlas.SimpleGroupId, m: int) -> ImplicationCheck:
    """The generic route compares the constant odd_part(m!)^4 against
    |T|^(m-2); when that fails (only A5 at m=3, where 81 > 60) the
    implication is settled by evaluating the premise directly."""
    _require_m(m, "implication check")
    fct = atlas.facts(g)
    constant = odd_part(factorial(m)) ** 4
    # constant < |T|^(m-2) lets the m! factor be absorbed into |T| powers.
    constant_step_ok = constant < fct.order ** (m - 2) if m > 2 else constant == 1
    premise = _oddpart_holds(fct, m)
    conclusion = fct.order < odd_part(fct.out_order**4)
    return ImplicationCheck(
        group=g,
        m=m,
        premise=premise,
        conclusion=conclusion,
        constant_step_ok=constant_step_ok,
        handled_by="constant-step" if constant_step_ok else "direct-check",
    )


class DiagonalScanResult(
    namedtuple("DiagonalScanResult", "survivors near_misses catalog_bound catalog_size")
):
    __slots__ = ()

    def as_payload(self) -> dict:
        return {
            "catalog_bound": self.catalog_bound,
            "catalog_size": self.catalog_size,
            "m_range": list(M_RANGE),
            "survivors": [
                {"group": atlas.display_name(case.group), "m": case.m} for case in self.survivors
            ],
            "near_misses": [atlas.display_name(g) for g in self.near_misses],
        }


def diagonal_scan(catalog_bound: int) -> DiagonalScanResult:
    """Run the odd-part test for every cataloged T and every m in M_RANGE.

    survivors: (T, m) pairs passing the test (expected none), as
    DiagonalCase records; m >= 2 in each, since M_RANGE starts at 2.
    near_misses: groups with |T| < |Out|^4 that still fail the odd-part
    form, reported so the almost-sharp case is visible.  The scan reads
    |T| and |Out| off atlas.catalog_rows and builds the id of a group only
    when it reports it.

    The m of a group with |T| >= _LARGEST_STEP are tested up to the first
    that fails, since every later one fails too.  Write the test at m as
    |T|^(m-1) < F(m) * O with F(m) = odd_part(m!)^4 and O =
    odd_part(|Out|)^4.  From m to m + 1 the left side grows by the factor
    |T| and the right side by F(m+1)/F(m) = odd_part(m+1)^4, at most
    _LARGEST_STEP.  So if |T|^(m-1) >= F(m) * O, then
    |T|^m >= F(m) * O * |T| >= F(m) * O * F(m+1)/F(m) = F(m+1) * O, and the
    test fails at m + 1 as well.
    """
    survivors: list[DiagonalCase] = []
    near_misses: list[atlas.SimpleGroupId] = []
    rows = atlas.catalog_rows(catalog_bound)
    lo = M_RANGE[0]
    for row in rows:
        order_t, out = row[0], row[6]
        odd_out = odd_part(out) ** 4
        power = order_t ** (lo - 1)  # |T|^(m-1)
        for m, odd_factorial in _ODD_FACTORIALS:
            if power < odd_factorial * odd_out:
                survivors.append(DiagonalCase(atlas.catalog_group(row), m))
            elif order_t >= _LARGEST_STEP:
                break
            power *= order_t
        if odd_out <= order_t < out**4:
            near_misses.append(atlas.catalog_group(row))
    return DiagonalScanResult(
        survivors=tuple(survivors),
        near_misses=tuple(near_misses),
        catalog_bound=catalog_bound,
        catalog_size=len(rows),
    )
