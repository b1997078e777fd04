"""Elimination of the simple-diagonal socle type.

In this type G <= W = T^m.(Out(T) x S_m) (O'Nan-Scott; Liebeck, Praeger &
Saxl, J. Austral. Math. Soc. 1988), acting on the v = |T|^(m-1) cosets of
the diagonal subgroup, with |W_alpha| = |T|*|Out(T)|*m!.  The odd-part test
|T|^(m-1) < odd_part(m!^4 * |Out(T)|^4) holds for every such design, at
every lambda:

- gcd(v - 1, |T|) = 1, so the flag lemma (design.flag_parameters) gives
  k | lambda*d with d = gcd(v - 1, |Out(T)|*m!).  |T| is even
  (Feit-Thompson), so v - 1 is odd, and d divides odd_part(|Out(T)|*m!).
- The focus condition lambda(lambda - 2) < k <= lambda*d gives
  lambda <= d + 1, and k^2 > lambda*v gives v < lambda*d^2 <= (d + 1)d^2.
- d = 1 would give v < 2.  For odd d >= 3, (d + 1)d^2 < d^4, so
  v < d^4 <= odd_part(|Out(T)|*m!)^4 = odd_part(m!^4 * |Out(T)|^4).

For m >= 3 the m(|T| - 1) points that differ from alpha in one coordinate
form a G_alpha-invariant set, so k | lambda*m(|T| - 1) too.  The same steps
with d' = gcd(d, m(|T| - 1)) <= m(|T| - 1) give
|T|^(m-1) < (d' + 1)d'^2 < (m|T|)^3, the m bound |T|^(m-4) < m^3, which
leaves m <= 5 (M_RANGE).

Where odd_part(m!)^4 <= |T|^(m-2), the odd-part test gives
|T| < odd_part(|Out(T)|)^4 <= |Out(T)|^4, so T is a candidate of the
|T| < |Out(T)|^4 scan.  At every m of M_RANGE that holds from
CONSTANT_STEP_FLOOR on, and only A5 lies below it.  This module mechanizes
the m bound, the odd-part test and the catalog-wide scan;
report.simple_diagonal_verdict puts them together with the out4 scan.
"""

from collections import namedtuple
from itertools import count
from math import factorial

from . import atlas
from .errors import DomainError
from .intmath import odd_part


DiagonalCase = namedtuple("DiagonalCase", "group m")


def _m_bound_holds(order_t: int, m: int) -> bool:
    """|T|^(m-4) < m^3, the m bound of the module docstring.  For m <= 4
    the left side is a non-positive power of |T|, so it holds."""
    return m <= 4 or order_t ** (m - 4) < m**3


def _last_m() -> int:
    """The last m at which _m_bound_holds holds at the smallest simple
    order.  It bounds m for every T, since |T|^(m-4) grows with |T|, and the
    first failure, at some m >= 5, is final: from there each step multiplies
    the left side by |T| >= 60 and the right side by (1 + 1/m)^3 < 2."""
    m = 3
    while _m_bound_holds(atlas.MIN_SIMPLE_ORDER, m + 1):
        m += 1
    return m


# The multiplicities m of the diagonal action the odd-part chain covers,
# as an inclusive range.
M_RANGE = (2, _last_m())


# {m: odd_part(m!)^4} for each m of M_RANGE, m ascending.  odd_part is
# multiplicative, so the odd-part test's right side odd_part(m!^4 * |Out|^4)
# is odd_part(m!)^4 * odd_part(|Out|)^4.
_ODD_FACTORIALS = {m: odd_part(factorial(m)) ** 4 for m in range(M_RANGE[0], M_RANGE[1] + 1)}

# The largest factor odd_part(m + 1)^4 by which odd_part(m!)^4 grows from
# one m of M_RANGE to the next: 625, from m = 4 to 5.
_LARGEST_STEP = max(_ODD_FACTORIALS[m + 1] // _ODD_FACTORIALS[m] for m in range(M_RANGE[0], M_RANGE[1]))

# The least order from which odd_part(m!)^4 <= |T|^(m-2) at every m of
# M_RANGE, so that the odd-part test gives |T| < odd_part(|Out(T)|)^4: 81,
# set by m = 3.
CONSTANT_STEP_FLOOR = max(next(t for t in count(1) if c <= t ** (m - 2)) for m, c in _ODD_FACTORIALS.items())


def diag_oddpart_test(g: atlas.SimpleGroupId, m: int) -> bool:
    """|T|^(m-1) < odd_part(m!^4 * |Out(T)|^4)."""
    lo, hi = M_RANGE
    if not lo <= m <= hi:
        raise DomainError(f"odd-part test defined for {lo} <= m <= {hi}, got m={m}")
    fct = atlas.facts(g)
    return fct.order ** (m - 1) < odd_part(factorial(m) ** 4 * fct.out_order**4)


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
        for m, odd_factorial in _ODD_FACTORIALS.items():
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
