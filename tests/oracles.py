"""Independent slow-path oracles.

These deliberately avoid the closed forms used by the package: instead of
computing lambda from (m, a, v0) directly, lambda_by_scan walks candidate
lambda values and checks the defining identity with plain multiplication,
and product_triples_by_brute_force finds the product triples with no
multiplier a at all.  Agreement between the two is what the equivalence
tests assert.  ratio_bound_holds states the k/lambda ratio bound that
satisfies_focus_condition's docstring proves equal to the focus condition,
and imprimitive_family_violations re-checks, at one lambda, the
identities that imprimitive_family's docstring proves.  The atlas oracles
redo the catalog, the |T| < |Out(T)|^4 scan and its certified region the
slow way; order_floor_holds and out_cap_holds check one group against the
order floor and the |Out| cap the scan prunes with.  The CLI oracle at the
end reads a command line with argparse, from the same command tree as
symreduce.cli, and the json and re oracles restate the JSON text and the
word tests that the package writes without those modules.
"""

import argparse
import json
import re
from fractions import Fraction
from math import factorial, gcd, isqrt
from pathlib import Path

from symreduce import atlas, cli
from symreduce.atlas import Family
from symreduce.design import is_symmetric_admissible
from symreduce.errors import DomainError
from symreduce.intmath import int_nth_root, prime_power_parts


def lambda_by_scan(m: int, a: int, v0: int, cap: int = 10**6) -> int | None:
    """Smallest lambda <= cap with a*k = lambda*m*(v0-1) and
    k*(k-1) = lambda*(v0**m - 1) for an integer k, else None.

    The identity forces k = lambda*m*(v0-1)/a, so lambda must be a
    multiple of a/gcd(a, m*(v0-1)); scan only those.
    """
    c = m * (v0 - 1)
    stride = a // gcd(a, c)
    v = v0**m
    for lam in range(stride, cap + 1, stride):
        if (lam * c) % a != 0:
            continue
        k = (lam * c) // a
        lhs = k * (k - 1)
        rhs = lam * (v - 1)
        if lhs == rhs:
            return lam
        if lhs > rhs:
            # k grows linearly in lambda while rhs grows linearly too,
            # but lhs is quadratic in lambda: once past, always past.
            return None
    return None


def product_triples_by_brute_force(m: int, v0_values, k_divides: bool = True) -> list:
    """(m, v0, v, k, lambda) for each v0 in v0_values and each lambda with
    lambda(lambda - 2) < v = v0**m, where k(k - 1) = lambda(v - 1) has an
    integer root k (read off by isqrt), k > lambda(lambda - 2), k divides
    lambda*m*(v0 - 1) (unless k_divides is false) and (v, k, lambda) is
    admissible.  It uses no multiplier a and no bound on one."""
    found = []
    for v0 in v0_values:
        v = v0**m
        lam = 1
        while lam * (lam - 2) < v:
            disc = 1 + 4 * lam * (v - 1)
            root = isqrt(disc)
            k = (1 + root) // 2
            if (
                root * root == disc
                and k > lam * (lam - 2)
                and (not k_divides or lam * m * (v0 - 1) % k == 0)
                and is_symmetric_admissible(v, k, lam)[0]
            ):
                found.append((m, v0, v, k, lam))
            lam += 1
    return found


def ratio_bound_holds(k: int, lam: int) -> bool:
    """k/lambda > sqrt(k+1) - 1 for k, lambda >= 1, decided as
    (k+lambda)^2 > lambda^2 (k+1)."""
    return (k + lam) ** 2 > lam * lam * (k + 1)


def imprimitive_family_violations(fam) -> list[str]:
    """The invariants of the point-imprimitive family that fam breaks, one
    message each; [] when there are none.  They are the family's formula
    at fam.lam, symmetric admissibility, the focus condition
    k > lambda(lambda - 2) and, for each class option (c, d, l), c*d = v,
    l <= c, l | k and k/l <= d: d classes of size c, each block meeting
    k/l of them in l points."""
    lam, v, k = fam.lam, fam.v, fam.k
    broken = []
    if (v, k) != (lam * lam * (lam + 2), lam * (lam + 1)):
        broken.append(f"(v, k) = ({v}, {k}) is not the family at lambda = {lam}")
    broken += is_symmetric_admissible(v, k, lam)[1]
    if k <= lam * (lam - 2):
        broken.append(f"focus condition fails: k = {k} <= {lam * (lam - 2)}")
    for c, d, l in fam.options:
        if c * d != v:
            broken.append(f"(c, d, l) = ({c}, {d}, {l}): c*d != v = {v}")
        if l > c:
            broken.append(f"(c, d, l) = ({c}, {d}, {l}): l > c")
        if k % l != 0:
            broken.append(f"(c, d, l) = ({c}, {d}, {l}): l does not divide k = {k}")
        elif k // l > d:
            broken.append(f"(c, d, l) = ({c}, {d}, {l}): a block meets k/l = {k // l} > d classes")
    return broken


# -- atlas: the catalog and the |T| < |Out(T)|^4 scan -----------------------
#
# Both walk q with prime_power_parts over plain ranges and take each Lie
# family's domain from the textbook conditions in _TEXTBOOK_DOMAIN, so
# neither shares the sieve, the domain predicate or the stop rule of the
# package; atlas.lie is only asked for the canonical id of a member.

_CLASSICAL = (
    Family.LINEAR,
    Family.UNITARY,
    Family.SYMPLECTIC,
    Family.ORTHOGONAL_ODD,
    Family.ORTHOGONAL_PLUS,
    Family.ORTHOGONAL_MINUS,
)

# Whether (n, q = p^f) names a simple group of the family, as the standard
# lists of finite simple groups state it: the least dimension, the parity
# of n, the characteristic and the small exceptions that are not simple or
# are counted elsewhere.  n is 0 for exceptional families.
_TEXTBOOK_DOMAIN = {
    # L2(2) and L2(3) are soluble.
    Family.LINEAR: lambda n, p, f: n >= 2 and (n, p**f) not in ((2, 2), (2, 3)),
    # U3(2) is soluble; U2(q) is L2(q).
    Family.UNITARY: lambda n, p, f: n >= 3 and (n, p**f) != (3, 2),
    # S4(2) is S6, not simple; S2(q) is L2(q).
    Family.SYMPLECTIC: lambda n, p, f: n >= 4 and n % 2 == 0 and (n, p**f) != (4, 2),
    # O(2m+1, 2^f) is S2m(2^f); O5 is S4 and O3 is L2.
    Family.ORTHOGONAL_ODD: lambda n, p, f: n >= 7 and n % 2 == 1 and p % 2 == 1,
    # O+6 is L4, O-6 is U4, and below that the groups are not new.
    Family.ORTHOGONAL_PLUS: lambda n, p, f: n >= 8 and n % 2 == 0,
    Family.ORTHOGONAL_MINUS: lambda n, p, f: n >= 8 and n % 2 == 0,
    # G2(2)' is U3(3).
    Family.G2: lambda n, p, f: n == 0 and p**f > 2,
    Family.F4: lambda n, p, f: n == 0,
    Family.E6: lambda n, p, f: n == 0,
    Family.E7: lambda n, p, f: n == 0,
    Family.E8: lambda n, p, f: n == 0,
    # 2B2(q), 2F4(q) with q = 2^(2m+1) and 2G2(q) with q = 3^(2m+1), m >= 1;
    # 2B2(2) is soluble, 2G2(3)' is L2(8) and 2F4(2)' is the Tits group.
    Family.SUZUKI: lambda n, p, f: n == 0 and p == 2 and f % 2 == 1 and f > 1,
    Family.REE_G2: lambda n, p, f: n == 0 and p == 3 and f % 2 == 1 and f > 1,
    Family.REE_F4: lambda n, p, f: n == 0 and p == 2 and f % 2 == 1 and f > 1,
    Family.STEINBERG_3D4: lambda n, p, f: n == 0,
    Family.STEINBERG_2E6: lambda n, p, f: n == 0,
}


def textbook_domain(fam: Family, n: int, q: int) -> bool:
    """Whether (fam, n, q) names a simple group of the Lie-type family."""
    parts = prime_power_parts(q)
    return parts is not None and _TEXTBOOK_DOMAIN[fam](n, *parts)


# Cited lower bounds c*|T| > q**e: (smallest dimension, c, e(n)) per
# classical family, e per exceptional family.
_CLASSICAL_CITED = {
    Family.LINEAR: (2, 1, lambda n: n * n - 2),
    Family.UNITARY: (3, 1, lambda n: n * n - 3),
    Family.SYMPLECTIC: (4, 4, lambda n: n * (n + 1) // 2),
    Family.ORTHOGONAL_ODD: (7, 8, lambda n: n * (n - 1) // 2),
    Family.ORTHOGONAL_PLUS: (8, 8, lambda n: n * (n - 1) // 2),
    Family.ORTHOGONAL_MINUS: (8, 8, lambda n: n * (n - 1) // 2),
}

_EXCEPTIONAL_CITED = {
    Family.G2: 12,
    Family.F4: 20,
    Family.E6: 20,
    Family.E7: 20,
    Family.E8: 20,
    Family.SUZUKI: 4,
    Family.REE_G2: 4,
    Family.REE_F4: 20,
    Family.STEINBERG_3D4: 20,
    Family.STEINBERG_2E6: 20,
}


def _prime_powers_by_parts(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if prime_power_parts(q) is not None]


def _build(fam: Family, n: int, q: int):
    """The canonical id of (fam, n, q), or None outside the textbook domain."""
    return atlas.lie(fam, n, q) if textbook_domain(fam, n, q) else None


def catalog_by_cited_bounds(max_order: int) -> list:
    """enumerate_catalog by the walk it replaced: each Lie family is walked
    up to the q at which its cited lower bound passes max_order, and every
    group found is kept by its exact order."""
    if max_order < 60:
        return []
    found = {}

    def admit(g):
        if g not in found:
            fct = atlas.facts(g)
            if fct.order <= max_order:
                found[g] = fct

    n = 5
    while factorial(n) // 2 <= max_order:
        admit(atlas.alternating(n))
        n += 1
    for name in atlas._SPORADIC_FACTS:
        admit(atlas.parse_group(name))
    for fam, (n, c, exponent) in _CLASSICAL_CITED.items():
        # q = 2 gives the weakest bound at each n, and e(n) increases.
        while 2 ** exponent(n) <= c * max_order:
            for q in _prime_powers_by_parts(int_nth_root(c * max_order, exponent(n)) + 1):
                g = _build(fam, n, q)
                if g is not None:
                    admit(g)
            n += 1
    for fam, exponent in _EXCEPTIONAL_CITED.items():
        for q in _prime_powers_by_parts(int_nth_root(max_order, exponent) + 1):
            g = _build(fam, 0, q)
            if g is not None:
                admit(g)
    return sorted(found.items(), key=lambda item: (item[1].order,) + item[0].sort_key())


def out4_grid(n_max: int, q_max: int):
    """(family, n, q, raw id) for every Lie-type point of the out4 scan grid:
    each (family, n <= n_max, q <= q_max) in the textbook domain, with the
    raw (n, p, f) id even where atlas.lie canonicalizes it (L2(4), L3(2),
    S4(3), ...)."""
    prime_powers = _prime_powers_by_parts(q_max)
    for fam in _TEXTBOOK_DOMAIN:
        for n in range(2, n_max + 1) if fam in _CLASSICAL else (0,):
            for q in prime_powers:
                if textbook_domain(fam, n, q):
                    p, f = prime_power_parts(q)
                    yield fam, n, q, atlas.SimpleGroupId(fam, n=n, p=p, f=f)


def order_floor_holds(g: atlas.SimpleGroupId) -> bool:
    """Whether c*|T| > q^e for the (c, e) of atlas._order_floor, which cuts
    off the catalog walk and prunes the out4 scan.  Raises DomainError on a
    group of no Lie-type family."""
    c, e = atlas._order_floor(g.family, g.n)
    return c * atlas.order(g) > g.q**e


def out_cap_holds(g: atlas.SimpleGroupId) -> bool:
    """Whether |Out(T)| <= K*f for the K of atlas._out_cap, which prunes the
    out4 scan.  Raises DomainError on a group of no Lie-type family."""
    return atlas._out_cap(g.family, g.n) * g.f >= atlas.out_order(g)


def out4_scan_by_fractions(n_max: int, q_max: int) -> tuple:
    """The candidates of out4_scan over the same box, with every ratio
    |Out|^4/|T| a Fraction computed at every grid point.  Candidates are
    canonicalized by parsing their display names."""
    candidates = {}

    def examine(g):
        t, o = atlas.order(g), atlas.out_order(g)
        if Fraction(o**4, t) > 1:
            canonical = atlas.parse_group(atlas.display_name(g))
            candidates[canonical] = atlas.order(canonical)

    for n in range(5, n_max + 1):
        examine(atlas.alternating(n))
    for name in atlas._SPORADIC_FACTS:
        examine(atlas.parse_group(name))
    for _, _, _, g in out4_grid(n_max, q_max):
        examine(g)
    ordered = sorted(candidates, key=lambda g: (candidates[g],) + g.sort_key())
    return tuple(ordered)


# The bounds the out4 scan prunes with, restated per family as
# (c, e, K)(n): the order floor c*|T| > q^e and the cap |Out(T)| <= K*f
# with q = p^f.  c is 2*d_max, twice the largest order d of the centre in
# the textbook |Out(T)| = d*f*g, and K the largest of d*g over p (Kleidman
# & Liebeck, Table 5.1.A).  e is the dimension of the algebraic group:
# n^2 - 1 for SL_n and SU_n, n(n+1)/2 for Sp_n, n(n-1)/2 for SO_n, 14, 52,
# 78, 133 and 248 for G2, F4, E6, E7 and E8, 28 for D4, and half the
# dimension of B2, G2 and F4 for 2B2, 2G2 and 2F4.
_SCAN_BOUNDS = {
    Family.LINEAR: lambda n: (2 * n, n * n - 1, 2 * n if n >= 3 else 2),
    Family.UNITARY: lambda n: (2 * n, n * n - 1, 2 * n),
    Family.SYMPLECTIC: lambda n: (2 * 2, n * (n + 1) // 2, 4 if n == 4 else 2),
    Family.ORTHOGONAL_ODD: lambda n: (2 * 2, n * (n - 1) // 2, 2),
    Family.ORTHOGONAL_PLUS: lambda n: (2 * 4, n * (n - 1) // 2, 24 if n == 8 else 8),
    Family.ORTHOGONAL_MINUS: lambda n: (2 * 4, n * (n - 1) // 2, 8),
    Family.G2: lambda n: (2 * 1, 14, 2),
    Family.F4: lambda n: (2 * 1, 52, 2),
    Family.E6: lambda n: (2 * 3, 78, 6),
    Family.E7: lambda n: (2 * 2, 133, 2),
    Family.E8: lambda n: (2 * 1, 248, 1),
    Family.SUZUKI: lambda n: (2 * 1, 10 // 2, 1),
    Family.REE_G2: lambda n: (2 * 1, 14 // 2, 1),
    Family.REE_F4: lambda n: (2 * 1, 52 // 2, 1),
    Family.STEINBERG_3D4: lambda n: (2 * 1, 28, 3),
    Family.STEINBERG_2E6: lambda n: (2 * 3, 78, 6),
}


def ranks(fam: Family, n_max: int) -> list:
    """The dimensions n <= n_max with members of the family; [0] for an
    exceptional family."""
    if fam not in _CLASSICAL:
        return [0]
    return [n for n in range(2, n_max + 1) if any(textbook_domain(fam, n, q) for q in range(2, 10))]


def out4_region_by_brute_force(n_max: int = 40, b_max: int = 200) -> frozenset:
    """Every (family, n, b) with n <= n_max and 1 <= b <= b_max at which the
    restated bounds leave |T| < |Out(T)|^4 open: U(n, b) = c*(K*b)^4 /
    2^(b*e) > 1.  A point with 2^b <= q < 2^(b+1) has f <= b, so its ratio
    |Out|^4/|T| is below U(n, b)."""
    region = set()
    for fam, bounds in _SCAN_BOUNDS.items():
        for n in ranks(fam, n_max):
            c, e, cap = bounds(n)
            region.update((fam, n, b) for b in range(1, b_max + 1) if c * (cap * b) ** 4 > 1 << b * e)
    return frozenset(region)


def out4_region_points(region: frozenset):
    """(family, n, q, raw id) for each q in the textbook domain with
    (family, n, bit_length(q) - 1) in the region."""
    for fam, n, b in sorted(region, key=lambda cell: (cell[0].value, cell[1], cell[2])):
        for q in range(1 << b, 2 << b):
            if textbook_domain(fam, n, q):
                yield fam, n, q, atlas.SimpleGroupId(fam, n, *prime_power_parts(q))


def box_covers(region: frozenset, n_max: int, q_max: int) -> bool:
    """Whether the box holds every region point."""
    return all(n <= n_max and q <= q_max for _, n, q, _ in out4_region_points(region))


# -- cli: the command line read by argparse ---------------------------------


class ArgparseRejects(Exception):
    """argparse refused the command line; argparse itself would exit 2."""


class _RaisingParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseRejects(message)


def _argparse_tree(parser, body, arguments):
    if callable(body):
        parser.set_defaults(func=body)
        for name in arguments:
            parser.add_argument(name, **cli._spec(name))
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for name, help_text, child, *child_arguments in body:
            _argparse_tree(sub.add_parser(name, help=help_text), child, child_arguments)
    return parser


def argparse_namespace(argv: list) -> dict:
    """The arguments argparse reads from argv, built from cli._COMMANDS and
    cli._ARGUMENTS: the handler as func and each argument by dest.  Raises
    ArgparseRejects where argparse rejects argv, and SystemExit(0) after
    printing the help that -h or --help asks for."""
    parser = _argparse_tree(_RaisingParser(prog="symreduce"), cli._COMMANDS, ())
    namespace = vars(parser.parse_args(argv))
    # The dest that names the chosen subcommand, which symreduce.cli does
    # not set: func already says which command runs.
    del namespace["command"]
    return namespace


# -- json and re: what the package writes without them ----------------------

# Words whose reading turns on what \d and $ accept: Unicode decimal
# digits, an empty n or q, a digit glued to an exceptional symbol, and a
# final newline.
WORDS = ["A05", "A٥", "L2(٨)", "G22(3)", "O+8()", "-5\n", "-.5", "-٣", "--v0", "- 5", "L2(8)\n", "A5\n",
         "A²", "L²(4)", "O(3)", "O+(3)", "L2(8))", "L2((8)", " 2F4(8) ", "2B2(٨)", "U٣(٣)"]


def catalog_names() -> list:
    """The display names of perfbench/catalog_1e9.txt, every simple group
    of order up to 10^9."""
    text = (Path(__file__).resolve().parent.parent / "perfbench" / "catalog_1e9.txt").read_text()
    return [line.split()[0] for line in text.splitlines() if line and not line.startswith("#")]


def json_text(obj) -> str:
    """The JSON text every symreduce output is byte-identical to."""
    return json.dumps(obj, sort_keys=True, indent=2)


def is_negative_number_by_regex(word: str) -> bool:
    """argparse's negative-number pattern, matched as argparse matches it."""
    return re.match(r"^-\d+$|^-\d*\.\d+$", word) is not None


def parse_group_by_regex(text: str):
    """atlas.parse_group with the alternating and Lie names matched by the
    patterns it once compiled."""
    token = text.strip()
    if token in ("Tits", atlas._TITS_NAME):
        return atlas.tits()
    if token in atlas._SPORADIC_FACTS:
        return atlas.sporadic(token)
    match = re.match(r"^A(\d+)$", token)
    if match:
        return atlas.alternating(int(match.group(1)))
    family_of_symbol = {symbol: fam for fam, symbol in atlas._SYMBOL.items()}
    symbols = "|".join(map(re.escape, family_of_symbol))
    match = re.match(rf"^({symbols})(\d*)\((\d+)\)$", token)
    if match:
        fam = family_of_symbol[match.group(1)]
        if (fam in atlas._CLASSICAL_FAMILIES) == bool(match.group(2)):
            return atlas.lie(fam, int(match.group(2) or 0), int(match.group(3)))
    raise DomainError(f"cannot parse group name {token!r}")
