"""Finite simple groups as data: exact orders, outer automorphism group
orders, a bounded catalog, and the scan for |T| < |Out(T)|^4.

Identifiers carry (family, n, p, f) with q = p^f, or a name for sporadic
groups, whose |T| and |Out(T)| are stated once in _SPORADIC_FACTS.  Each
Lie family's order is stated once, as a datum
(_order_datum); |Out(T)| = d*f*g, the largest centre d_max, the order
floor 2*d_max*|T| > q^e and the |Out| cap are derived from it.  Floors
and caps only decide where an exact value is needed, never substitute
for one.
"""

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import count
from math import factorial, gcd

from .errors import DomainError
from .intmath import int_nth_root, is_prime, prime_power_parts, prime_power_triples


class Family(Enum):
    ALTERNATING = "alternating"
    SPORADIC = "sporadic"
    LINEAR = "linear"
    UNITARY = "unitary"
    SYMPLECTIC = "symplectic"
    ORTHOGONAL_ODD = "orthogonal_odd"
    ORTHOGONAL_PLUS = "orthogonal_plus"
    ORTHOGONAL_MINUS = "orthogonal_minus"
    G2 = "g2"
    F4 = "f4"
    E6 = "e6"
    E7 = "e7"
    E8 = "e8"
    SUZUKI = "suzuki"
    REE_G2 = "ree_g2"
    REE_F4 = "ree_f4"
    STEINBERG_3D4 = "steinberg_3d4"
    STEINBERG_2E6 = "steinberg_2e6"
    TITS = "tits"

    # Members are singletons and Enum.__eq__ is identity, so the identity
    # hash agrees with it; it runs in C, where Enum.__hash__ is Python code.
    __hash__ = object.__hash__


_FAMILIES = tuple(Family)
_FAMILY_INDEX = {fam: i for i, fam in enumerate(_FAMILIES)}

# The display symbol of each family parameterized by q = p^f: a classical
# group is written symbol, n, (q), as O+8(2), and an exceptional one symbol,
# (q), as 2B2(8).  Display, parse and error texts all read this table.
_SYMBOL = {
    Family.LINEAR: "L",
    Family.UNITARY: "U",
    Family.SYMPLECTIC: "S",
    Family.ORTHOGONAL_ODD: "O",
    Family.ORTHOGONAL_PLUS: "O+",
    Family.ORTHOGONAL_MINUS: "O-",
    Family.G2: "G2",
    Family.F4: "F4",
    Family.E6: "E6",
    Family.E7: "E7",
    Family.E8: "E8",
    Family.SUZUKI: "2B2",
    Family.REE_G2: "2G2",
    Family.REE_F4: "2F4",
    Family.STEINBERG_3D4: "3D4",
    Family.STEINBERG_2E6: "2E6",
}

# |A5|, the smallest order of a non-abelian simple group.
MIN_SIMPLE_ORDER = 60

# The catalog bound that `reduce` scans, and the default bound of `atlas
# catalog` and `diagonal scan`.
DEFAULT_CATALOG_BOUND = 10_000_000


class SimpleGroupId(namedtuple("SimpleGroupId", "family n p f name", defaults=(0, 0, 0, ""))):
    """Identifier of a finite simple group.

    Lie-type families use (n, p, f); alternating uses n as the degree;
    sporadic entries use name.  The Tits group gets its own family tag so
    "examine all simple groups" loops cannot skip it.
    """

    __slots__ = ()

    @property
    def q(self) -> int:
        return self.p**self.f

    def sort_key(self):
        return (_FAMILY_INDEX[self.family], self.n, self.p, self.f, self.name)


GroupFacts = namedtuple("GroupFacts", "order out_order")


# -- constructors (validate, then canonicalize) ----------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def alternating(n: int) -> SimpleGroupId:
    _require(n >= 5, f"alternating degree must be >= 5, got {n}")
    return SimpleGroupId(Family.ALTERNATING, n=n)


def sporadic(name: str) -> SimpleGroupId:
    if name == _TITS_NAME:
        return tits()
    _require(name in _SPORADIC_FACTS, f"unknown sporadic group {name!r}")
    return SimpleGroupId(Family.SPORADIC, name=name)


def tits() -> SimpleGroupId:
    return SimpleGroupId(Family.TITS, name=_TITS_NAME)


def lie(fam: Family, n: int, q: int) -> SimpleGroupId:
    """The id of the Lie-type group of the family at dimension n and field
    size q, canonicalized; n is 0 for the exceptional families."""
    _require(fam in _SYMBOL, f"{fam.value} is not a Lie-type family")
    parts = prime_power_parts(q)
    _require(parts is not None, f"{_lie_name(fam, n, q)}: q={q} is not a prime power")
    _require(_in_domain(fam, n, *parts), f"{_lie_name(fam, n, q)} is outside its family's domain")
    g = SimpleGroupId(fam, n, *parts)
    return _ALIASES.get(g, g)


# The exceptional isomorphisms between members of the family domains, each
# raw id mapped to the canonical id of the same group, so that each group
# has exactly one identifier: L2(4) = L2(5) = A5, L2(9) = A6, L4(2) = A8,
# L3(2) = L2(7) and S4(3) = U4(2).
_ALIASES = {
    SimpleGroupId(Family.LINEAR, 2, 2, 2): SimpleGroupId(Family.ALTERNATING, 5),
    SimpleGroupId(Family.LINEAR, 2, 5, 1): SimpleGroupId(Family.ALTERNATING, 5),
    SimpleGroupId(Family.LINEAR, 2, 3, 2): SimpleGroupId(Family.ALTERNATING, 6),
    SimpleGroupId(Family.LINEAR, 4, 2, 1): SimpleGroupId(Family.ALTERNATING, 8),
    SimpleGroupId(Family.LINEAR, 3, 2, 1): SimpleGroupId(Family.LINEAR, 2, 7, 1),
    SimpleGroupId(Family.SYMPLECTIC, 4, 3, 1): SimpleGroupId(Family.UNITARY, 4, 2, 1),
}


# -- domains and exact orders -----------------------------------------------


def _in_domain(fam: Family, n: int, p: int, f: int) -> bool:
    """Whether (n, q = p^f), with p prime and f >= 1, names a simple group of
    the Lie-type family.  This is the one statement of the family domains:
    lie, _validate, the catalog walk and the scan all ask it.
    Exceptional families carry no dimension, so they need n = 0."""
    q = p**f
    if fam is Family.LINEAR:
        return n >= 2 and (n, q) not in ((2, 2), (2, 3))
    if fam is Family.UNITARY:
        return n >= 3 and (n, q) != (3, 2)
    if fam is Family.SYMPLECTIC:
        return n >= 4 and n % 2 == 0 and (n, q) != (4, 2)
    if fam is Family.ORTHOGONAL_ODD:
        return n >= 7 and n % 2 == 1 and p != 2
    if fam in (Family.ORTHOGONAL_PLUS, Family.ORTHOGONAL_MINUS):
        return n >= 8 and n % 2 == 0
    if fam not in _SYMBOL or n != 0:
        return False
    if fam is Family.G2:
        # G2(2) is not simple; its derived subgroup is PSU(3,3).
        return q >= 3
    if fam in (Family.SUZUKI, Family.REE_F4):
        return p == 2 and f % 2 == 1 and f >= 3
    if fam is Family.REE_G2:
        return p == 3 and f % 2 == 1 and f >= 3
    return True


def _validate(g: SimpleGroupId) -> None:
    """Raise DomainError unless g is an id that its family's constructor
    could return, before canonicalization.  The messages are built only on
    failure: this runs once per scan point."""
    fam = g.family
    if fam not in _SYMBOL:
        # The constructor raises on a bad degree or an unknown name; any
        # other field that differs from its id is stray.
        if g != (alternating(g.n) if fam is Family.ALTERNATING else sporadic(g.name)):
            raise DomainError(f"invalid {fam.value} identifier {g!r}")
        return
    if g.name:
        raise DomainError(f"invalid {fam.value} identifier {g!r}")
    # q is defined as p**f, so a prime p and f >= 1 are all it needs.
    if not (g.f >= 1 and is_prime(g.p)):
        raise DomainError(f"invalid prime power data p={g.p}, f={g.f}")
    if not _in_domain(fam, g.n, g.p, g.f):
        raise DomainError(f"{display_name(g)} is outside its family's domain")


# The order datum of each exceptional family (see _order_datum).  For 3D4,
# q^8 + q^4 + 1 = (q^12 - 1)/(q^4 - 1), so its factor (-4, 1) divides.
_EXCEPTIONAL_ORDER = {
    Family.G2: (6, ((6, 1), (2, 1)), (1, 1, 1)),
    Family.F4: (24, ((12, 1), (8, 1), (6, 1), (2, 1)), (1, 1, 1)),
    Family.E6: (36, ((12, 1), (9, 1), (8, 1), (6, 1), (5, 1), (2, 1)), (3, 1, 1)),
    Family.E7: (63, ((18, 1), (14, 1), (12, 1), (10, 1), (8, 1), (6, 1), (2, 1)), (2, 1, 1)),
    Family.E8: (120, ((30, 1), (24, 1), (20, 1), (18, 1), (14, 1), (12, 1), (8, 1), (2, 1)), (1, 1, 1)),
    Family.SUZUKI: (2, ((2, -1), (1, 1)), (1, 1, 1)),
    Family.REE_G2: (3, ((3, -1), (1, 1)), (1, 1, 1)),
    Family.REE_F4: (12, ((6, -1), (4, 1), (3, -1), (1, 1)), (1, 1, 1)),
    Family.STEINBERG_3D4: (12, ((12, 1), (-4, 1), (6, 1), (2, 1)), (1, 1, 1)),
    Family.STEINBERG_2E6: (36, ((12, 1), (9, -1), (8, 1), (6, 1), (5, -1), (2, 1)), (3, 1, -1)),
}

# The classical families, the Lie-type families with no exceptional order
# datum, carry a dimension parameter n as well.
_CLASSICAL_FAMILIES = frozenset(fam for fam in _SYMBOL if fam not in _EXCEPTIONAL_ORDER)

_TITS_NAME = "2F4(2)'"

# (|T|, |Out(T)|) of the 26 sporadic groups and the Tits group, by name
# (ATLAS of Finite Groups, Conway et al. 1985).  Lookup, parse, catalog and
# scan all read this table when they run.
_SPORADIC_FACTS = {
    "M11": GroupFacts(7920, 1),
    "M12": GroupFacts(95040, 2),
    "M22": GroupFacts(443520, 2),
    "M23": GroupFacts(10200960, 1),
    "M24": GroupFacts(244823040, 1),
    "J1": GroupFacts(175560, 1),
    "J2": GroupFacts(604800, 2),
    "J3": GroupFacts(50232960, 2),
    "J4": GroupFacts(86775571046077562880, 1),
    "Co1": GroupFacts(4157776806543360000, 1),
    "Co2": GroupFacts(42305421312000, 1),
    "Co3": GroupFacts(495766656000, 1),
    "Fi22": GroupFacts(64561751654400, 2),
    "Fi23": GroupFacts(4089470473293004800, 1),
    "Fi24'": GroupFacts(1255205709190661721292800, 2),
    "HS": GroupFacts(44352000, 2),
    "McL": GroupFacts(898128000, 2),
    "He": GroupFacts(4030387200, 2),
    "Ru": GroupFacts(145926144000, 1),
    "Suz": GroupFacts(448345497600, 2),
    "ON": GroupFacts(460815505920, 2),
    "HN": GroupFacts(273030912000000, 2),
    "Ly": GroupFacts(51765179004000000, 1),
    "Th": GroupFacts(90745943887872000, 1),
    "B": GroupFacts(4154781481226426191177580544000000, 1),
    "M": GroupFacts(808017424794512875886459904961710757005754368000000000, 1),
    _TITS_NAME: GroupFacts(17971200, 2),
}


@lru_cache(maxsize=None)
def _order_datum(fam: Family, n: int):
    """The order of a Lie-type family at dimension n, stated once, as
    (N, ((d_i, e_i), ...), (a, b, c)):

        |T| = q^N * prod(q^d_i - e_i) / gcd(a, q^b - c),

    where a factor with d_i < 0 divides the product of the factors before
    it by q^-d_i - e_i instead.  The gcd is the order d of the centre
    divided out, so d <= a, and |Out(T)| = d*f*g (Kleidman & Liebeck,
    Table 5.1.A; ATLAS)."""
    if fam in (Family.LINEAR, Family.UNITARY):
        eps = 1 if fam is Family.LINEAR else -1
        return n * (n - 1) // 2, tuple((i, eps**i) for i in range(2, n + 1)), (n, 1, eps)
    m = n // 2
    if fam in (Family.SYMPLECTIC, Family.ORTHOGONAL_ODD):
        return m * m, tuple((2 * i, 1) for i in range(1, m + 1)), (2, 1, 1)
    if fam in (Family.ORTHOGONAL_PLUS, Family.ORTHOGONAL_MINUS):
        eps = 1 if fam is Family.ORTHOGONAL_PLUS else -1
        return m * (m - 1), ((m, eps),) + tuple((2 * i, 1) for i in range(1, m)), (4, m, eps)
    if fam in _EXCEPTIONAL_ORDER:
        return _EXCEPTIONAL_ORDER[fam]
    raise DomainError(f"{fam.value} is not a Lie-type family")


def _centre(datum, q: int) -> int:
    """d, the order of the centre that the datum divides out at q."""
    a, b, c = datum[2]
    return gcd(a, q**b - c)


def _order_parts(datum, q: int) -> tuple[int, int]:
    """(N, d) with |T| = N // d for the order datum at q: N is the undivided
    order and d the order of the centre that is divided out.  At fixed
    (family, n), N strictly increases in q, while |T| need not."""
    top, factors, _ = datum
    num = q**top
    for deg, eps in factors:
        num = num * (q**deg - eps) if deg > 0 else num // (q**-deg - eps)
    return num, _centre(datum, q)


def _max_centre(fam: Family, n: int) -> int:
    """d_max = a, the largest d that the order datum of (family, n) gives."""
    return _order_datum(fam, n)[2][0]


def _graph_factor(fam: Family, n: int, p: int) -> int:
    """g in |Out(T)| = d*f*g: the outer automorphisms that are neither
    diagonal nor field automorphisms of F_q.  g depends on p only at p = 2
    and p = 3."""
    if fam is Family.LINEAR:
        return 2 if n >= 3 else 1
    if fam is Family.ORTHOGONAL_PLUS:
        return 6 if n == 8 else 2  # triality: S3 on O+8
    if fam is Family.STEINBERG_3D4:
        return 3
    if fam in (Family.UNITARY, Family.ORTHOGONAL_MINUS, Family.E6, Family.STEINBERG_2E6):
        return 2
    return 2 if (fam, n, p) in ((Family.SYMPLECTIC, 4, 2), (Family.G2, 0, 3), (Family.F4, 0, 2)) else 1


def _order(g: SimpleGroupId) -> int:
    """|T| for an id already known to be valid."""
    if g.family is Family.ALTERNATING:
        return factorial(g.n) // 2
    if g.family in (Family.SPORADIC, Family.TITS):
        return _SPORADIC_FACTS[g.name].order
    num, d = _order_parts(_order_datum(g.family, g.n), g.q)
    return num // d


def order(g: SimpleGroupId) -> int:
    """Exact |T|."""
    _validate(g)
    return _order(g)


def _out_order(g: SimpleGroupId) -> int:
    """|Out(T)| for an id already known to be valid; d*f*g for a Lie-type
    id, with d the order of its centre."""
    fam, n = g.family, g.n
    if fam is Family.ALTERNATING:
        return 4 if n == 6 else 2
    if fam in (Family.SPORADIC, Family.TITS):
        return _SPORADIC_FACTS[g.name].out_order
    return _centre(_order_datum(fam, n), g.q) * g.f * _graph_factor(fam, n, g.p)


def out_order(g: SimpleGroupId) -> int:
    """Exact |Out(T)|, including the diagonal/field/graph contributions and
    the D4 triality factor."""
    _validate(g)
    return _out_order(g)


def facts(g: SimpleGroupId) -> GroupFacts:
    _validate(g)
    return GroupFacts(_order(g), _out_order(g))


# -- display / parse --------------------------------------------------------


def _lie_name(fam: Family, n: int, q: int | str) -> str:
    # An exceptional id is valid only with n = 0.  Any other n is written, so
    # an invalid id is never shown under the name of a valid group.
    return f"{_SYMBOL[fam]}{n if n or fam in _CLASSICAL_FAMILIES else ''}({q})"


def display_name(g: SimpleGroupId) -> str:
    fam = g.family
    if fam is Family.ALTERNATING:
        return f"A{g.n}"
    if fam in (Family.SPORADIC, Family.TITS):
        return g.name
    return _lie_name(fam, g.n, g.q)


def parse_group(text: str) -> SimpleGroupId:
    """Inverse of display_name.  Sporadic names are matched first, so the
    one-letter groups B and M stay reachable.  A Lie name is a symbol, the
    decimal digits of n, then those of q in parentheses; a classical symbol
    takes the digits of n, and an exceptional symbol none."""
    token = text.strip()
    if token in ("Tits", _TITS_NAME):
        return tits()
    if token in _SPORADIC_FACTS:
        return sporadic(token)
    if token.startswith("A") and token[1:].isdecimal():
        return alternating(int(token[1:]))
    head, paren, q = token[:-1].partition("(")
    if token.endswith(")") and paren and q.isdecimal():
        # No symbol is another symbol followed by digits, so a name splits
        # at most one way.
        for fam, symbol in _SYMBOL.items():
            n = head[len(symbol) :]
            if head.startswith(symbol) and (n.isdecimal() if fam in _CLASSICAL_FAMILIES else not n):
                return lie(fam, int(n or 0), int(q))
    raise DomainError(f"cannot parse group name {token!r}")


# -- bounded catalog --------------------------------------------------------


def _row(fam: Family, n: int, q_max: int):
    """(q, p, f) for each q = p^f <= q_max in the domain of the Lie-type
    family at dimension n, ascending in q.  Every walk and scan of a
    (family, n) row reads it, from the one prime-power table."""
    return ((q, p, f) for q, p, f in prime_power_triples(q_max) if _in_domain(fam, n, p, f))


def _rank_values(fam: Family):
    """Dimensions n at which the Lie-type family has members, smallest
    first: 0 alone for an exceptional family, and without end for a
    classical one.  q = 5 lies in every classical family's domain at each
    of its dimensions."""
    if fam not in _CLASSICAL_FAMILIES:
        return (0,)
    return (n for n in count(2) if _in_domain(fam, n, 5, 1))


def _order_floor(fam: Family, n: int) -> tuple[int, int]:
    """(c, e) such that c*|T| > q^e at every q of a Lie-type family at
    dimension n.  The bound is monotone in q and n, which justifies the
    catalog's cutoff in n, and the scan prunes with it.

    It is derived from the order datum (N, factors, (a, b, c)): e = N +
    sum(d_i) is the degree of the undivided order, so |T| = q^e * P(q) / d
    with d <= d_max = a, and c = 2*d_max.  P(q) is a product of factors
    (1 - q^-d), one per factor q^d - 1, and of factors at least 1, such as
    (1 + q^-d) or (q^8 + q^4 + 1)/q^8 for 3D4.  Those degrees d are
    distinct and at least 2, except that O+_2m with m even repeats m >= 4,
    and 2B2, 2G2 and 2F4 have d = 1 but q >= 8.  So P(q) is at least
    (1 - 2^-4) * prod(1 - 2^-d for d >= 2) > 0.54, or prod(1 - 8^-d for
    d >= 1) > 0.85 for the twisted groups, and 2*d_max*|T| > q^e."""
    top, factors, (a, _, _) = _order_datum(fam, n)
    return 2 * a, top + sum(deg for deg, _ in factors)


def _out_cap(fam: Family, n: int) -> int:
    """K such that |Out(T)| <= K*f at every q = p^f of a Lie-type family at
    dimension n; the scan prunes with it.  K = g_max*d_max is derived from
    |Out(T)| = d*f*g, with d <= d_max and g_max the largest g over p."""
    return max(_graph_factor(fam, n, p) for p in (2, 3)) * _max_centre(fam, n)


def _walk_q(fam: Family, n: int, max_order: int, q_top: int, rows: list) -> bool:
    """Append the catalog row of each in-domain q at one (family, n) with
    |T| <= max_order, q ascending, except the keys of _ALIASES, and return
    whether the row has any q up to q_top.  |Out(T)| = d*f*g is read off
    the centre order d that the walk computes anyway, and the graph factor
    g, which depends on p only at p = 2 and p = 3, is found once for the
    other p.

    The walk reads the row up to q_top, the largest q that the order floor
    c*|T| > q^e leaves open.  It stops sooner once the undivided order
    N = d*|T| passes d_max*max_order.  N strictly increases in q, so every
    later q has |T| >= N/d_max > max_order.  |T| itself is not monotone
    (|L2(8)| = 504 > |L2(9)| = 360) and cannot stop the walk."""
    datum = _order_datum(fam, n)
    limit = _max_centre(fam, n) * max_order
    index = _FAMILY_INDEX[fam]
    graph = _graph_factor(fam, n, 5)
    q = 0
    for q, p, f in _row(fam, n, q_top):
        num, d = _order_parts(datum, q)
        if num > limit:
            break
        # A SimpleGroupId is a tuple, so the plain tuple of its fields finds
        # its key in _ALIASES.
        if num <= d * max_order and (fam, n, p, f, "") not in _ALIASES:
            rows.append((num // d, index, n, p, f, "", d * f * (graph if p > 3 else _graph_factor(fam, n, p))))
    return q > 0


def catalog_rows(max_order: int) -> list[tuple]:
    """The catalog as flat rows (|T|, family index, n, p, f, name,
    |Out(T)|): every finite simple group of order <= max_order, once per
    isomorphism class.  The fields from the family index to the name are
    SimpleGroupId.sort_key(), so the rows sort without a key function in
    nondecreasing order of |T|, ties broken by identifier; catalog_group
    builds a row's id.

    The walks list each group under each id in its family domains, and only
    the keys of _ALIASES are second ids: each is dropped, since its value
    names the same group, with the same |T|, which its own family's walk
    lists.  A Lie-type family's row at n ends at q_top =
    floor((c*max_order)^(1/e)) for its order floor c*|T| > q^e, since every
    larger q has |T| > max_order; the family stops at the first n whose row
    has no q up to q_top."""
    _require(max_order >= 1, "catalog bound must be positive")
    rows = []
    # |A_n| = n!/2 increases with n.
    for g in map(alternating, count(5)):
        fct = facts(g)
        if fct.order > max_order:
            break
        rows.append((fct.order, *g.sort_key(), fct.out_order))
    for name, fct in _SPORADIC_FACTS.items():
        if fct.order <= max_order:
            rows.append((fct.order, *sporadic(name).sort_key(), fct.out_order))
    for fam in _SYMBOL:
        for n in _rank_values(fam):
            c, e = _order_floor(fam, n)
            if not _walk_q(fam, n, max_order, int_nth_root(c * max_order, e), rows):
                break
    rows.sort()
    return rows


def catalog_group(row: tuple) -> SimpleGroupId:
    """The id of the group of a catalog row."""
    return SimpleGroupId(_FAMILIES[row[1]], *row[2:6])


def enumerate_catalog(max_order: int) -> list[tuple[SimpleGroupId, GroupFacts]]:
    """Every finite simple group of order <= max_order, once per isomorphism
    class, as (id, GroupFacts), in the order of catalog_rows."""
    return [(catalog_group(row), GroupFacts(row[0], row[6])) for row in catalog_rows(max_order)]


# -- the |T| < |Out(T)|^4 scan ----------------------------------------------


class RegionRow(namedtuple("RegionRow", "family n q")):
    """One (family, n) row of the certified region, where the order floor
    and the |Out| cap leave |T| < |Out(T)|^4 open; q is the largest
    in-domain q of the row that they leave open."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return _lie_name(self.family, self.n, f"q <= {self.q}")


class Out4ScanResult(namedtuple("Out4ScanResult", "candidates region n_max q_max")):
    __slots__ = ()

    def failing_checks(self) -> list[RegionRow]:
        """The rows of the certified region that the box misses."""
        return [row for row in self.region if row.n > self.n_max or row.q > self.q_max]

    @property
    def ok(self) -> bool:
        """Whether the box covers the certified region, so that the
        candidates are every simple group with |T| < |Out(T)|^4, not only
        those inside the box."""
        return not self.failing_checks()

    @property
    def matches_reference(self) -> bool:
        """Whether the box covers the certified region and the candidates
        are exactly the reference ones."""
        return self.ok and tuple(map(display_name, self.candidates)) == REFERENCE_OUT4_CANDIDATES

    def as_payload(self) -> dict:
        return {
            "n_max": self.n_max,
            "q_max": self.q_max,
            "candidates": [display_name(g) for g in self.candidates],
            "tail_ok": self.ok,
            "label": (
                "certified: the box covers the region that the order floors and |Out| caps leave open"
                if self.ok
                else f"verified within bounds [n_max={self.n_max}, q_max={self.q_max}]"
            ),
        }


def _row_settled(floor: tuple[int, int], cap: int, q: int) -> bool:
    """Whether the row bound settles every point of a (family, n) row from q
    on.  With b = bit_length(q) - 1, each such q' has q' >= 2^b and f <= b,
    so its ratio |Out|^4/|T| is below U(b) = c*(K*b)^4 / 2^(b*e) by the
    floor c*|T| > q^e and the cap |Out| <= K*f.  U(b+1) <= U(b) exactly when
    (b+1)^4 <= 2^e * b^4, and that holds for every larger b once it holds
    at b, so U(b) <= 1 bounds the rest of the row."""
    c, e = floor
    b = q.bit_length() - 1
    return (b + 1) ** 4 <= b**4 << e and c * (cap * b) ** 4 <= 1 << b * e


@lru_cache(maxsize=None)
def _certified_region() -> tuple[RegionRow, ...]:
    """Every (family, n) row of a Lie-type family where the row bound U(n, b)
    of _row_settled leaves |T| < |Out(T)|^4 open, with the largest
    in-domain q the row needs; every Lie-type group outside these rows has
    |Out|^4 < |T|.

    A row is walked in b up to the first b at which _row_settled holds, and
    needs every in-domain q < 2^b.  A classical family's ranks are walked up
    to the first one settled at b = 1, where U(n, b) <= 1 at every b.  Every
    later rank is settled too: for consecutive ranks n < n' from there on,
    c(n')*K(n')^4 <= 2^(e(n') - e(n)) * c(n)*K(n)^4 (c and K are 2n for L_n
    (n >= 3) and U_n, and at most 8 and 24 otherwise; e steps by at least
    2n + 1), so at every b >= 1

        U(n', b) / U(n, b) = c(n')*K(n')^4 / (c(n)*K(n)^4 * 2^(b*(e(n') - e(n)))) <= 1.
    """
    rows = []
    for fam in _SYMBOL:
        for n in _rank_values(fam):
            floor, cap = _order_floor(fam, n), _out_cap(fam, n)
            b = next(b for b in count(1) if _row_settled(floor, cap, 1 << b))
            if b == 1:
                break
            needed = [q for q, _, _ in _row(fam, n, (1 << b) - 1)]
            if needed:
                rows.append(RegionRow(fam, n, needed[-1]))
    return tuple(rows)


def certified_box() -> tuple[int, int]:
    """The smallest box (n_max, q_max) that out4_scan accepts and that covers
    the certified region: (5, 61), read off _certified_region."""
    region = _certified_region()
    return max(5, *(row.n for row in region)), max(row.q for row in region)


# The candidates of every box that covers the certified region, by display
# name; Out4ScanResult.matches_reference compares with it.
REFERENCE_OUT4_CANDIDATES = ("L3(4)",)


def out4_scan(n_max: int, q_max: int) -> Out4ScanResult:
    """Find the groups with |T| < |Out(T)|^4 among A5, ..., A_{n_max}, the
    sporadic groups and the Lie-type groups with n <= n_max, q <= q_max.
    Candidate ids are canonicalized before reporting.

    No alternating group but A5 can be a candidate: |Out(A_n)| <= 4, and
    |A_n| >= 360 > 4^4 for n >= 6, so A5 is the only one examined.  Only
    the points of the certified region (_certified_region) inside the box
    are examined, since every other Lie-type group has |Out|^4 < |T|.  Of
    those, a point whose own floor settles it, c*|Out|^4 <= q^e, gets no
    exact order; out_order is called once per point whose order is
    computed.  So when the box covers the region (ok), the candidates are
    every simple group with |T| < |Out(T)|^4."""
    _require(n_max >= 5, f"n_max must be >= 5, got {n_max}")
    _require(q_max >= 2, f"q_max must be >= 2, got {q_max}")
    candidates: dict[SimpleGroupId, int] = {}

    def _examine(g: SimpleGroupId) -> None:
        # out_order validates g for _order.  An alias names the same group,
        # so its |T| is the canonical id's.
        if out_order(g) ** 4 > (size := _order(g)):
            candidates[_ALIASES.get(g, g)] = size

    _examine(alternating(5))
    for name in _SPORADIC_FACTS:
        _examine(sporadic(name))

    region = _certified_region()
    for row in region:
        if row.n > n_max:
            continue
        c, e = _order_floor(row.family, row.n)
        for q, p, f in _row(row.family, row.n, min(row.q, q_max)):
            g = SimpleGroupId(row.family, n=row.n, p=p, f=f)
            if c * _out_order(g) ** 4 > q**e:
                _examine(g)

    ordered = sorted(candidates, key=lambda g: (candidates[g],) + g.sort_key())
    return Out4ScanResult(candidates=tuple(ordered), region=region, n_max=n_max, q_max=q_max)

