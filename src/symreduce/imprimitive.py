"""The parameter family the point-imprimitive branch collapses to:
(v, k, lambda) = (lambda^2*(lambda+2), lambda*(lambda+1), lambda), with two
admissible class structures (c, d, l)."""

from collections import namedtuple

from .design import is_symmetric_admissible, satisfies_focus_condition
from .errors import DomainError


class ClassOption(namedtuple("ClassOption", "c d l")):
    """d classes of size c; every block meets a class in 0 or l points."""

    __slots__ = ()


class ImprimitiveFamily(namedtuple("ImprimitiveFamily", "lam v k options")):
    __slots__ = ()

    def as_payload(self) -> dict:
        return {
            "lambda": self.lam,
            "v": self.v,
            "k": self.k,
            "options": [[opt.c, opt.d, opt.l] for opt in self.options],
        }


def imprimitive_family(lam: int) -> ImprimitiveFamily:
    """Instantiate the family at lambda and re-check every structural
    constraint: the symmetric identity, the focus condition, c*d = v,
    l | k, and block-class accounting k/l <= d."""
    if lam < 2:
        raise DomainError(f"family needs lambda >= 2, got {lam}")
    v = lam * lam * (lam + 2)
    k = lam * (lam + 1)
    options = (ClassOption(lam * lam, lam + 2, lam), ClassOption(lam + 2, lam * lam, 2))
    admissible, violations = is_symmetric_admissible(v, k, lam)
    if not admissible:
        raise DomainError("; ".join(violations))
    if not satisfies_focus_condition(k, lam):
        raise DomainError("focus condition fails, family formula broken")
    for opt in options:
        if opt.c * opt.d != v:
            raise DomainError(f"class sizes do not tile the points: {opt}")
        if opt.l > opt.c:
            raise DomainError(f"intersection exceeds class size: {opt}")
        if k % opt.l != 0:
            raise DomainError(f"intersection size does not divide k: {opt}")
        if k // opt.l > opt.d:
            raise DomainError(f"block meets more classes than exist: {opt}")
    return ImprimitiveFamily(lam=lam, v=v, k=k, options=options)
