"""The parameter family the point-imprimitive branch collapses to:
(v, k, lambda) = (lambda^2*(lambda+2), lambda*(lambda+1), lambda), with two
admissible class structures (c, d, l)."""

from collections import namedtuple

from .errors import DomainError


# d classes of size c; every block meets a class in 0 or l points.
ClassOption = namedtuple("ClassOption", "c d l")


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
    """Instantiate the family at lambda >= 2.  Nothing is checked after
    the formula, since every constraint holds identically for lambda >= 2,
    with v = lambda^2(lambda+2) and k = lambda(lambda+1):

    - The symmetric identity: v - 1 = (lambda+1)(lambda^2+lambda-1) and
      k - 1 = lambda^2+lambda-1, so lambda(v-1) = k(k-1).
    - k^2 > lambda*v: k^2 - lambda*v = lambda^2((lambda+1)^2 -
      lambda(lambda+2)) = lambda^2 > 0.
    - 2 <= k < v: k >= 6, and v - k = lambda(lambda^2+lambda-1) > 0.
    - Schutzenberger and Bruck-Ryser-Chowla: k - lambda = lambda^2 is a
      square, which is all Schutzenberger asks for even v; for odd v,
      (x, y, z) = (lambda, 1, 0) solves x^2 = lambda^2 y^2 + c z^2 for
      every c.  So the family is admissible, and design's test of it takes
      the square shortcut and factors nothing.
    - The focus condition: k = lambda(lambda+1) > lambda(lambda-2).
    - The class options (c, d, l) = (lambda^2, lambda+2, lambda) and
      (lambda+2, lambda^2, 2): c*d = v for both; l <= c, since
      lambda <= lambda^2 and 2 <= lambda+2; l | k, since lambda(lambda+1)
      is a multiple of lambda and, as a product of consecutive integers,
      of 2.  A block meets k/l classes, at most d of them: k/lambda =
      lambda+1 <= lambda+2, and k/2 = lambda(lambda+1)/2 <= lambda^2,
      since lambda+1 <= 2*lambda.

    tests/oracles.py's imprimitive_family_violations re-checks each of
    these, and the tests run it over lambda up to 10^4 and at random
    lambda up to 10^12."""
    if lam < 2:
        raise DomainError(f"family needs lambda >= 2, got {lam}")
    v = lam * lam * (lam + 2)
    k = lam * (lam + 1)
    options = (ClassOption(lam * lam, lam + 2, lam), ClassOption(lam + 2, lam * lam, 2))
    return ImprimitiveFamily(lam=lam, v=v, k=k, options=options)
