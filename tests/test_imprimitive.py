import pytest

from symreduce import design
from symreduce.design import is_symmetric_admissible
from symreduce.errors import DomainError
from symreduce.imprimitive import imprimitive_family


def test_lambda_2():
    fam = imprimitive_family(2)
    assert (fam.v, fam.k, fam.lam) == (16, 6, 2)
    # both class shapes degenerate to the same 4 x 4 split
    assert [(o.c, o.d, o.l) for o in fam.options] == [(4, 4, 2), (4, 4, 2)]


def test_lambda_3():
    fam = imprimitive_family(3)
    assert (fam.v, fam.k, fam.lam) == (45, 12, 3)
    assert [(o.c, o.d, o.l) for o in fam.options] == [(9, 5, 3), (5, 9, 2)]


def test_lambda_4():
    fam = imprimitive_family(4)
    assert (fam.v, fam.k, fam.lam) == (96, 20, 4)
    assert [(o.c, o.d, o.l) for o in fam.options] == [(16, 6, 4), (6, 16, 2)]


def test_domain():
    with pytest.raises(DomainError):
        imprimitive_family(1)
    with pytest.raises(DomainError):
        imprimitive_family(0)
    with pytest.raises(DomainError):
        imprimitive_family(-3)


@pytest.mark.parametrize("lam", list(range(2, 60)))
def test_family_always_admissible(lam):
    fam = imprimitive_family(lam)
    ok, violations = is_symmetric_admissible(fam.v, fam.k, fam.lam)
    assert ok, violations
    assert fam.v == lam * lam * (lam + 2)
    assert fam.k == lam * (lam + 1)
    # the family sits exactly on the focus boundary's admissible side
    assert fam.k > lam * (lam - 2)
    for opt in fam.options:
        assert opt.c * opt.d == fam.v
        assert opt.l <= opt.c
        assert fam.k % opt.l == 0
        assert fam.k // opt.l <= opt.d


def test_sweep_smoke():
    for lam in range(2, 2000, 97):
        fam = imprimitive_family(lam)
        assert fam.v == lam * lam * (lam + 2)


def test_family_needs_no_factoring(monkeypatch):
    # k - lambda = lambda^2 is a square, so Bruck-Ryser-Chowla holds at once.
    def no_factoring(n):
        raise AssertionError(f"factorized {n}")

    monkeypatch.setattr(design, "factorize", no_factoring)
    for lam in (9_999, 10_000):  # v odd, then v even
        imprimitive_family(lam)
