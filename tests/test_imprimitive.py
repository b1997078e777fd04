import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce import design
from symreduce.errors import DomainError
from symreduce.imprimitive import ClassOption, imprimitive_family

from .oracles import imprimitive_family_violations


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
    assert imprimitive_family_violations(imprimitive_family(lam)) == []


@given(st.integers(min_value=2, max_value=10**12))
def test_family_invariants_hold_at_large_lambda(lam):
    assert imprimitive_family_violations(imprimitive_family(lam)) == []


@pytest.mark.parametrize(
    "change, violation",
    [
        ({"v": 17}, "!= 30 = k(k-1)"),
        ({"k": 5}, "is not the family"),
        ({"lam": 5}, "focus condition fails"),
        ({"options": (ClassOption(4, 4, 4),)}, "l does not divide k"),
        ({"options": (ClassOption(2, 8, 3),)}, "l > c"),
        ({"options": (ClassOption(4, 2, 2),)}, "c*d != v"),
        ({"options": (ClassOption(16, 1, 2),)}, "a block meets k/l = 3 > d classes"),
    ],
    ids=["identity", "formula", "focus", "l-divides-k", "l-fits-c", "c-d-tile-v", "k-l-fits-d"],
)
def test_violations_name_a_broken_family(change, violation):
    broken = imprimitive_family_violations(imprimitive_family(2)._replace(**change))
    assert any(violation in message for message in broken), broken


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
        fam = imprimitive_family(lam)
        assert design.is_symmetric_admissible(fam.v, fam.k, fam.lam) == (True, [])
