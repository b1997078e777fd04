import hashlib
import json

import pytest

from symreduce import atlas, cli, diagonal, product
from symreduce.atlas import sporadic
from symreduce.report import (
    HYPOTHESES,
    OnanScottType,
    Verdict,
    emit,
    report_payload,
    run_reduce,
    simple_diagonal_verdict,
)

from . import oracles


@pytest.fixture(scope="module")
def default_report():
    return run_reduce()


def test_top_level_keys(default_report):
    payload = report_payload(default_report)
    assert set(payload) == {"verdicts", "evidence", "hypotheses", "config", "version"}


def test_verdicts(default_report):
    payload = report_payload(default_report)
    assert payload["verdicts"] == {
        "affine": "open",
        "almost_simple": "open",
        "simple_diagonal": "eliminated_by_computation",
        "product": "eliminated_by_computation",
        "twisted_wreath": "eliminated_by_citation",
    }
    assert set(payload["verdicts"]) == {t.value for t in OnanScottType}
    assert all(v in {m.value for m in Verdict} for v in payload["verdicts"].values())


def test_simple_diagonal_verdict_needs_passing_tail_checks(default_report):
    diag = default_report.diagonal_result
    assert simple_diagonal_verdict(diag, default_report.out4_result) is Verdict.ELIMINATED_BY_COMPUTATION
    # This box finds L3(4), the reference candidate, but misses the certified
    # region, so L3(4) is not shown to be the only candidate.
    small = atlas.out4_scan(5, 4)
    assert [atlas.display_name(g) for g in small.candidates] == ["L3(4)"] and not small.ok
    assert not small.matches_reference
    assert simple_diagonal_verdict(diag, small) is Verdict.OPEN


def test_evidence_sections(default_report):
    evidence = report_payload(default_report)["evidence"]
    assert set(evidence) == {"simple_diagonal", "product", "twisted_wreath", "point_imprimitive"}
    sd = evidence["simple_diagonal"]
    assert sd["survivors"] == []
    assert sd["near_misses"] == ["L3(4)"]
    assert sd["m_range"] == [2, 5]
    assert sd["label"] == (
        "orders below the constant-step floor 81 from the catalog to 10000000, "
        "orders from it on from the out4 candidates"
    )
    scan = sd["out4_scan"]
    assert (scan["n_max"], scan["q_max"]) == atlas.certified_box()
    assert "warnings" not in scan
    assert scan["candidates"] == ["L3(4)"]
    assert scan["tail_ok"] is True
    assert scan["label"] == (
        "certified: the box covers the region that the order floors and |Out| caps leave open"
    )


def test_product_evidence(default_report):
    product = report_payload(default_report)["evidence"]["product"]
    got = [(t["v"], t["k"], t["lambda"]) for t in product["triples"]]
    assert (16, 6, 2) in got and (121, 25, 5) in got and (441, 56, 7) in got
    # the enumeration finds a fourth admissible triple, so the reference
    # comparison reports a mismatch rather than silently dropping it
    assert (81, 16, 3) in got
    assert product["matches_reference"] is False
    assert product["reference_triples"] == [[16, 6, 2], [121, 25, 5], [441, 56, 7]]
    m4 = {c["v0"]: c for c in product["m4_cases"]}
    assert m4[5]["candidates"] == [243, 256]
    assert m4[6]["candidates"] == [400, 405, 432]
    assert m4[5]["survivors"] == [] and m4[6]["survivors"] == []


def test_twisted_wreath_citation(default_report):
    tw = report_payload(default_report)["evidence"]["twisted_wreath"]
    assert "point-regular normal subgroup" in tw["citation"]
    assert "solvable" in tw["citation"]


def test_imprimitive_evidence(default_report):
    imp = report_payload(default_report)["evidence"]["point_imprimitive"]
    samples = {s["lambda"]: s for s in imp["samples"]}
    assert samples[3]["v"] == 45 and samples[3]["k"] == 12
    assert samples[4]["v"] == 96 and samples[4]["k"] == 20


def test_hypotheses_present(default_report):
    # The simple-diagonal elimination derives the odd-part premise for every
    # lambda and covers every group, so neither a lambda floor nor a scan
    # bound is assumed; what is left is cited or is the paper's hypothesis.
    hyps = report_payload(default_report)["hypotheses"]
    assert hyps == list(HYPOTHESES) == [
        "k > lambda(lambda - 2), the focus condition",
        "a simple-diagonal G satisfies G <= T^m.(Out(T) x S_m) "
        "(O'Nan-Scott; Liebeck, Praeger & Saxl, J. Austral. Math. Soc. 1988)",
        "every non-abelian finite simple group has even order (Feit-Thompson)",
        "the cited orders and outer automorphism group orders of the finite simple groups "
        "(Kleidman & Liebeck, Table 5.1.A; ATLAS of Finite Groups)",
    ]
    assert not any("lambda > 100" in h or "configured bounds" in h for h in hyps)


def test_json_determinism():
    a = emit(run_reduce(), "json")
    b = emit(run_reduce(), "json")
    assert a == b
    parsed = json.loads(a)
    assert parsed["version"] == "0.1.0"


# sha256 of the report bytes.  A change that means to alter the report
# updates these and records why in CHANGES.md.
_REPORT_SHA256 = {
    ("json", 2): "8a5e5ca7b762f4150048aff4fcdb792214c8b9319f4fee5270fb4c1a60284cf7",
    ("json", 5): "a2a58df46ebffdd6a7812e6d93b4fcdec97c696e1eee745e2145223b57f2f0ea",
    ("md", 2): "ccd4c04ecf3b3074ccc15d8528b739c158b734b0f26c7bd4ef38e0feeb5255e1",
    ("md", 5): "4af95deabfa2092b65fe57402bdee0498af5ef69e8357f56f7b03eae5eef4c6f",
}


@pytest.mark.parametrize("fmt, v0_min", sorted(_REPORT_SHA256))
def test_report_bytes_pinned(default_report, fmt, v0_min):
    rep = default_report if v0_min == 2 else run_reduce(v0_min)
    digest = hashlib.sha256(emit(rep, fmt).encode()).hexdigest()
    assert digest == _REPORT_SHA256[fmt, v0_min]


def test_markdown_sections(default_report):
    text = emit(default_report, "md")
    for heading in ["## Affine", "## Almost simple", "## Simple diagonal",
                    "## Product", "## Twisted wreath", "## Point-imprimitive case",
                    "## Configuration"]:
        assert heading in text, heading
    assert "tail checks pass; certified: the box covers the region" in text


def test_emit_rejects_unknown_format(default_report):
    with pytest.raises(ValueError):
        emit(default_report, "xml")


def test_empty_catalog_never_agrees(monkeypatch):
    # No simple group has order <= 59, so the odd-part scan carries no
    # evidence: the verdict is open and the run cannot agree, even with the
    # enumerated product triples taken as the reference.
    monkeypatch.setattr(atlas, "DEFAULT_CATALOG_BOUND", 59)
    report = run_reduce()
    assert report.diagonal_result.catalog_size == 0
    assert report.verdicts[OnanScottType.SIMPLE_DIAGONAL] is Verdict.OPEN
    found = {t.triple: t.witnesses[0].v0 for t in report.product_triples}
    monkeypatch.setattr(product, "REFERENCE_PRODUCT_TRIPLES", found)
    assert report.product_matches_reference is True
    assert report.agrees_with_reference is False


def test_out4_candidates_decide_the_verdict_by_the_odd_part_test(default_report, monkeypatch):
    # A fake group of order 2*10^7, past the 10^7 catalog, with |Out| = 96:
    # 2*10^7 < 96^4, so the certified out4 scan lists it beside L3(4).
    # odd_part(96)^4 = 81, so it fails the odd-part test at every m and the
    # verdict stands; only the comparison with the reference candidates
    # sees it.
    found = {t.triple: t.witnesses[0].v0 for t in default_report.product_triples}
    monkeypatch.setattr(product, "REFERENCE_PRODUCT_TRIPLES", found)
    assert cli.main(["reduce"]) == cli.EXIT_AGREES
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(2 * 10**7, 96))
    report = run_reduce()
    assert report.out4_result.ok and sporadic("FAKE") in report.out4_result.candidates
    assert not report.out4_result.matches_reference
    assert report.verdicts[OnanScottType.SIMPLE_DIAGONAL] is Verdict.ELIMINATED_BY_COMPUTATION
    assert report.product_matches_reference and not report.agrees_with_reference
    assert cli.main(["reduce"]) == cli.EXIT_DISAGREES
    # With |Out| = 99, odd_part(99)^4 > 2*10^7: it passes at m = 2.
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(2 * 10**7, 99))
    assert diagonal.diag_oddpart_test(sporadic("FAKE"), 2)
    assert run_reduce().verdicts[OnanScottType.SIMPLE_DIAGONAL] is Verdict.OPEN


def test_orders_below_the_constant_step_floor_need_the_catalog(monkeypatch):
    # A fake group of order 70 lies below the floor 81, where the step from
    # the odd-part test to |T| < |Out(T)|^4 fails (81 > 70 at m = 3), so
    # only the catalog scan tests it.  A scan to 65 misses it and leaves the
    # verdict open; a scan to 80 tests it and every group below the floor.
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(70, 1))
    out4 = atlas.out4_scan()
    assert out4.ok and sporadic("FAKE") not in out4.candidates
    assert simple_diagonal_verdict(diagonal.diagonal_scan(65), out4) is Verdict.OPEN
    scan = diagonal.diagonal_scan(diagonal.CONSTANT_STEP_FLOOR - 1)
    assert (scan.catalog_bound, scan.catalog_size, scan.survivors) == (80, 2, ())
    assert simple_diagonal_verdict(scan, out4) is Verdict.ELIMINATED_BY_COMPUTATION


def test_agreement_flag(default_report):
    # the fourth product triple keeps full agreement out of reach
    assert default_report.product_matches_reference is False
    assert default_report.agrees_with_reference is False


def test_agreement_compares_the_m4_candidates(default_report, monkeypatch):
    # With the enumeration taken as the reference, only the m = 4 cases can
    # disagree; their candidates are compared, not just their survivors.
    found = {t.triple: t.witnesses[0].v0 for t in default_report.product_triples}
    monkeypatch.setattr(product, "REFERENCE_PRODUCT_TRIPLES", found)
    assert default_report.agrees_with_reference is True
    monkeypatch.setattr(product, "REFERENCE_M4_CANDIDATES", {5: (243,), 6: (400, 405, 432)})
    assert all(not rep.survivors for rep in default_report.m4_reports)
    assert default_report.agrees_with_reference is False
    assert cli.main(["product", "m4", "5"]) == cli.EXIT_DISAGREES


def test_config_payload(default_report):
    config = report_payload(default_report)["config"]
    assert config == {
        "v0_min": 2,
        "imprimitive_samples": [2, 3, 4],
    }


# One record of each result type, taken from the default report where it
# holds one, with a field to assign to.
_RECORDS = {
    "ReductionReport": ("v0_min", lambda rep: rep),
    "DiagonalScanResult": ("survivors", lambda rep: rep.diagonal_result),
    "Out4ScanResult": ("candidates", lambda rep: rep.out4_result),
    "SimpleGroupId": ("n", lambda rep: rep.out4_result.candidates[0]),
    "RegionRow": ("q", lambda rep: rep.out4_result.region[0]),
    "GroupFacts": ("order", lambda rep: atlas.facts(rep.out4_result.candidates[0])),
    "DiagonalCase": ("m", lambda rep: diagonal.DiagonalCase(rep.out4_result.candidates[0], 3)),
    "ImplicationCheck": ("premise", lambda rep: oracles.implication_check(rep.out4_result.candidates[0], 3)),
    "ProductTriple": ("witnesses", lambda rep: rep.product_triples[0]),
    "ProductCase": ("k", lambda rep: rep.product_triples[0].witnesses[0]),
    "M4Report": ("candidates", lambda rep: rep.m4_reports[0]),
    "M4Rejection": ("k", lambda rep: rep.m4_reports[0].rejections[0]),
    "ImprimitiveFamily": ("options", lambda rep: rep.imprimitive_families[0]),
    "ClassOption": ("l", lambda rep: rep.imprimitive_families[0].options[0]),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable(default_report, name):
    # Ids and cases are hashed into sets and dict keys, so no field may change.
    field, pick = _RECORDS[name]
    record = pick(default_report)
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0
