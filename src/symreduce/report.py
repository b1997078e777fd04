"""Orchestration of the full reduction and deterministic report emission.

The verdict layout mirrors the case split: the five primitive socle types
get open / eliminated_by_computation / eliminated_by_citation verdicts,
the computational sections carry their witnesses and scan bounds, and the
point-imprimitive parameter family is attached as its own section.
"""

from collections import namedtuple
from enum import Enum

from . import __version__, atlas, design, diagonal, imprimitive, jsontext, product

# What the computed verdicts assume; diagonal's module docstring derives
# the simple-diagonal elimination from these and nothing else.
HYPOTHESES = (
    "k > lambda(lambda - 2), the focus condition",
    "a simple-diagonal G satisfies G <= T^m.(Out(T) x S_m) "
    "(O'Nan-Scott; Liebeck, Praeger & Saxl, J. Austral. Math. Soc. 1988)",
    "every non-abelian finite simple group has even order (Feit-Thompson)",
    "the cited orders and outer automorphism group orders of the finite simple groups "
    "(Kleidman & Liebeck, Table 5.1.A; ATLAS of Finite Groups)",
)

TWISTED_WREATH_CITATION = (
    "the socle would be a point-regular normal subgroup, and a point-regular "
    "normal subgroup of a flag-transitive automorphism group of a 2-design "
    "is solvable (cited), while this socle is a direct product of "
    "non-abelian simple groups"
)


class OnanScottType(Enum):
    AFFINE = "affine"
    ALMOST_SIMPLE = "almost_simple"
    SIMPLE_DIAGONAL = "simple_diagonal"
    PRODUCT = "product"
    TWISTED_WREATH = "twisted_wreath"


class Verdict(Enum):
    OPEN = "open"
    ELIMINATED_BY_COMPUTATION = "eliminated_by_computation"
    ELIMINATED_BY_CITATION = "eliminated_by_citation"


# The lambda values at which the report instantiates the imprimitive family.
IMPRIMITIVE_SAMPLES = (2, 3, 4)


class ReductionReport(
    namedtuple(
        "ReductionReport",
        "v0_min diagonal_result out4_result product_triples m4_reports imprimitive_families",
    )
):
    """The evidence of one run; verdicts are read off it."""

    __slots__ = ()

    @property
    def verdicts(self) -> dict[OnanScottType, Verdict]:
        return {
            OnanScottType.AFFINE: Verdict.OPEN,
            OnanScottType.ALMOST_SIMPLE: Verdict.OPEN,
            OnanScottType.SIMPLE_DIAGONAL: simple_diagonal_verdict(self.diagonal_result, self.out4_result),
            # Still written out: the surviving product triples are dismissed
            # by citation, not by this computation (see the evidence note).
            OnanScottType.PRODUCT: Verdict.ELIMINATED_BY_COMPUTATION,
            OnanScottType.TWISTED_WREATH: Verdict.ELIMINATED_BY_CITATION,
        }

    @property
    def product_matches_reference(self) -> bool:
        return product.triples_match_reference(self.product_triples, self.v0_min)

    @property
    def agrees_with_reference(self) -> bool:
        return (
            self.verdicts[OnanScottType.SIMPLE_DIAGONAL] is Verdict.ELIMINATED_BY_COMPUTATION
            and self.out4_result.matches_reference
            and self.product_matches_reference
            and all(map(product.m4_matches_reference, self.m4_reports))
        )


def simple_diagonal_verdict(
    diag_result: diagonal.DiagonalScanResult, out4_result: atlas.Out4ScanResult
) -> Verdict:
    """eliminated_by_computation only when the evidence covers every finite
    simple group T at every m of M_RANGE (diagonal's module docstring): the
    catalog scan reaches every order below CONSTANT_STEP_FLOOR and leaves no
    survivor, and the out4 scan is ok, so that its candidates include every
    T from the floor on that passes the odd-part test, and none of them
    passes it.  open otherwise."""
    lo, hi = diagonal.M_RANGE
    eliminated = (
        diag_result.catalog_bound >= diagonal.CONSTANT_STEP_FLOOR - 1
        and not diag_result.survivors
        and out4_result.ok
        and not any(diagonal.diag_oddpart_test(g, m) for g in out4_result.candidates for m in range(lo, hi + 1))
    )
    return Verdict.ELIMINATED_BY_COMPUTATION if eliminated else Verdict.OPEN


def run_reduce(v0_min: int = design.DEFAULT_V0_MIN) -> ReductionReport:
    """The full reduction; the catalog bound is read from atlas when it runs."""
    return ReductionReport(
        v0_min=v0_min,
        diagonal_result=diagonal.diagonal_scan(atlas.DEFAULT_CATALOG_BOUND),
        out4_result=atlas.out4_scan(),
        product_triples=tuple(product.enumerate_product_cases(v0_min)),
        m4_reports=tuple(product.m4_case(v0) for v0 in product.M4_V0),
        imprimitive_families=tuple(map(imprimitive.imprimitive_family, IMPRIMITIVE_SAMPLES)),
    )


# -- serialization ----------------------------------------------------------


def report_payload(report: ReductionReport) -> dict:
    """The canonical machine structure: verdicts, evidence, hypotheses,
    config, version.  Everything below is decimal integers, strings, bools
    and lists, so byte-identical serialization is just sorted keys."""
    diag = report.diagonal_result
    out4 = report.out4_result
    evidence = {
        "simple_diagonal": {
            **diag.as_payload(),
            "label": (
                f"orders below the constant-step floor {diagonal.CONSTANT_STEP_FLOOR} from the catalog "
                f"to {diag.catalog_bound}, orders from it on from the out4 candidates"
            ),
            "out4_scan": {
                **out4.as_payload(),
                "certified_region": [
                    {"family": row.family.value, "n": row.n, "q": row.q} for row in out4.region
                ],
            },
        },
        "product": {
            **product.enumeration_payload(report.product_triples, report.v0_min),
            "reference_triples": [list(t) for t in product.reference_triples(report.v0_min)],
            "m4_cases": [rep.as_payload() for rep in report.m4_reports],
            "surviving_triples_note": (
                "surviving triples are dismissed by external citation, not "
                "by this computation"
            ),
        },
        "twisted_wreath": {"citation": TWISTED_WREATH_CITATION},
        "point_imprimitive": {
            "family": "(v, k, lambda) = (lambda^2*(lambda+2), lambda*(lambda+1), lambda)",
            "class_options": "(c, d, l) = (lambda^2, lambda+2, lambda) or (lambda+2, lambda^2, 2)",
            "samples": [fam.as_payload() for fam in report.imprimitive_families],
        },
    }
    return {
        "verdicts": {t.value: v.value for t, v in report.verdicts.items()},
        "evidence": evidence,
        "hypotheses": list(HYPOTHESES),
        "config": {"v0_min": report.v0_min, "imprimitive_samples": list(IMPRIMITIVE_SAMPLES)},
        "version": __version__,
    }


def _markdown(report: ReductionReport) -> str:
    payload = report_payload(report)
    lines = ["# Reduction report", ""]
    lines.append(f"Version {payload['version']}.")
    lines.append("")
    lines.append("Hypotheses:")
    for hyp in payload["hypotheses"]:
        lines.append(f"- {hyp}")
    lines.append("")
    for otype in OnanScottType:
        lines.append(f"## {otype.value.replace('_', ' ').capitalize()}")
        lines.append("")
        lines.append(f"Verdict: `{payload['verdicts'][otype.value]}`")
        lines.append("")
        if otype is OnanScottType.SIMPLE_DIAGONAL:
            section = payload["evidence"]["simple_diagonal"]
            lines.append(
                f"Odd-part scan over {section['catalog_size']} groups with "
                f"|T| <= {section['catalog_bound']}, m in {section['m_range']}: "
                f"{len(section['survivors'])} survivors."
            )
            lines.append(f"Near misses: {', '.join(section['near_misses']) or 'none'}.")
            scan = section["out4_scan"]
            lines.append(
                f"|T| < |Out(T)|^4 scan: candidates "
                f"{', '.join(scan['candidates']) or 'none'}; "
                f"tail checks {'pass' if scan['tail_ok'] else 'FAIL'}; "
                f"{scan['label']}."
            )
        elif otype is OnanScottType.PRODUCT:
            section = payload["evidence"]["product"]
            lines.append(
                f"Enumeration with v0_min={section['v0_min']} over m in "
                f"{section['m_values']} found {len(section['triples'])} triples:"
            )
            for item in section["triples"]:
                witnesses = ", ".join(
                    f"(m={w['m']}, a={w['a']}, v0={w['v0']})" for w in item["witnesses"]
                )
                lines.append(
                    f"- (v={item['v']}, k={item['k']}, lambda={item['lambda']}) via {witnesses}"
                )
            lines.append(
                f"Matches the reference outcome: {section['matches_reference']}."
            )
            for m4 in section["m4_cases"]:
                lines.append(
                    f"m=4, v0={m4['v0']}: candidates {m4['candidates']} in open "
                    f"interval {tuple(m4['k_interval_open'])}, survivors "
                    f"{m4['survivors'] or 'none'}."
                )
        elif otype is OnanScottType.TWISTED_WREATH:
            lines.append(payload["evidence"]["twisted_wreath"]["citation"] + ".")
        else:
            lines.append("No computation applies; outside this tool's scope.")
        lines.append("")
    lines.append("## Point-imprimitive case")
    lines.append("")
    section = payload["evidence"]["point_imprimitive"]
    lines.append(f"Family: {section['family']} with {section['class_options']}.")
    for sample in section["samples"]:
        lines.append(
            f"- lambda={sample['lambda']}: (v, k) = ({sample['v']}, {sample['k']}), "
            f"options {sample['options']}"
        )
    lines.append("")
    lines.append("## Configuration")
    lines.append("")
    lines.append("```json")
    lines.append(jsontext.dumps(payload["config"]))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)


def emit(report: ReductionReport, fmt: str) -> str:
    """Serialize deterministically.  json output is byte-stable for a given
    config; md is the human-readable rendering of the same payload."""
    if fmt == "json":
        return jsontext.dumps(report_payload(report)) + "\n"
    if fmt == "md":
        return _markdown(report)
    raise ValueError(f"unsupported format {fmt!r}: expected 'json' or 'md'")
