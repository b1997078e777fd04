"""Exact integer arithmetic for the reduction of flag-transitive symmetric designs.

Everything here is integer or Fraction arithmetic; no floats are consulted
for any decision.  The public surface re-exports the pieces most callers
want: design parameter checks, the simple-group catalog, the three
elimination scans, and the combined report.
"""

from .atlas import (
    Family,
    GroupFacts,
    SimpleGroupId,
    display_name,
    enumerate_catalog,
    facts,
    order,
    out4_scan,
    out_order,
    parse_group,
)
from .design import is_symmetric_admissible, k_lambda_ratio_exceeds_sqrt, satisfies_focus_condition
from .diagonal import (
    DiagonalScanResult,
    diag_m_admissible,
    diag_oddpart_test,
    diagonal_scan,
    implication_check,
)
from .errors import DomainError
from .imprimitive import ImprimitiveFamily, imprimitive_family
from .product import (
    ProductCase,
    ProductTriple,
    a_upper_bound,
    enumerate_product_cases,
    k_from,
    lambda_from,
    m4_case,
    multiplier_bound_holds,
    power_gap_feasible,
    v0_candidates,
)
from .report import VERSION, OnanScottType, ReduceConfig, Verdict, emit, report_payload, run_reduce

__version__ = VERSION

__all__ = [
    "DiagonalScanResult",
    "DomainError",
    "Family",
    "GroupFacts",
    "ImprimitiveFamily",
    "OnanScottType",
    "ProductCase",
    "ProductTriple",
    "ReduceConfig",
    "SimpleGroupId",
    "VERSION",
    "Verdict",
    "a_upper_bound",
    "diag_m_admissible",
    "diag_oddpart_test",
    "diagonal_scan",
    "display_name",
    "emit",
    "enumerate_catalog",
    "enumerate_product_cases",
    "facts",
    "implication_check",
    "imprimitive_family",
    "is_symmetric_admissible",
    "k_from",
    "k_lambda_ratio_exceeds_sqrt",
    "lambda_from",
    "m4_case",
    "multiplier_bound_holds",
    "order",
    "out4_scan",
    "out_order",
    "parse_group",
    "power_gap_feasible",
    "report_payload",
    "run_reduce",
    "satisfies_focus_condition",
    "v0_candidates",
]
