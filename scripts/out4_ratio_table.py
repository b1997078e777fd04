#!/usr/bin/env python3
"""Print a per-family table of max |Out(T)|^4 / |T| ratios at the scan
boundary, to eyeball how much headroom the default bounds leave.

Usage: out4_ratio_table.py [n_max] [q_max]; the bounds default to those
of `reduce`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symreduce.atlas import display_name, out4_scan  # noqa: E402
from symreduce.report import ReduceConfig  # noqa: E402


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else ReduceConfig.out4_n_max
    q_max = int(sys.argv[2]) if len(sys.argv) > 2 else ReduceConfig.out4_q_max
    result = out4_scan(n_max, q_max)
    print(f"scan bounds: n_max={n_max}, q_max={q_max}")
    print(f"candidates: {[display_name(g) for g in result.candidates] or 'none'}")
    print()
    header = f"{'family':<18} {'axis':<5} {'boundary':>8} {'boundary ratio':>16} {'interior max':>16} ok"
    print(header)
    print("-" * len(header))
    for check in result.checks:
        boundary = f"{float(check.boundary_ratio):.3e}"
        interior = (
            f"{float(check.interior_ratio):.3e}" if check.interior_ratio is not None else "-"
        )
        flag = "ok" if check.ok else "FAIL"
        print(
            f"{check.family.value:<18} {check.axis:<5} {check.boundary:>8} "
            f"{boundary:>16} {interior:>16} {flag}"
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
