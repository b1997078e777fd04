"""Acceptance gate.

One test per stated reference outcome, each at its stated runtime budget,
each printing a single pass/fail line.  These are the checks this package
exists to automate; everything else in the suite supports them.
"""

import json
import time
from contextlib import contextmanager

from symreduce.atlas import (
    display_name,
    enumerate_catalog,
    order,
    out_order,
    parse_group,
)
from symreduce.cli import main
from symreduce.design import satisfies_focus_condition
from symreduce.imprimitive import imprimitive_family
from symreduce.product import a_upper_bound, lambda_from, power_gap_feasible

from .oracles import (
    imprimitive_family_violations,
    lambda_by_scan,
    order_floor_holds,
    out4_grid,
    ratio_bound_holds,
)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:2d} FAIL ({elapsed:6.2f}s) {description}")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:2d} PASS ({elapsed:6.2f}s) {description}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_acceptance_01_product_enumeration(capsys):
    with criterion(1, "product enumerate --v0-min 2 yields exactly the three reference triples"):
        started = time.perf_counter()
        code, out = run_cli(capsys, "product", "enumerate", "--v0-min", "2")
        elapsed = time.perf_counter() - started
        payload = json.loads(out)
        got = {(t["v"], t["k"], t["lambda"]) for t in payload["triples"]}
        assert all(t["witnesses"] for t in payload["triples"])
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert got == {(16, 6, 2), (121, 25, 5), (441, 56, 7)}, (
            f"enumeration returned {sorted(got)}; the filter chain admits "
            "(81, 16, 3) at (m=2, a=3, v0=9), which the reference outcome "
            "does not list"
        )
        assert code == 0


def test_acceptance_02_a_upper_bounds():
    with criterion(2, "a_upper_bound(2) = 17 and a_upper_bound(3) = 14"):
        best = min(
            _timed(lambda: (a_upper_bound(2), a_upper_bound(3)))[0] for _ in range(5)
        )
        values = (a_upper_bound(2), a_upper_bound(3))
        assert values == (17, 14)
        assert best < 0.001, f"took {best * 1000:.3f} ms"


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_acceptance_03_m4_candidates(capsys):
    with criterion(3, "m4 analysis: {243, 256} in (218, 288) and {400, 405, 432} in (391, 440), all rejected"):
        started = time.perf_counter()
        code5, out5 = run_cli(capsys, "product", "m4", "5")
        code6, out6 = run_cli(capsys, "product", "m4", "6")
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert code5 == 0 and code6 == 0
        p5, p6 = json.loads(out5), json.loads(out6)
        assert p5["k_interval_open"] == [218, 288]
        assert p5["candidates"] == [243, 256]
        assert p5["survivors"] == []
        assert all("not an integer" in r["reason"] for r in p5["rejections"])
        assert p6["k_interval_open"] == [391, 440]
        assert p6["candidates"] == [400, 405, 432]
        assert p6["survivors"] == []
        assert all("not an integer" in r["reason"] for r in p6["rejections"])


def test_acceptance_04_out4_scan(capsys):
    with criterion(4, "atlas scan (n_max=12, q_max=1024, sporadics) -> [L3(4)], tails pass"):
        started = time.perf_counter()
        code, out = run_cli(capsys, "atlas", "scan", "--out4-nmax", "12",
                            "--out4-qmax", "1024")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        assert code == 0
        payload = json.loads(out)
        assert payload["candidates"] == ["L3(4)"]
        assert payload["tail_ok"] is True
        assert payload["failing_checks"] == []
        gid = parse_group("L3(4)")
        assert order(gid) == 20160
        assert out_order(gid) == 12


def test_acceptance_05_diagonal_scan(capsys):
    with criterion(5, "diagonal scan at 10^7: zero survivors, near miss exactly L3(4)"):
        started = time.perf_counter()
        code, out = run_cli(capsys, "diagonal", "scan", "--catalog-bound", "10000000")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        assert code == 0
        payload = json.loads(out)
        assert payload["survivors"] == []
        assert payload["near_misses"] == ["L3(4)"]
        # the failing odd-part comparison behind the near miss
        assert order(parse_group("L3(4)")) == 20160 >= 81


def test_acceptance_06_focus_implies_ratio():
    with criterion(6, "focus condition implies ratio bound for k <= 10^4, lambda <= 200"):
        started = time.perf_counter()
        counterexamples = [
            (k, lam)
            for lam in range(1, 201)
            for k in range(2, 10**4 + 1)
            if satisfies_focus_condition(k, lam)
            and not ratio_bound_holds(k, lam)
        ]
        elapsed = time.perf_counter() - started
        assert counterexamples == []
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_acceptance_07_lambda_oracle_equivalence():
    with criterion(7, "lambda_from agrees with the scan oracle over the full grid"):
        started = time.perf_counter()
        disagreements = []
        for m, a_max in ((2, 17), (3, 14)):
            for a in range(1, a_max + 1):
                for v0 in range(2, 1001):
                    fast = lambda_from(m, a, v0)
                    slow = lambda_by_scan(m, a, v0)
                    if fast != slow:
                        disagreements.append((m, a, v0, fast, slow))
        elapsed = time.perf_counter() - started
        assert disagreements == []
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_acceptance_08_imprimitive_sweep():
    with criterion(8, "imprimitive families valid for 2 <= lambda <= 10^4, spots (45,12,3), (96,20,4)"):
        started = time.perf_counter()
        # imprimitive_family checks nothing past lambda >= 2: its docstring
        # proves the invariants, and the oracle re-checks each one here
        for lam in range(2, 10**4 + 1):
            assert imprimitive_family_violations(imprimitive_family(lam)) == [], lam
        f3 = imprimitive_family(3)
        f4 = imprimitive_family(4)
        elapsed = time.perf_counter() - started
        assert (f3.v, f3.k, f3.lam) == (45, 12, 3)
        assert (f4.v, f4.k, f4.lam) == (96, 20, 4)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_acceptance_09_power_gap_pattern():
    with criterion(9, "power-gap feasibility over 5 <= v0 <= 10^4: all for m in {2,3}, {5,6} for m=4, none beyond"):
        started = time.perf_counter()
        for v0 in range(5, 10**4 + 1):
            assert power_gap_feasible(2, v0), v0
            assert power_gap_feasible(3, v0), v0
            assert power_gap_feasible(4, v0) == (v0 in (5, 6)), v0
            for m in range(5, 11):
                assert not power_gap_feasible(m, v0), (m, v0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_acceptance_10_order_sanity():
    with criterion(10, "anchor orders, canonical dedup, and strict lower bounds for q <= 64, n <= 12"):
        started = time.perf_counter()
        assert order(parse_group("A5")) == 60
        assert order(parse_group("L2(7)")) == 168
        assert order(parse_group("A6")) == order(parse_group("L2(9)")) == 360
        names = [display_name(g) for g, _ in enumerate_catalog(400)]
        assert names.count("A6") == 1
        assert "L2(9)" not in names
        # Every raw Lie-type id with n <= 12 and q <= 64, in all 16 families.
        grid = [gid for _, _, _, gid in out4_grid(12, 64)]
        assert len(grid) == 1116
        for gid in grid:
            assert order_floor_holds(gid), display_name(gid)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
