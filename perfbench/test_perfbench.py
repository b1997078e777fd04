"""Tests of the benchmark's own input generator, output checks and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from layers import Tracer  # noqa: E402
from symreduce import cli  # noqa: E402


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def reduce_json():
    return run_main(["reduce", "--format", "json"])


@pytest.fixture(scope="module")
def reduce_md():
    return run_main(["reduce", "--format", "md"])


def test_reduce_checks_accept_program_output(reduce_json, reduce_md):
    assert workloads.check_reduce_json(*reduce_json, v0_min=2) == []
    assert workloads.check_reduce_md(*reduce_md, v0_min=2) == []


def test_reduce_json_check_rejects_diagonal_survivor(reduce_json):
    code, out = reduce_json
    payload = json.loads(out)
    payload["evidence"]["simple_diagonal"]["survivors"].append({"group": "A5", "m": 3})
    assert workloads.check_reduce_json(code, json.dumps(payload), v0_min=2)


def test_reduce_json_check_rejects_wrong_out4_candidates(reduce_json):
    code, out = reduce_json
    for wrong in ([], ["L3(4)", "A8"], ["A8"]):
        payload = json.loads(out)
        payload["evidence"]["simple_diagonal"]["out4_scan"]["candidates"] = wrong
        assert workloads.check_reduce_json(code, json.dumps(payload), v0_min=2)


def test_reduce_md_check_rejects_survivor_and_wrong_candidates(reduce_md):
    code, out = reduce_md
    assert workloads.check_reduce_md(code, out.replace(": 0 survivors.", ": 1 survivors."), v0_min=2)
    assert workloads.check_reduce_md(code, out.replace("candidates L3(4);", "candidates L3(4), A8;"), v0_min=2)


def test_reduce_check_ties_exit_code_to_matches_reference(reduce_json):
    code, out = reduce_json
    assert workloads.check_reduce_json(1 if code == 2 else 2, out, v0_min=2)
    payload = json.loads(out)
    product = payload["evidence"]["product"]
    # The reference outcome alone, with the matching exit code, is accepted.
    product["triples"] = [t for t in product["triples"] if (t["v"], t["k"], t["lambda"]) != (81, 16, 3)]
    product["matches_reference"] = True
    assert workloads.check_reduce_json(0, json.dumps(payload), v0_min=2) == []
    assert workloads.check_reduce_json(2, json.dumps(payload), v0_min=2)


def test_diagonal_check_rejects_survivor():
    code, out = run_main(["diagonal", "scan", "--catalog-bound", str(10**7)])
    assert workloads.check_diagonal_scan(code, out, 10**7) == []
    payload = json.loads(out)
    payload["survivors"] = [{"group": "A5", "m": 2}]
    assert workloads.check_diagonal_scan(code, json.dumps(payload), 10**7)
    assert workloads.check_diagonal_scan(code, out, 10**9)


@pytest.mark.parametrize("workload,block", [("reduce_default", 4), ("catalog_deep", 1)])
def test_scan_workloads_do_equal_work_for_every_seed(workload, block):
    def argv_counts(seed):
        stream = workloads.stream(workload, seed)
        return Counter(inv.argv for inv in itertools.islice(stream, 5 * block))

    assert argv_counts(1) == argv_counts(2) == argv_counts(12345)


def test_streams_repeat_for_a_seed():
    for workload in workloads.WORKLOADS:
        first = [inv.argv for inv in itertools.islice(workloads.stream(workload, 7), 30)]
        again = [inv.argv for inv in itertools.islice(workloads.stream(workload, 7), 30)]
        assert first == again


def test_query_checks_accept_program_output():
    kinds = Counter()
    for inv in itertools.islice(workloads.stream("queries_cold", 3), 150):
        kinds[inv.argv[0]] += 1
        code, out = run_main(inv.argv)
        assert inv.check(code, out) == [], inv.argv
    assert set(kinds) == {"check", "atlas", "product", "imprimitive"}


def test_query_checks_reject_wrong_answers():
    assert workloads.check_scalar(0, "20161\n", 20160)
    assert workloads.check_check(0, json.dumps({"v": 7, "k": 3, "lambda": 1, "admissible": True}), (7, 3, 1), False)
    assert workloads.check_check(2, json.dumps({"v": 7, "k": 3, "lambda": 1, "admissible": True}), (7, 3, 1), True)
    assert workloads.check_m4(0, json.dumps({"candidates": [243, 256], "survivors": [243]}), 5)


def test_known_and_broken_triples_meet_the_symmetric_identity_or_not():
    rng = random.Random(0)
    for _ in range(500):
        v, k, lam = workloads.design_triple(rng)
        assert lam * (v - 1) == k * (k - 1)
        v, k, lam = workloads.broken_triple(rng)
        assert lam * (v - 1) != k * (k - 1)


def test_catalog_table_has_the_recorded_size():
    rows = workloads.load_catalog()
    assert len(rows) == workloads.CATALOG_SIZES[10**9]
    assert len({name for name, _, _ in rows}) == len(rows)
    assert ("L3(4)", 20160, 12) in rows


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            sum(range(10_000))
        with tracer.span("inner"):
            sum(range(10_000))
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert all(s.parent == outer.id and s.root == outer.id for s in inner)
    expected = (outer.end - outer.start) - sum(s.end - s.start for s in inner)
    assert tracer.self_time(outer) == pytest.approx(expected)
    assert 0 <= tracer.self_time(outer) < outer.end - outer.start


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
