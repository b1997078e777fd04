"""Seeded CLI invocations for each workload and the checks on their output.

Every expected answer here is a reference fact kept by the benchmark itself
(known designs, recorded catalog sizes, the reference product triples, the
catalog table in catalog_1e9.txt), never a hash of earlier output, so a
change that fixes a known disagreement does not read as a failure.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Group counts of the catalog at each bound (one per isomorphism class).
CATALOG_SIZES = {10**7: 97, 10**9: 277, 10**11: 885}

DEEP_CATALOG_BOUND = 10**11

# The only group with |T| < |Out(T)|^4, and the only near miss of the
# odd-part test.
OUT4_CANDIDATES = ["L3(4)"]
NEAR_MISSES = ["L3(4)"]

# Reference product triples with the v0 of their witness; a triple is
# expected only when its witness meets --v0-min.
REFERENCE_TRIPLES = {(16, 6, 2): 4, (121, 25, 5): 11, (441, 56, 7): 21}

M4_CANDIDATES = {5: [243, 256], 6: [400, 405, 432]}

EXIT_AGREES = 0
EXIT_DISAGREES = 2

Check = Callable[[int, str], list]


@dataclass(frozen=True)
class Invocation:
    """One CLI run: the argv after `python -m symreduce` and its check,
    which returns the list of problems found (empty when correct)."""

    argv: tuple
    check: Check


def reference_triples(v0_min: int) -> set:
    return {t for t, v0 in REFERENCE_TRIPLES.items() if v0 >= v0_min}


def load_catalog(path: Path | None = None) -> list:
    """(name, order, out_order) rows of catalog_1e9.txt."""
    path = path or Path(__file__).with_name("catalog_1e9.txt")
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, order, out = line.split()
            rows.append((name, int(order), int(out)))
    return rows


def _parse_json(stdout: str, problems: list):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _verdict_exit(code: int, matches: bool, problems: list) -> None:
    expected = EXIT_AGREES if matches else EXIT_DISAGREES
    if code != expected:
        problems.append(f"exit code {code}, expected {expected} (matches_reference={matches})")


def _product_problems(triples: set, matches, v0_min: int, problems: list) -> None:
    reference = reference_triples(v0_min)
    if not reference <= triples:
        problems.append(f"reference triples {sorted(reference - triples)} missing")
    if matches is not (triples == reference):
        problems.append(f"matches_reference={matches} but triples {sorted(triples)}")


# -- reduce ----------------------------------------------------------------


def check_reduce_json(code: int, stdout: str, v0_min: int) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    try:
        diag = payload["evidence"]["simple_diagonal"]
        out4 = diag["out4_scan"]
        prod = payload["evidence"]["product"]
        if diag["catalog_size"] != CATALOG_SIZES[diag["catalog_bound"]]:
            problems.append(f"catalog_size {diag['catalog_size']}")
        if diag["survivors"]:
            problems.append(f"diagonal survivors {diag['survivors']}")
        if diag["near_misses"] != NEAR_MISSES:
            problems.append(f"near misses {diag['near_misses']}")
        if out4["candidates"] != OUT4_CANDIDATES or out4["tail_ok"] is not True:
            problems.append(f"out4 candidates {out4['candidates']} tail_ok={out4['tail_ok']}")
        triples = {(t["v"], t["k"], t["lambda"]) for t in prod["triples"]}
        matches = prod["matches_reference"]
        _product_problems(triples, matches, v0_min, problems)
        if any(case["survivors"] for case in prod["m4_cases"]):
            problems.append("m4 survivors")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks {exc}")
        return problems
    _verdict_exit(code, matches is True, problems)
    return problems


_MD_SCAN = re.compile(r"^Odd-part scan over (\d+) groups with \|T\| <= (\d+), .*: (\d+) survivors\.$", re.M)
_MD_NEAR = re.compile(r"^Near misses: (.*)\.$", re.M)
_MD_OUT4 = re.compile(r"^\|T\| < \|Out\(T\)\|\^4 scan: candidates (.*); tail checks (\w+);", re.M)
_MD_TRIPLE = re.compile(r"^- \(v=(\d+), k=(\d+), lambda=(\d+)\) via", re.M)
_MD_MATCHES = re.compile(r"^Matches the reference outcome: (True|False)\.$", re.M)
_MD_M4 = re.compile(r"^m=4, v0=\d+: .* survivors (.*)\.$", re.M)


def check_reduce_md(code: int, stdout: str, v0_min: int) -> list:
    problems: list = []
    scan, near, out4 = _MD_SCAN.search(stdout), _MD_NEAR.search(stdout), _MD_OUT4.search(stdout)
    matches = _MD_MATCHES.search(stdout)
    m4 = _MD_M4.findall(stdout)
    if not (scan and near and out4 and matches and len(m4) == 2):
        return ["markdown report lacks a section"]
    size, bound, survivors = (int(x) for x in scan.groups())
    if size != CATALOG_SIZES.get(bound):
        problems.append(f"catalog_size {size}")
    if survivors:
        problems.append(f"{survivors} diagonal survivors")
    if near.group(1).split(", ") != NEAR_MISSES:
        problems.append(f"near misses {near.group(1)}")
    if out4.group(1).split(", ") != OUT4_CANDIDATES or out4.group(2) != "pass":
        problems.append(f"out4 candidates {out4.group(1)} tail checks {out4.group(2)}")
    triples = {tuple(int(x) for x in t) for t in _MD_TRIPLE.findall(stdout)}
    matched = matches.group(1) == "True"
    _product_problems(triples, matched, v0_min, problems)
    if any(s != "none" for s in m4):
        problems.append(f"m4 survivors {m4}")
    _verdict_exit(code, matched, problems)
    return problems


def _reduce_invocation(fmt: str, v0_min: int) -> Invocation:
    checker = check_reduce_json if fmt == "json" else check_reduce_md
    return Invocation(
        ("reduce", "--format", fmt, "--v0-min", str(v0_min)),
        lambda code, out: checker(code, out, v0_min),
    )


# -- diagonal scan ---------------------------------------------------------


def check_diagonal_scan(code: int, stdout: str, bound: int) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    if payload.get("catalog_bound") != bound:
        problems.append(f"catalog_bound {payload.get('catalog_bound')}")
    if payload.get("catalog_size") != CATALOG_SIZES[bound]:
        problems.append(f"catalog_size {payload.get('catalog_size')}, expected {CATALOG_SIZES[bound]}")
    if payload.get("survivors") != []:
        problems.append(f"survivors {payload.get('survivors')}")
    if payload.get("near_misses") != NEAR_MISSES:
        problems.append(f"near misses {payload.get('near_misses')}")
    if code != EXIT_AGREES:
        problems.append(f"exit code {code}")
    return problems


def _diagonal_invocation(bound: int) -> Invocation:
    return Invocation(
        ("diagonal", "scan", "--catalog-bound", str(bound)),
        lambda code, out: check_diagonal_scan(code, out, bound),
    )


# -- short queries ---------------------------------------------------------


def check_check(code: int, stdout: str, triple: tuple, admissible: bool) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    if (payload.get("v"), payload.get("k"), payload.get("lambda")) != triple:
        problems.append(f"echoed triple {payload}")
    if payload.get("admissible") is not admissible:
        problems.append(f"admissible={payload.get('admissible')}, expected {admissible}")
    if code != (EXIT_AGREES if payload.get("admissible") else EXIT_DISAGREES):
        problems.append(f"exit code {code} disagrees with admissible={payload.get('admissible')}")
    return problems


def check_scalar(code: int, stdout: str, expected: int) -> list:
    if code != EXIT_AGREES or stdout.strip() != str(expected):
        return [f"exit code {code}, output {stdout.strip()!r}, expected {expected}"]
    return []


def check_product_enumerate(code: int, stdout: str, v0_min: int) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    triples = {(t["v"], t["k"], t["lambda"]) for t in payload.get("triples", [])}
    matches = payload.get("matches_reference")
    _product_problems(triples, matches, v0_min, problems)
    _verdict_exit(code, matches is True, problems)
    return problems


def check_m4(code: int, stdout: str, v0: int) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    if payload.get("candidates") != M4_CANDIDATES[v0] or payload.get("survivors") != []:
        problems.append(f"candidates {payload.get('candidates')} survivors {payload.get('survivors')}")
    if code != EXIT_AGREES:
        problems.append(f"exit code {code}")
    return problems


def check_imprimitive(code: int, stdout: str, lam: int) -> list:
    problems: list = []
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    expected = {
        "lambda": lam,
        "v": lam * lam * (lam + 2),
        "k": lam * (lam + 1),
        "options": [[lam * lam, lam + 2, lam], [lam + 2, lam * lam, 2]],
    }
    if payload != expected or code != EXIT_AGREES:
        problems.append(f"exit code {code}, family {payload}")
    return problems


def _prime_powers(limit: int) -> list:
    """q <= limit that are powers of their least prime factor."""
    result = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            result.append(q)
    return result


PLANE_ORDERS = _prime_powers(256)


def design_triple(rng: random.Random) -> tuple:
    """(v, k, lambda) of a symmetric design known to exist: a projective
    plane PG(2, q), a member of the point-imprimitive family, or a
    reference product triple.  Any sound admissibility test accepts it."""
    kind = rng.randrange(3)
    if kind == 0:
        q = rng.choice(PLANE_ORDERS)
        return (q * q + q + 1, q + 1, 1)
    if kind == 1:
        lam = rng.randint(2, 200)
        return (lam * lam * (lam + 2), lam * (lam + 1), lam)
    return rng.choice(sorted(REFERENCE_TRIPLES))


def broken_triple(rng: random.Random) -> tuple:
    """A design triple with v moved so that lambda(v-1) != k(k-1); every
    admissibility test rejects it."""
    v, k, lam = design_triple(rng)
    return (v + rng.randint(1, 50), k, lam)


def query_invocation(rng: random.Random, catalog: list) -> Invocation:
    kind = rng.randrange(5)
    if kind == 0:
        admissible = rng.random() < 0.5
        triple = design_triple(rng) if admissible else broken_triple(rng)
        return Invocation(
            ("check", *map(str, triple)),
            lambda code, out: check_check(code, out, triple, admissible),
        )
    if kind == 1:
        name, order, out_order = rng.choice(catalog)
        sub, expected = rng.choice((("order", order), ("out", out_order)))
        return Invocation(
            ("atlas", sub, name), lambda code, out: check_scalar(code, out, expected)
        )
    if kind == 2:
        v0_min = rng.choice((2, 5))
        return Invocation(
            ("product", "enumerate", "--v0-min", str(v0_min)),
            lambda code, out: check_product_enumerate(code, out, v0_min),
        )
    if kind == 3:
        v0 = rng.choice((5, 6))
        return Invocation(("product", "m4", str(v0)), lambda code, out: check_m4(code, out, v0))
    lam = rng.randint(2, 10_000)
    return Invocation(
        ("imprimitive", "family", str(lam)), lambda code, out: check_imprimitive(code, out, lam)
    )


# -- workload streams -------------------------------------------------------


def _blocks(rng: random.Random, fixed: list):
    """Endless seeded permutations of a fixed invocation set, so every seed
    does the same work per block."""
    while True:
        block = list(fixed)
        rng.shuffle(block)
        yield from block


def stream(workload: str, seed: int):
    """Endless iterator of Invocations for a workload."""
    rng = random.Random(seed)
    if workload == "reduce_default":
        fixed = [_reduce_invocation(f, v) for f in ("json", "md") for v in (2, 5)]
        return _blocks(rng, fixed)
    if workload == "catalog_deep":
        return _blocks(rng, [_diagonal_invocation(DEEP_CATALOG_BOUND)])
    if workload == "queries_cold":
        catalog = load_catalog()
        return (query_invocation(rng, catalog) for _ in itertools.count())
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reduce_default", "catalog_deep", "queries_cold")
