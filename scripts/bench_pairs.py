#!/usr/bin/env python3
"""Compare a parent revision with the checkout in alternating benchmark pairs.

Usage, from the root of a source checkout:

    python3 scripts/bench_pairs.py PARENT_REV --workload reduce_default --pairs 10

The parent's committed tree is extracted with `git archive` into a
temporary directory, so no worktree is made and nothing under .git
changes.  The other side is the checkout as it stands, uncommitted edits
included.  Pair i runs `perfbench/run.py` at seed first_seed + i - 1 on
both sides, for BENCHMARK.json's run_seconds; odd pairs run the parent
first, even pairs the checkout.
Before each run the side's bytecode caches under src/ are deleted, so both
sides start alike.

For each end-to-end metric of BENCHMARK.json it prints each side's median
[first quartile, third quartile], the median paired difference (checkout
minus parent, over the pairs), the pairs the checkout won (ties count for
neither), and whether a gain could be claimed: at least nine tenths of the
pairs won and a median gap larger than the parent's interquartile range.
Exits 1 when a run fails or reports an incorrect output.
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import ROOT, run_once  # noqa: E402

WIN_SHARE = 0.9


def compare(parent: list, change: list, better: str) -> dict:
    """Paired statistics of one metric: parent[i] and change[i] come from
    pair i, and better is "lower" or "higher".  "diff" is the median of
    change[i] - parent[i], which resolves an effect smaller than either
    side's spread when the pairs share their drift."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, as many parent runs as change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, _, p_q3 = quantiles(parent, n=4)
    c_q1, _, c_q3 = quantiles(change, n=4)
    gap = sign * (median(parent) - median(change))
    return {
        "parent": (median(parent), p_q1, p_q3),
        "change": (median(change), c_q1, c_q3),
        "diff": median(c - p for p, c in zip(parent, change)),
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1,
    }


def extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run_side(tree: Path, command: list, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one untraced perfbench run, or None when it failed."""
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    run, stderr = run_once(command, workload, seed, seconds, 0, cwd=tree)
    summary = run["summary"]
    if summary is None or not summary["correct"]:
        print(f"run failed in {tree}, seed {seed}, exit {run['returncode']}:\n{stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in summary["metrics"].items()}


def main(argv: list | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision, e.g. HEAD~1")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    command = [sys.executable if part == "python3" else part for part in declared["command"]]
    runs = {"parent": [], "change": []}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, trees["parent"])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {
                side: run_side(trees[side], command, args.workload, seed, declared["run_seconds"])
                for side in order
            }
            if None in pair.values():
                failed += 1
                continue
            for side, metrics in pair.items():
                runs[side].append(metrics)
            values = ", ".join(
                f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}"
                for m in declared["end_to_end"]
            )
            print(f"# pair {i + 1} seed {seed}, {order[0]} first: {values}", file=sys.stderr)

    print(f"{args.workload}: {len(runs['change'])} pairs, {failed} with a failed run")
    if len(runs["change"]) < 2:
        return 1
    for metric in declared["end_to_end"]:
        name = metric["name"]
        stats = compare(
            [m[name] for m in runs["parent"]], [m[name] for m in runs["change"]], metric["better"]
        )
        (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = stats["parent"], stats["change"]
        print(
            f"{name}: parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] -> change {c_med:.4g} "
            f"[{c_q1:.4g}, {c_q3:.4g}] ({(c_med - p_med) / p_med:+.1%}), paired difference {stats['diff']:+.4g}, "
            f"change wins {stats['wins']}/{stats['pairs']}, gain holds: {'yes' if stats['gain'] else 'no'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
