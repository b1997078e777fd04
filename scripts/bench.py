#!/usr/bin/env python3
"""Record one benchmark pass in a file: `perfbench/run.py` once per workload
declared in BENCHMARK.json, then TRACED_PASSES times with --trace 1, all at
one seed and length.  Each run's final JSON summary line (correct,
attempted, failed, metrics) is kept with its `# env` line, and
`per_layer_median` holds the median of each per-layer metric over the
traced passes, so that one slow pass does not set a layer's figure.

Usage, from the root of a source checkout:

    python3 scripts/bench.py BENCH_<n>.json [--seed 1] [--seconds 30]

Exits 1 when a run fails or reports an incorrect output; the file is
written either way.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "# env "
# Odd, so each median is one pass's value and a count stays an int.
TRACED_PASSES = 3


def run_once(
    command: list, workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT
) -> tuple[dict, str]:
    """One perfbench run in the source tree cwd: its record and its stderr."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), None)
    summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "workload": workload,
        "trace": trace,
        "returncode": proc.returncode,
        "env": env,
        "summary": summary,
    }, proc.stderr


def per_layer_median(summaries: list, names: list) -> dict:
    """{name: {"unit", "value"}} with the median value over the summaries of
    each per-layer metric in names that they all report."""
    medians = {}
    for name in names:
        entries = [summary["metrics"].get(name) for summary in summaries]
        if entries and None not in entries:
            medians[name] = {"unit": entries[0]["unit"], "value": median(entry["value"] for entry in entries)}
    return medians


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="file to write, e.g. BENCH_<n>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if part == "python3" else part for part in declared["command"]]
    workloads = [w["name"] for w in declared["workloads"]]
    plan = [(w, 0) for w in workloads] + [(workloads[0], 1)] * TRACED_PASSES
    runs = []
    ok = True
    for workload, trace in plan:
        run, stderr = run_once(command, workload, args.seed, args.seconds, trace)
        runs.append(run)
        if run["summary"] is None or not run["summary"]["correct"]:
            ok = False
            print(f"run failed: {workload} --trace {trace}, exit {run['returncode']}\n{stderr}", file=sys.stderr)

    traced = [run["summary"] for run in runs if run["trace"] and run["summary"] is not None]
    layers = [metric["name"] for metric in declared["per_layer"]]
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "per_layer_median": per_layer_median(traced, layers),
    }
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
