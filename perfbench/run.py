"""symreduce benchmark: whole CLI runs per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload reduce_default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
With --trace 0 one client runs the workload's seeded invocations one at a
time as `python -m symreduce ...` subprocesses (a closed loop), checks every
output against reference facts, and reports the end-to-end metrics.  With
--trace 1 it calls each layer in-process under spans and reports the
per-layer metrics (the workload name then only labels the result).

End-to-end times are in reference seconds.  A shared host's speed can
swing by 1.8x over phases of 5 to 60 s, which moves any statistic of raw
wall times taken over half a minute.  So this process and its children are
kept on one CPU, each child is bracketed by a fixed pure-Python loop
(calibration_s) run in this process, and its wall time is scaled by
CAL_REF_S over the loop's mean time: the time the child would take on a
host that runs the loop in CAL_REF_S.  Raw wall times are printed and
recorded beside them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes its environment,
metrics, samples and (traced) spans to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

CAL_START = 1_000_001
CAL_NUMBERS = 1400
CAL_REF_S = 0.01
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import symreduce.cli; "
    "print(time.perf_counter() - t)"
)

P90_MIN_SAMPLES = 100
PER_LAYER_COUNTS = ("grid_points", "candidates", "groups", "trace.spans")


class BenchError(Exception):
    pass


def child_env() -> dict:
    # Only the checkout's sources, and no SYMREDUCE_* setting from outside:
    # the program sees nothing but the generated argv.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("SYMREDUCE_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def calibration_s() -> float:
    """Time of a fixed trial-division loop, the kind of work that dominates
    the program's scans; it tracks the host's speed for them more closely
    than a plain counting loop."""
    start = perf_counter()
    for n in range(CAL_START, CAL_START + 2 * CAL_NUMBERS, 2):
        d = 3
        while d * d <= n and n % d:
            d += 2
    return perf_counter() - start


@dataclass
class ChildRun:
    wall_s: float
    ref_s: float  # wall_s in reference seconds
    code: int
    stdout: str
    stderr: str


def run_child(args: list, env: dict) -> ChildRun:
    """Run one interpreter to completion, bracketed by the calibration loop."""
    before = calibration_s()
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = perf_counter() - start
    ref = wall * CAL_REF_S * 2 / (before + calibration_s())
    return ChildRun(wall, ref, proc.returncode, proc.stdout, proc.stderr)


def import_probe(env: dict) -> tuple[ChildRun, float]:
    """Interpreter start plus `import symreduce.cli`, and the import time
    the child measured itself."""
    child = run_child(["-c", IMPORT_PROBE], env)
    if child.code != 0:
        raise BenchError(f"cannot import symreduce.cli from {SRC}: {child.stderr.strip()}")
    return child, float(child.stdout)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, list]:
    """(gated metrics, reported-only metrics and samples, invocations, failures)."""
    env = child_env()
    import_probe(env)  # fills the bytecode cache, as an installed package has it
    setups = [import_probe(env)[0] for _ in range(SETUP_REPEATS)]

    runs: list[ChildRun] = []
    failures: list = []
    invocations = workloads.stream(workload, seed)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        inv = next(invocations)
        try:
            child = run_child(["-m", "symreduce", *inv.argv], env)
        except subprocess.TimeoutExpired:
            child = ChildRun(CHILD_TIMEOUT_S, CHILD_TIMEOUT_S, -1, "", "")
            problems = [f"timed out after {CHILD_TIMEOUT_S} s"]
        else:
            problems = inv.check(child.code, child.stdout)
        runs.append(child)
        if problems:
            failures.append({"argv": list(inv.argv), "problems": problems, "stderr": child.stderr[-2000:]})
    # ru_maxrss of reaped children is in KiB on Linux: the largest child.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    refs = [r.ref_s for r in runs]
    walls = [r.wall_s for r in runs]
    metrics = {
        "wall_p50_s": median(refs),
        "setup_s": median(r.ref_s for r in setups),
        "peak_rss_mb": peak_kib / 1024,
    }
    reported = {
        "failed_frac": len(failures) / len(runs),
        "raw_wall_p50_s": median(walls),
        "raw_setup_s": median(r.wall_s for r in setups),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if len(runs) >= P90_MIN_SAMPLES:
        reported["wall_p90_s"] = quantiles(refs, n=10)[-1]
        reported["raw_wall_p90_s"] = quantiles(walls, n=10)[-1]
    samples = {"wall_s": walls, "ref_s": refs}
    return metrics, {**reported, "samples": samples}, len(runs), failures


def per_layer(seed: int, seconds: float) -> tuple[dict, dict, int, list]:
    """(per-layer metrics, rounds and spans, facts checked, failures)."""
    sys.path.insert(0, str(SRC))
    import symreduce

    if Path(symreduce.__file__).resolve().parent != SRC / "symreduce":
        raise BenchError(f"symreduce imported from {symreduce.__file__}, not {SRC}")
    import layers

    env = child_env()
    import_probe(env)
    metrics = {"cli.import_s": median(import_probe(env)[1] for _ in range(5))}
    counts = layers.work_counts()
    checked, problems = layers.count_problems(counts)
    metrics.update(counts)
    layer_metrics, rounds, tracer = layers.run_rounds(seed, seconds)
    metrics.update(layer_metrics)

    # Process overhead: subprocess wall minus in-process main, per command.
    overheads = []
    for command, argv in layers.CLI_COMMANDS.items():
        walls = [run_child(["-m", "symreduce", *argv], env).wall_s for _ in range(3)]
        overheads.append(median(walls) - metrics[f"cli.main.s.{command}"])
    metrics["cli.process_overhead_s"] = median(overheads)
    failures = [{"argv": [], "problems": [problem]} for problem in problems]
    return metrics, {"rounds": rounds, "spans": tracer.as_records()}, checked, failures


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count" if any(part in name for part in PER_LAYER_COUNTS) else "s"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symreduce" / "__init__.py").is_file():
        print(f"error: no symreduce sources under {SRC}", file=sys.stderr)
        return 1
    env = environment(args)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    try:
        if args.trace:
            metrics, reported, attempted, failures = per_layer(args.seed, args.seconds)
        else:
            metrics, reported, attempted, failures = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(failures)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "metrics": metrics, "reported": reported, "attempted": attempted, "failures": failures}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for failure in failures[:5]:
        print(f"# FAILED {failure['argv']}: {'; '.join(failure['problems'])}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit_of(name)}")
    print(f"{args.workload} attempted {attempted} count")
    for name in ("failed_frac", "wall_p90_s", "raw_wall_p50_s", "raw_wall_p90_s", "raw_setup_s"):
        if name in reported:
            print(f"{args.workload} {name} {reported[name]:.6g} {unit_of(name)} (not gated)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
