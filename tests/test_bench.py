import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# A stand-in for perfbench/run.py: an `# env` line, a progress line, then a
# JSON summary that echoes the arguments it was given, and the exit code
# that follows "exit".
_STUB = (
    "import json, sys; "
    "print('# env ' + json.dumps({'python': 'stub'})); "
    "print('progress'); "
    "print(json.dumps({'correct': True, 'argv': sys.argv[1:]})); "
    "print('stub stderr', file=sys.stderr); "
    "sys.exit(int(sys.argv[sys.argv.index('exit') + 1]) if 'exit' in sys.argv else 0)"
)


def test_run_once_parses_env_and_summary(tmp_path):
    run, stderr = bench.run_once([sys.executable, "-c", _STUB], "reduce_default", 3, 0.5, 1, cwd=tmp_path)
    assert run == {
        "workload": "reduce_default",
        "trace": 1,
        "returncode": 0,
        "env": {"python": "stub"},
        "summary": {
            "correct": True,
            "argv": ["--workload", "reduce_default", "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        },
    }
    assert stderr == "stub stderr\n"


def test_run_once_failed_run_has_no_summary(tmp_path):
    run, stderr = bench.run_once([sys.executable, "-c", _STUB, "exit", "3"], "catalog_deep", 1, 1, 0, cwd=tmp_path)
    assert run["returncode"] == 3
    assert run["summary"] is None
    assert run["env"] == {"python": "stub"}
    assert stderr == "stub stderr\n"


def _summary(a_s, a_count, wall):
    # A traced run's summary with two per-layer metrics and one end-to-end one.
    values = {"a.s": ("s", a_s), "a.count": ("count", a_count), "wall": ("s", wall)}
    return {"metrics": {name: {"unit": unit, "value": value} for name, (unit, value) in values.items()}}


def test_per_layer_median_takes_each_metric_middle_value():
    summaries = [_summary(0.3, 30, 1.0), _summary(0.1, 10, 2.0), _summary(0.2, 31, 3.0)]
    medians = bench.per_layer_median(summaries, ["a.s", "a.count", "b.s"])
    # wall is not asked for; b.s is reported by no pass.
    assert medians == {"a.s": {"unit": "s", "value": 0.2}, "a.count": {"unit": "count", "value": 30}}
    assert type(medians["a.count"]["value"]) is int
