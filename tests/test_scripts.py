import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    # Without PYTHONPATH, so the script must find the package by itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_out4_ratio_table_runs_from_any_directory(tmp_path):
    from_root = _run_script("out4_ratio_table.py", "5", "4", cwd=ROOT)
    elsewhere = _run_script("out4_ratio_table.py", "5", "4", cwd=tmp_path)
    assert elsewhere.stderr == ""
    assert "L3(4)" in from_root.stdout
    assert (elsewhere.returncode, elsewhere.stdout) == (from_root.returncode, from_root.stdout)
