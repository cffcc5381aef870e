"""The scripts run from any directory, without loopkit on the path."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_find_counterexamples_runs_from_another_directory(tmp_path):
    proc = run_script("find_counterexamples.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    headers = [ln for ln in proc.stdout.splitlines() if ln.startswith("== ")]
    assert headers == [
        "== nilpotent, not supernilpotent (order 6)",
        "== congruence solvable, Inn not solvable (order 16)",
        "== Mlt solvable, not congruence solvable (order 8)",
        "== fiber meets the identity conditions but not the restriction one (order 8)",
        "== fiber meets restriction + four identities but not the pair condition (order 8)",
    ]
