"""Smoke runs of the demo scripts, each in its own interpreter with small
arguments, so a renamed or removed export they import shows up here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("no_equilibrium_demo.py", [], "result: cycle of period 4"),
        (
            "poa_sweep.py",
            ["--max-vendors", "2", "--max-block", "3", "--games", "5", "--max-items", "6"],
            "every game stayed under its own ceiling",
        ),
        ("cdsp_demo.py", ["--items", "5", "--categories", "2", "--vendors", "2"], "deviation check: ne-certified"),
    ],
)
def test_demo_script_runs(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
