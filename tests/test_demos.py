"""Smoke test: every demo but the slow phase-transition sweep still runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "01_sparse_recovery.py",
        "02_sampling_operators.py",
        "03_rip_diagnostics.py",
        "04_iterative_least_squares.py",
        "05_halting_rules.py",
        "06_signal_models.py",
        "07_variants.py",
    ],
)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
