"""Each demo script runs to completion and prints the same text twice.

The demos are run as a user runs them, in a subprocess, from an empty
working directory, with the library on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script: Path, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == [
        "01_spectra_and_grids.py",
        "02_decomposition.py",
        "03_threshold_mapping.py",
        "04_planarity.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_repeats(script, tmp_path):
    first = run_demo(script, tmp_path)
    assert first
    assert run_demo(script, tmp_path) == first
