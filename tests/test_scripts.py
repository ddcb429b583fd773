"""Smoke test: every script under scripts/ runs to exit 0 on a small input.

The scripts import package names that no other test reaches through them, so
a refactor that removes or renames one would otherwise go unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("bec_ensemble_report.py", ["--count", "2"]),
        ("defective_family_scan.py", ["--points", "3"]),
        ("ssh_phase_diagram.py", ["--grid", "4x4", "--out", "{tmp}/ssh_phase.csv"]),
    ],
    ids=["bec-ensemble-report", "defective-family-scan", "ssh-phase-diagram"],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(ROOT / "scripts" / script)] + [a.format(tmp=tmp_path) for a in args]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
