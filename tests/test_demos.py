"""The demos run end to end against the package's public names."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["ablation_sweep", "cap_geometry", "correct_and_evaluate",
                                  "diagnose_degeneration"])
def test_demo_runs(demo, cli_env):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")], env=cli_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
