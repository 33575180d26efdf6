"""Smoke test: the demo scripts run to completion.

``06_covering_concentration.py`` is left out for its run time (about 5 s);
``04_formation_protocol.py`` exercises the formation reconstruction.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_coherence_measures.py", "02_pure_state_transformations.py",
         "03_concentration_dilution.py", "04_formation_protocol.py",
         "05_reversibility.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
