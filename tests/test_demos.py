"""The demos run to completion (all four take about 3 s together)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_octonion_algebra.py",
        "02_triality_and_subalgebras.py",
        "03_orbit_spectra.py",
        "04_classification.py",
    ],
)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # values are rounded to their printed digits, so a zero never prints signed
    assert "-0.000000000000" not in result.stdout
