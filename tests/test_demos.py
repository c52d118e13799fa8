"""Smoke test: the narrative demos run to completion.

Demo 08 is left out for its run time (about 20 s); the API it drives,
run_experiment and ExperimentConfig, is covered by test_evaluation.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import csomtex

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SMOKE = sorted(p.name for p in DEMOS.glob("0[1-7]_*.py"))


def test_demo_set_is_complete():
    assert len(SMOKE) == 7


@pytest.mark.parametrize("name", SMOKE)
def test_demo_exits_zero(name, tmp_path):
    src = str(Path(csomtex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
