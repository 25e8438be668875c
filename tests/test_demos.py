"""Every demo script runs to completion at a small shot count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import interfersim

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# demos without a --shots option trace a single run already
SMALL = {"field_trajectory.py": []}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    src = str(Path(interfersim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = SMALL.get(name, ["--shots", "500"])
    done = subprocess.run([sys.executable, str(DEMOS / name), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
