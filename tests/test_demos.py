import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsweep

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # each demo runs as a script, as a reader would start it
    src = os.path.dirname(os.path.dirname(spinsweep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=demo.parent)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
