import os
import subprocess
import sys
from pathlib import Path

import pytest

import tolalloc

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["allocate_tolerances.py", "external_solver.py",
                                    "fit_surrogate.py"])
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(tolalloc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
