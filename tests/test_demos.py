import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["theory_bounds.py", "estimator_power.py", "audit_iris.py"])
def test_demo_runs(demo):
    # the demos import public names straight from qcanary; a prune that
    # drops one of them breaks the demo at import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
