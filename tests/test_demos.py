import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("demo", ["theory_bounds.py", "estimator_power.py", "audit_iris.py"])
def test_demo_runs(demo):
    # the demos import public names straight from qcanary; a prune that
    # drops one of them breaks the demo at import
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_cli_tour_runs(tmp_path):
    # the tour calls the installed qcanary command; a shim on PATH runs this
    # checkout's CLI instead, so a dropped config key or flag fails here
    shim = tmp_path / "qcanary"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m qcanary.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join((str(tmp_path), env.get("PATH", "")))
    result = subprocess.run(["bash", str(ROOT / "demos" / "cli_tour.sh")], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
