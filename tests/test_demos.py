"""Every demo script runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ticsp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(ticsp.__file__).resolve().parent.parent)


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # The demos import the same ticsp as this suite, and run from a scratch
    # directory so nothing they might write lands in the source tree.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
