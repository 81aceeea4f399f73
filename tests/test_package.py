"""Package-level properties that no single module test covers."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    """scipy is a test dependency only: importing the package must not load it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, subshot; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
