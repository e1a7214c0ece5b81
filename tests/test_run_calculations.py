"""scripts/run_calculations.py prints exactly the recorded output."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_is_byte_identical_to_the_recorded_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_calculations.py")],
        env=env, capture_output=True, check=True,
    ).stdout
    assert out == (ROOT / "tests" / "run_calculations.expected").read_bytes()
