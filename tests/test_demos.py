"""Every demo runs as a script and exits cleanly.

``demos/04_transfer_benchmark.py`` trains four models at desk scale and
``demos/05_observation_probe.py`` twenty at paper scale; with Gram-form
dictionary learning each takes a few seconds, so they run here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_skewed_frames.py",
    "02_motion_primitives.py",
    "03_flow_fields.py",
    "04_transfer_benchmark.py",
    "05_observation_probe.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
