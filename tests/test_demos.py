"""The narrative demos run to completion against the current package.

Each demo runs in its own interpreter with the checkout's `src` on the path,
so a demo that imports a removed name fails here.  A demo that writes files
writes them into a temporary directory it removes again: each run gets its
own TMPDIR, every absolute path a demo prints must lie inside it and be gone
once the demo exits.  demos/05 is left out: it is a long sweep that appends
to a CSV file.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))
WRITERS = {"01_build_codes.py", "04_noise_models.py"}


def test_demo_set():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [Path(p) for p in re.findall(r"(?<!\S)/[^\s:]+", proc.stdout)]
    assert bool(printed) == (demo in WRITERS), printed
    for path in printed:
        assert path.resolve().is_relative_to(tmp_path.resolve()), path
        assert not path.exists(), path
