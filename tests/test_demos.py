"""The narrative demos run to completion against the current package.

Each demo runs in its own interpreter with the checkout's `src` on the path,
so a demo that imports a removed name fails here.  A demo that writes files
writes them into a temporary directory it removes again: each run gets its
own TMPDIR, every absolute path a demo prints must lie inside it and be gone
once the demo exits.  demos/05 is a long sweep, so it is only parsed: every
name it imports from cbdecode must exist, and every name it reads must be
imported, assigned or built in.  The README's library quick start runs
the same way as the demos.
"""

import ast
import builtins
import importlib
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


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_demo_imports_exist():
    tree = ast.parse((ROOT / "demos" / "05_pseudothreshold_sweep.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    ours = [node for node in imports if node.module.split(".")[0] == "cbdecode"]
    assert ours
    for node in ours:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    bound = set(dir(builtins)) | {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    bound |= {node.id for node in names if isinstance(node.ctx, ast.Store)}
    assert {node.id for node in names} <= bound
