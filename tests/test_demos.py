"""Each demo prints exactly its pinned output.

The demos are run as scripts, each in its own interpreter with ``src`` on
the path, and their stdout is compared with ``golden/demo_<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem.removeprefix("demo_") for p in (ROOT / "tests" / "golden").glob("demo_*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == (ROOT / "tests" / "golden" / f"demo_{demo.stem}.txt").read_text()
