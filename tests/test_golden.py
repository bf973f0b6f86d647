"""CLI output pinned byte for byte.

Each ``golden/*.json`` holds a command line and the stdout, stderr and exit
code the CLI gave for it before the action storage was rewritten: the five
README examples, ``certify`` of the binary cubic (1,-1,1,1), ``ideal`` of
E12 in wedge^2 of sl(4), and a seeded ``chordal`` run.  Two more were
written before hyperplanes were read off ker mu: ``certify`` of the binary
quartic (1,0,0,-1,0) on a two-axis box, whose log holds both ``full`` and
``hyperplane`` verdicts, and of the conic (1,0,0,1,0,0) of sl(3) on a
three-axis box, both with seed 3 and 25 trials.  ``certify`` of E12 + E34
in wedge^2 of sl(5) was written before ``Box`` became mixed-radix
arithmetic: its doubled box has 729 indices, above the 200 that the Leibniz
check reads, so it pins the seeded sample drawn from ``indices()`` on a
six-axis box.  ``certify`` of E12 + E34 + E56 in wedge^2 of sl(6) was
written before the correspondence tables moved onto integer rows: its box
has nine axes and 512 indices, so it pins the seeded random functionals
drawn over every box coordinate.  ``decompose`` of sym2(wedge(2,std)) at
sl:6 and ``chordal --n 6 --k 2 --p 1`` were written before the exact kernel
moved onto sparse rows and highest weight vectors were found one weight
block at a time: they pin the isotypic pieces, the chordal span and the
matched tail at dim S^2 V = 120.  Each command is run in a fresh
interpreter, so every module is built cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_cli_output_is_byte_identical(path):
    case = json.loads(path.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orbitquad.cli", *case["argv"]],
        capture_output=True, cwd=ROOT, env=env, timeout=60,
    )
    assert proc.returncode == case["exit"], proc.stderr.decode()
    assert proc.stderr == case["stderr"].encode()
    assert proc.stdout == case["stdout"].encode()
