"""The import surface: every name one library module takes from another is
public (a helper that two modules need has one home and a public name
there), and the package's ``__all__`` is exactly what it exports, with the
test-only oracles kept out of it."""

import ast
import importlib
import inspect
from pathlib import Path

import orbitquad

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitquad"

# oracles that live under tests/, by the library module that once held them
MOVED_ORACLES = {
    "dot_span": "multimatrix",
    "DotSpan": "multimatrix",
    "mu_kernel": "multimatrix",
    "mu_of_pair_coords": "multimatrix",
    "antichain_brute_force": "chordal",
    "evaluation_hyperplane": "orbit",
    "kernel_combinations": "linalg",
}


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("orbitquad")):
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert len(list(SRC.glob("*.py"))) > 1
    assert offenders == []


def test_every_exported_name_resolves():
    assert len(set(orbitquad.__all__)) == len(orbitquad.__all__)
    assert [n for n in orbitquad.__all__ if not hasattr(orbitquad, n)] == []
    # and nothing public is imported into the package without being exported
    public = {n for n, v in vars(orbitquad).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(orbitquad.__all__)


def test_moved_oracles_are_not_exported():
    for name, module in MOVED_ORACLES.items():
        assert name not in orbitquad.__all__
        assert not hasattr(orbitquad, name)
        assert not hasattr(importlib.import_module(f"orbitquad.{module}"), name)
