"""Every name one library module takes from another is public: a helper
that two modules need has one home and a public name there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitquad"


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
