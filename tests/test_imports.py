"""The import surface: every name one library module takes from another is
public (a helper that two modules need has one home and a public name
there), and the package's ``__all__`` is exactly what it exports, with the
test-only oracles kept out of it."""

import ast
import importlib
import inspect
from pathlib import Path

import orbitquad
from orbitquad.lie import LieAlgebra

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
    "mat_to_sym_coords": "linalg",
    "sym_product_coords": "linalg",
    "pair_coords": "linalg",
    "trace_pairing_mat": "linalg",
}


# names folded into others: a catalecticant is the ``MultiMatrix`` that
# ``catalecticant`` returns, the multi-matrix algebra is its operators, each
# direction of the correspondence is its own function, a word acts through
# ``Rep.act_word``, and the eigenvalue search of ``Rep._weight_frame`` is
# bounded by the sl2-triples, not by Gershgorin discs
REMOVED = ("Catalecticant", "catalecticant_from_vector", "mm_algebra",
           "rank1_correspondence", "act_word", "_integer_eigenvalue_candidates")

# the one function allowed to branch on a string parameter: ``kind`` names a
# constructor of the module expression grammar
STRING_DISPATCHERS = {"reps.py:derived_rep"}


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


def test_removed_names_resolve_nowhere():
    modules = [orbitquad] + [importlib.import_module(f"orbitquad.{path.stem}")
                             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    assert [f"{m.__name__}.{name}" for m in modules for name in REMOVED
            if hasattr(m, name)] == []


def _is_string_literal(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_string_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def string_dispatchers(source, name):
    """``name:function`` for each function in the source that compares one
    of its parameters with a string literal (``==``, ``!=``, ``in``)."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if (any(isinstance(o, ast.Name) and o.id in params for o in operands)
                    and any(map(_is_string_literal, operands))):
                found.append(f"{name}:{fn.name}")
                break
    return found


def test_no_mode_string_dispatchers():
    found = {f for path in sorted(SRC.glob("*.py"))
             for f in string_dispatchers(path.read_text(), path.name)}
    assert found == STRING_DISPATCHERS
    # the scan sees a dispatcher of either form
    assert string_dispatchers(
        'def f(a, op):\n    if op == "add":\n        return a\n', "m.py") == ["m.py:f"]
    assert string_dispatchers(
        'def f(a, *, how=None):\n    return how in ("x", "y")\n', "m.py") == ["m.py:f"]
    assert string_dispatchers('def f(a, s):\n    return a.kind == "x"\n', "m.py") == []


def _identifiers(node):
    """Every name, attribute and imported or defined name under node."""
    for n in ast.walk(node):
        for field in ("id", "attr", "name"):
            if isinstance(getattr(n, field, None), str):
                yield getattr(n, field)


def _mentions(node, word):
    return any(word in name for name in _identifiers(node))


def test_certify_builds_nothing_over_the_box():
    """orbit.py calls no ``indices()`` and builds no list sized by the doubled
    box (``[...] * <doubled size>``, or a comprehension over
    ``range(<doubled size>)``); ``integer_inverse``, folded into
    ``linalg.augmented_rref``, is named nowhere in the package."""
    tree = ast.parse((SRC / "orbit.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "indices"):
            offenders.append(f"orbit.py:{node.lineno} indices()")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if isinstance(a, (ast.List, ast.ListComp)) and _mentions(b, "doubled"):
                    offenders.append(f"orbit.py:{node.lineno} list sized by the doubled box")
        if (isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", "") == "range"
                and _mentions(node.iter, "doubled")):
            offenders.append(f"orbit.py:{node.iter.lineno} comprehension over the doubled box")
    offenders += [path.name for path in sorted(SRC.glob("*.py"))
                  if "integer_inverse" in _identifiers(ast.parse(path.read_text()))]
    assert offenders == []


def _definition(path, qualname):
    """The def or class node at a dotted name (``Class.method``) of a module."""
    node = ast.parse((SRC / path).read_text())
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node


def test_the_ideal_path_builds_no_dense_quadric():
    """``ideal_of_module``, ``quadric_ideal`` and the ``ideal`` command read
    the sparse dual rows: they call no dense constructor and read no
    ``basis``, which builds one dense matrix per quadric."""
    dense = ("Mat", "Mat.zero", "trace_pairing_mat", "sym_coords_to_mat")
    offenders = []
    for path, name in [("orbit.py", "ideal_of_module"), ("orbit.py", "quadric_ideal"),
                       ("cli.py", "_cmd_ideal")]:
        for node in ast.walk(_definition(path, name)):
            if isinstance(node, ast.Call):
                call = ast.unparse(node.func)
                offenders += [f"{name} calls {call}" for d in dense
                              if call == d or call.endswith("." + d)]
            if isinstance(node, ast.Attribute) and node.attr == "basis":
                offenders.append(f"{name} reads basis")
    assert offenders == []


def test_homomorphism_check_reads_the_relations_only():
    """``Rep.verify_homomorphism`` reads the defining relations of sl(n) and
    no table of catalog pairs, nor the catalog, its matrices or the bracket to
    build one itself; no pair table is left on ``LieAlgebra``."""
    names = set(_identifiers(_definition("reps.py", "Rep.verify_homomorphism")))
    assert "relations" in names
    assert names.isdisjoint({"catalog", "generators", "bracket", "expand_in_catalog",
                             "structure_constants", "simple_structure_constants",
                             "combinations", "product", "permutations"})
    assert not hasattr(LieAlgebra, "simple_structure_constants")
    assert not hasattr(LieAlgebra, "structure_constants")


def test_the_components_path_builds_no_dense_system():
    """The isotypic supports are read through ``linalg.Coordinates`` on the
    components' integer rows: ``_projection_flags``, ``generic_vector`` and
    ``component_analysis`` build no ``Mat`` and call no ``solve``."""
    dense = ("Mat", "Mat.zero", "Mat.identity", "solve")
    offenders = []
    for name in ("_projection_flags", "generic_vector", "component_analysis"):
        for node in ast.walk(_definition("chordal.py", name)):
            if isinstance(node, ast.Call):
                call = ast.unparse(node.func)
                offenders += [f"{name} calls {call}" for d in dense
                              if call == d or call.endswith("." + d)]
    assert offenders == []


def test_multiplicity_freeness_is_checked_by_the_support_reader_only():
    """In ``chordal.py`` only ``_projection_flags`` reads ``multiplicity_free``;
    ``chordal_ideal``, ``generic_vector`` and ``component_analysis`` rely on it."""
    tree = ast.parse((SRC / "chordal.py").read_text())
    readers = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
               and "multiplicity_free" in _identifiers(f)}
    assert readers == {"_projection_flags"}


def test_the_correspondence_tables_solve_through_coordinates():
    """``_SeqData`` reads its coefficients through ``linalg.Coordinates`` and
    runs no elimination of its own."""
    names = set(_identifiers(_definition("orbit.py", "_SeqData")))
    assert "Coordinates" in names and "augmented_rref" not in names


def environment_reads(source, name):
    """``name:line`` for each read of the process environment: an
    ``environ`` or ``getenv`` attribute, or either name imported from os."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")) or (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in ("environ", "getenv") for a in node.names)):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    """Every cap is a module constant and every setting an argument, so no
    run depends on the shell it starts from."""
    found = [f for path in sorted(SRC.glob("*.py"))
             for f in environment_reads(path.read_text(), path.name)]
    assert found == []
    # the scan sees a read of either form
    assert environment_reads('import os\nx = os.environ.get("A")\n', "m.py") == ["m.py:2"]
    assert environment_reads('from os import getenv\n', "m.py") == ["m.py:1"]


CONSTRUCTIONS = ("standard_rep", "_dual_action", "_wedge_action", "_sym_action",
                 "_tensor_action", "_sym2_action")


def construction_offenders(fn):
    """What a construction's def node reads beyond the Chevalley generators:
    no ``chevalley`` and no other construction to take columns from, the
    catalog, a list of root vectors, or every column of its parent."""
    names = set(_identifiers(fn)) - {fn.name}
    offenders = []
    if "chevalley" not in names and not names & set(CONSTRUCTIONS):
        offenders.append(f"{fn.name} reads no chevalley")
    offenders += [f"{fn.name} reads {word}" for word in
                  ("catalog", "x_symbols", "y_symbols", "xy_symbols") if word in names]
    offenders += [f"{fn.name} reads columns.items()" for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and node.attr == "items"
                  and _mentions(node.value, "columns")]
    return offenders


def test_constructions_build_the_chevalley_generators_only():
    """Each construction reads ``LieAlgebra.chevalley``, or takes its columns
    from one that does, and none reads the catalog, a list of root vectors
    or every column of its parent: every other root vector is the bracket
    its step relation defines, filled in by ``Rep``."""
    assert [o for name in CONSTRUCTIONS
            for o in construction_offenders(_definition("reps.py", name))] == []
    # the scan flags a construction reading the coroots only, though its own
    # name is that of a construction
    fake = ast.parse("def _dual_action(r):\n"
                     "    return {s: r.columns[s] for s in r.algebra.h_symbols()}\n").body[0]
    assert construction_offenders(fake) == ["_dual_action reads no chevalley"]


def test_weights_are_searched_in_the_weight_frame_only():
    """``weight_decomposition`` reads ``Rep._weight_frame`` and runs no
    eigenvalue search of its own: in ``reps.py`` only the frame cuts
    eigenspaces (``rref`` kernels and ``intersect``)."""
    names = set(_identifiers(_definition("reps.py", "weight_decomposition")))
    assert "_weight_frame" in names
    assert names.isdisjoint({"rref", "intersect", "Mat", "h_symbols"})
    searchers = {fn.name for fn in ast.walk(ast.parse((SRC / "reps.py").read_text()))
                 if isinstance(fn, ast.FunctionDef)
                 and {"rref", "intersect"} & set(_identifiers(fn)) - {fn.name}}
    assert searchers == {"_weight_frame"}
