"""Fast tests of the benchmark itself: checkers, oracle, tracer, contract.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orbitquad import orbit, reps  # noqa: E402
from orbitquad.linalg import Mat  # noqa: E402


# ---------------------------------------------------------------------------
# oracle

def test_weyl_dimensions():
    assert oracle.weyl_dim((1, 0, 0)) == 4
    assert oracle.weyl_dim((0, 2, 0)) == 20
    assert oracle.weyl_dim((2, 2)) == 27
    assert oracle.weyl_dim((4,)) == 5


def test_decomposition_of_known_modules():
    assert oracle.isotypic_expectation("sym2(wedge(2,std))", 4) == [
        ((0, 0, 0), 1, 1), ((0, 2, 0), 1, 20)]
    assert oracle.isotypic_expectation("sym2(tensor(std,dual(std)))", 3) == [
        ((0, 0), 2, 2), ((1, 1), 2, 16), ((2, 2), 1, 27)]


def test_group_action_is_multiplicative():
    import random
    rng = random.Random(3)
    tree = oracle.parse_expr("sym2(dual(wedge(2,std)))")
    a, b = oracle.unipotent_word(rng, 4, 2), oracle.unipotent_word(rng, 4, 2)
    assert oracle.module_matrix(tree, a + b, 4) == oracle.mat_mul(
        oracle.module_matrix(tree, a, 4), oracle.module_matrix(tree, b, 4))


# ---------------------------------------------------------------------------
# every checker rejects a planted wrong answer

def _ideal_doc(dims, basis):
    return json.dumps({"result": {"dims": dims, "ideal_basis": basis}}), 0


def test_ideal_checker():
    # the conic x^2 in sym(2,std) of sl(2): module V(4), ideal spanned by b^2 - 4ac
    y = [F(1), F(0), F(0)]
    good_quadric = [["0", "0", "-2"], ["0", "1", "0"], ["-2", "0", "0"]]
    dims = {"V": 3, "S2V": 6, "module": 5, "ideal": 1}
    sample = [F(1), F(2), F(1)]  # (x + z)^2
    assert workloads.check_ideal_doc("sym(2,std)", 2, (2,), y, [sample],
                                     _ideal_doc(dims, [good_quadric])) == []
    off_by_one = dict(dims, ideal=2)
    assert workloads.check_ideal_doc("sym(2,std)", 2, (2,), y, [sample],
                                     _ideal_doc(off_by_one, [good_quadric]))
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert workloads.check_ideal_doc("sym(2,std)", 2, (2,), y, [sample],
                                     _ideal_doc(dims, [identity]))
    assert workloads.check_ideal_doc("sym(2,std)", 2, (2,), y, [sample], ("", 3))


def test_decompose_checker():
    check = workloads._check_decompose(4, "sym2(wedge(2,std))")
    comps = [{"weight": [0, 2, 0], "multiplicity": 1, "dim": 20},
             {"weight": [0, 0, 0], "multiplicity": 1, "dim": 1}]
    doc = {"result": {"dim": 21, "isotypic": comps, "multiplicity_free": True}}
    assert check((json.dumps(doc), 0)) == []
    comps[1]["dim"] = 2
    assert check((json.dumps(doc), 0))


def test_certify_checker():
    report = SimpleNamespace(
        verdict="consistent", dims={"V": 4, "S2V": 10, "module": 7, "ideal": 3},
        leibniz_trials=7, leibniz_passes=7, decompose_trials=8, decompose_passes=8,
        reverse_trials=8, reverse_passes=8, forward_trials=8, forward_passes=8,
        forward_rank0=0, hyperplane_trials=9, hyperplane_good=8, hyperplane_bad=1)
    assert workloads.check_certify_report(report, 7) == []
    assert workloads.check_certify_report(report, 8)
    report.leibniz_passes = 6
    assert workloads.check_certify_report(report, 7)


def test_label_collision_checker():
    job = workloads._label_collision()
    assert job.check((10, 9)) == []
    assert job.check((10, 10))


def test_reset_caches_scopes():
    from orbitquad import make_sl
    r = reps.derived_rep(reps.standard_rep(make_sl(2)), "sym", 2)
    orbit.orbit_module(r, [F(1), F(0), F(0)])
    workloads.reset_caches("orbits")
    assert reps._REP_CACHE and not orbit._MODULE_CACHE
    workloads.reset_caches("all")
    assert not reps._REP_CACHE


def test_chordal_checker_needs_the_pluecker_quadric():
    import random
    job = workloads._chordal_job(1, 0, 5, random.Random(0))
    plucker = Mat(workloads._plucker_form())
    fake = SimpleNamespace(ideal=SimpleNamespace(dim=1, basis=[plucker]), span_dim=20)
    assert job.check(fake) == []
    wrong = Mat([[F(int(i == j)) for j in range(6)] for i in range(6)])
    fake.ideal.basis = [wrong]
    assert job.check(fake)


def test_components_checker():
    import random
    w24 = workloads.chordal_setup()
    job = workloads._components_job(0, random.Random(4), w24)
    rep = job.run()
    assert job.check(rep) == []
    rep.point_sets = [frozenset({0})] * len(rep.point_sets)
    assert job.check(rep)


# ---------------------------------------------------------------------------
# the tracer

def _fake_package(tmp_path, name):
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .low import g\n")
    (pkg / "low.py").write_text(textwrap.dedent("""
        class Box:
            def __init__(self, n):
                self.n = n

            def grow(self):
                return Box(self.n + 1)


        def g(x):
            return Box(x).grow().n
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import g


        def f(x):
            return g(x) + g(x + 1)


        def _private(x):
            return g(x)
    """))
    sys.path.insert(0, str(tmp_path))
    return name


def test_tracer_counts_a_known_call_sequence(tmp_path):
    name = _fake_package(tmp_path, "fakepkg_counts")
    import importlib
    high = importlib.import_module(f"{name}.high")
    low = importlib.import_module(f"{name}.low")
    pkg = importlib.import_module(name)
    originals = (high.f, high.g, low.g, pkg.g, low.Box.__init__, low.Box.grow)

    tracer = tracing.Tracer(package=name, layers=("low", "high"))
    tracer.install()
    try:
        assert high.g is low.g is pkg.g and high.g is not originals[1]
        assert high._private(1) == 2  # private names are not wrapped
        tracer.reset()
        assert high.f(1) == 5
        stats = tracer.stats
        assert stats["high:f"].calls == 1
        assert stats["low:g"].calls == 2
        assert stats["low:Box.__init__"].calls == 4
        assert stats["low:Box.grow"].calls == 2
        assert "high:_private" not in stats
        total = stats["high:f"].seconds
        layers = tracer.self_time["high"] + tracer.self_time["low"]
        assert abs(layers - total) < 1e-6
        assert stats["low:g"].seconds <= total
        # every orbitquad metric is missing in a package that lacks its names
        assert all(v is None for v in tracer.snapshot().values())
    finally:
        tracer.restore()
    assert (high.f, high.g, low.g, pkg.g, low.Box.__init__, low.Box.grow) == originals


def test_tracer_on_orbitquad_wraps_every_binding_and_restores():
    from orbitquad import make_sl
    original = reps.cyclic_closure
    assert orbit.cyclic_closure is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reps.cyclic_closure is orbit.cyclic_closure is not original
        workloads.reset_caches("all")
        tracer.reset()
        r = reps.derived_rep(reps.standard_rep(make_sl(2)), "sym", 3)
        y = [F(1), F(0), F(0), F(0)]
        assert orbit.orbit_module(r, y).dim == 7
        assert orbit.orbit_module(r, y).dim == 7
        snap = tracer.snapshot()
        assert snap["orbit.orbit_module.calls"] == 2
        assert snap["orbit.orbit_module.misses"] == 1
        assert snap["reps.cyclic_closure.calls"] == 1
        # sym(3,std) and its symmetric square were both constructed
        assert snap["reps.derived_rep.builds"] == 2
        assert snap["reps.verify_homomorphism.calls"] == 2
        assert snap["linalg.span_add.grew"] == 7
        assert all(v is not None for v in snap.values())
    finally:
        tracer.restore()
    assert reps.cyclic_closure is orbit.cyclic_closure is original


# ---------------------------------------------------------------------------
# BENCHMARK.json and what the command prints

def _pass(trace):
    snap = {name: 1 for name, *_ in tracing.METRICS}
    layers = [{"kernel": 0.022, "metrics": snap}] if trace else []
    return 0.5, {"attempted": 2, "failed": 1, "known_fault": "a", "setup_kernel": 0.011,
                 "samples": {"a": [[1.0, 0.011]], "b": [[6.0, 0.022], [3.0, 0.011]]},
                 "problems": {"a": ["x"]}, "peak_rss_mb": 10.0, "layers": layers,
                 "setup_layers": snap if trace else None}


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    printed = run.summarize([_pass(0)] * 3, 0)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 3 and printed["attempted"] == 6
    # job b ran at half speed once: both of its runs scale to 3.0 s
    assert printed["metrics"]["run_s"]["value"] == 4.0
    assert printed["metrics"]["setup_s"]["value"] == 0.5
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in printed["metrics"].items()]

    printed = run.summarize([_pass(1)] * 3, 1)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in printed["metrics"].items()]
    assert printed["metrics"]["linalg.self_s"]["value"] == 0.5
    assert printed["metrics"]["linalg.mat_mul.calls"]["value"] == 1
    assert printed["metrics"]["setup.reps.verify_homomorphism.s"]["value"] == 1


def test_empty_directory_run_fails_without_a_result(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "build", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
