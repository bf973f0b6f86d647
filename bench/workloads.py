"""The three workloads: seeded jobs, each one exact question with its check.

A job's ``run`` is the timed call into orbitquad; its ``check`` looks at the
output afterwards, untimed, and returns a list of problems (empty when the
answer is right).  Expected answers come from ``oracle`` and from classical
facts, never from stored output.  ``cold`` names which of the library's
caches a job starts without: ``"all"`` (cold construction) or ``"orbits"``
(modules stay warm, orbit-level caches are emptied).

Every round of a workload runs the same jobs in the same order, so the share
of failed jobs is the same in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import oracle
from orbitquad import chordal, cli, orbit, reps
from orbitquad.lie import make_sl
from orbitquad.linalg import Mat, format_scalar

# The one job that fails today, because of a fault in the program: the
# module and orbit caches are keyed by a caller-chosen label.
KNOWN_FAULT = "build.label_collision"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    cold: str


def reset_caches(scope: str) -> None:
    """Empty orbitquad's module-level caches before a cold job.

    Every module-level object whose name contains "cache" and that has a
    ``clear`` method, and every ``functools`` cached function, is emptied:
    in all modules for ``"all"``, in all but ``reps`` (the constructed
    modules) for ``"orbits"``.  A cache kept anywhere else is not reached.
    """
    for mod in (reps, orbit, chordal, cli):
        if scope == "orbits" and mod is reps:
            continue
        for name, value in vars(mod).items():
            # a traced run wraps public functions; the cache sits underneath
            clear = getattr(value, "cache_clear", None) or getattr(
                getattr(value, "__wrapped__", None), "cache_clear", None)
            if clear:
                clear()
            elif "cache" in name.lower() and callable(getattr(value, "clear", None)):
                value.clear()


def _vec_arg(v) -> str:
    return ",".join(format_scalar(F(e)) for e in v)


def _unit(dim: int, index: int) -> list:
    return [F(int(i == index)) for i in range(dim)]


def _dim_of(expr: str, n: int) -> int:
    return len(oracle.basis_weights(oracle.parse_expr(expr), n))


# ---------------------------------------------------------------------------
# build: cold construction through the command line front end

# Every build job takes well under a second: the host's speed jitters at
# sub-second scale, and the minimum over many short runs of a job is steady
# where the minimum over a few long ones is not.

# (n, expression) for `decompose`
BUILD_DECOMPOSE = [
    (3, "sym2(sym(2,std))"),
    (3, "tensor(sym(2,std),std)"),
    (4, "tensor(std,std)"),
]

# (n, expression, index of a highest-weight basis vector) for `ideal`
BUILD_IDEAL = [
    (3, "sym(2,std)", 0),
    (3, "dual(sym(2,std))", 5),
    (2, "sym(6,std)", 0),
    (2, "sym(8,std)", 0),
    (4, "std", 0),
]


def _cli(argv):
    def run():
        return cli.run(cli.parse_spec(argv))
    return run


def _check_decompose(n: int, expr: str):
    def check(out):
        # peeled at the first check, not in set-up, which setup_s times
        want = oracle.isotypic_expectation(expr, n)
        text, code = out
        if code != 0:
            return [f"exit code {code}"]
        res = json.loads(text)["result"]
        got = sorted((tuple(c["weight"]), c["multiplicity"], c["dim"])
                     for c in res["isotypic"])
        problems = []
        if got != want:
            problems.append(f"isotypic {got} != oracle {want}")
        if res["dim"] != sum(d for _, _, d in want):
            problems.append(f"dim {res['dim']}")
        if res["multiplicity_free"] != all(m == 1 for _, m, _ in want):
            problems.append("multiplicity_free flag")
        return problems
    return check


def check_ideal_doc(expr: str, n: int, lam, y, samples, out) -> list:
    """Dims against Weyl's formula for V(2 lam); every quadric vanishes on the orbit."""
    text, code = out
    if code != 0:
        return [f"exit code {code}"]
    res = json.loads(text)["result"]
    d = len(y)
    s2 = d * (d + 1) // 2
    module = oracle.weyl_dim(tuple(2 * c for c in lam))
    want = {"V": d, "S2V": s2, "module": module, "ideal": s2 - module}
    problems = []
    if res["dims"] != want:
        problems.append(f"dims {res['dims']} != {want}")
    if len(res["ideal_basis"]) != want["ideal"]:
        problems.append(f"{len(res['ideal_basis'])} quadrics returned")
    for k, rows in enumerate(res["ideal_basis"]):
        phi = oracle.parse_matrix(rows)
        for x in [y] + samples:
            if oracle.quadric_value(phi, x):
                problems.append(f"quadric {k} does not vanish on the orbit")
                break
    return problems


def _label_collision():
    """orbit_module of the real sym(3,std) of sl(2), then of a user module
    with the same label whose action is trivial + sym^2."""
    def run():
        g = make_sl(2)
        real = cli.parse_rep("sym(3,std)", g)
        y = [F(1), F(0), F(0), F(1)]
        first = orbit.orbit_module(real, y).dim
        quad = reps.derived_rep(reps.standard_rep(g), "sym", 2)
        action = {}
        for sym, m in quad.action.items():
            rows = [[F(0)] * 4] + [[F(0)] + list(row) for row in m.data]
            action[sym] = Mat(rows)
        user = reps.Rep(g, "sym(3,std)", action)
        return first, orbit.orbit_module(user, y).dim

    # x^3 + y^3 has distinct roots, so its orbit is open and the module is
    # all of S^2(V); on the user module, y = 1 + z^2 with z^2 a null vector
    # of sym^2, so the module is trivial + V_2 + V_4.
    real_want = 10 if oracle.cubic_discriminant([F(1), F(0), F(0), F(1)]) else None
    user_want = oracle.weyl_dim((0,)) + oracle.weyl_dim((2,)) + oracle.weyl_dim((4,))

    def check(out):
        first, second = out
        problems = []
        if first != real_want:
            problems.append(f"sym(3,std) module dim {first} != {real_want}")
        if second != user_want:
            problems.append(f"trivial+sym^2 module dim {second} != {user_want}")
        return problems
    return Job(KNOWN_FAULT, run, check, cold="all")


def build_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, expr in BUILD_DECOMPOSE:
        argv = ["decompose", "--alg", f"sl:{n}", "--rep", expr]
        jobs.append(Job(f"build.decompose.{expr}@sl{n}", _cli(argv),
                        _check_decompose(n, expr), cold="all"))
    for n, expr, index in BUILD_IDEAL:
        y, lam, samples = _translate_of_highest(rng, expr, n, index)
        argv = ["ideal", "--alg", f"sl:{n}", "--rep", expr, f"--y={_vec_arg(y)}"]
        jobs.append(Job(
            f"build.ideal.{expr}@sl{n}", _cli(argv),
            lambda out, e=expr, n=n, lam=lam, y=y, s=samples:
                check_ideal_doc(e, n, lam, y, s, out),
            cold="all"))
    jobs.append(_label_collision())
    return jobs


def _translate_of_highest(rng, expr, n, index):
    """A group translate of a highest-weight basis vector, its weight, and
    two further points of its orbit."""
    tree = oracle.parse_expr(expr)
    hw = _unit(_dim_of(expr, n), index)
    lam = oracle.highest_weight_labels(expr, n, index)
    mat = oracle.module_matrix(tree, oracle.lowering_word(rng, n), n)
    y = oracle.mat_apply(mat, hw)
    samples = [oracle.mat_apply(oracle.module_matrix(tree, oracle.unipotent_word(rng, n, 3), n), y)
               for _ in range(2)]
    return y, lam, samples


# ---------------------------------------------------------------------------
# certify: the correspondence pipeline on small modules

CERTIFY_TRIALS = 4
# The certifier's own trial seed is fixed: its random words and functionals
# change a job's cost by up to a factor of two, which would swamp the
# benchmark seed's choice of points.
CERTIFY_SEED = 1

# (n, expression, index of a highest-weight basis vector)
CERTIFY_HIGHEST = [
    (2, "sym(3,std)", 0),
    (2, "sym(4,std)", 0),
    (3, "sym(2,std)", 0),
    (4, "wedge(2,std)", 0),
]


def certify_setup():
    """Builds every module the certify jobs use (and its symmetric square)."""
    out = {}
    for n, expr in [(2, "sym(3,std)"), (2, "sym(4,std)"), (3, "sym(2,std)"),
                    (4, "wedge(2,std)")]:
        r = cli.parse_rep(expr, make_sl(n))
        r.sym_square()
        out[(n, expr)] = r
    return out


def check_certify_report(report, want_module: int) -> list:
    """Consistent verdict, every check passing all its trials, exact dims."""
    problems = []
    if report.verdict != "consistent":
        problems.append(f"verdict {report.verdict}")
    for name in ("leibniz", "decompose", "reverse"):
        trials = getattr(report, f"{name}_trials")
        passes = getattr(report, f"{name}_passes")
        if not trials or passes != trials:
            problems.append(f"{name} {passes}/{trials}")
    # a conjugate phi_A(B) = 0 is a logged outcome, not a failed trial
    if report.forward_passes + report.forward_rank0 != report.forward_trials \
            or not report.forward_trials:
        problems.append(f"forward {report.forward_passes}/{report.forward_trials}")
    if report.hyperplane_good + report.hyperplane_bad != report.hyperplane_trials:
        problems.append("hyperplane ledger does not add up")
    s2 = report.dims["S2V"]
    want = {"V": report.dims["V"], "S2V": s2, "module": want_module,
            "ideal": s2 - want_module}
    if report.dims != want:
        problems.append(f"dims {report.dims} != {want}")
    return problems


def _certify_job(name, r, y, want_module, extra=None):
    def run():
        report = orbit.certify_irreducibility(r, y, trials=CERTIFY_TRIALS, seed=CERTIFY_SEED)
        ideal = orbit.quadric_ideal(r, y) if extra else None
        return report, ideal

    def check(out):
        report, ideal = out
        problems = check_certify_report(report, want_module)
        if extra:
            problems += extra(ideal)
        return problems
    return Job(name, run, check, cold="orbits")


def _random_point(rng, dim, accept):
    """Seeded coordinates +-1 satisfying accept: all seeds give numbers of
    the same size, which keeps a job's cost from swinging with the seed."""
    while True:
        v = [F(rng.choice((-1, 1))) for _ in range(dim)]
        if accept(v):
            return v


def _public_calls_job(r, y, seed):
    """leibniz_check over the whole doubled box and decompose_Q on seeded
    words, called as README shows them (no shared precomputation)."""
    rng = random.Random(seed)
    words = [tuple(rng.choice(r.algebra.catalog) for _ in range(rng.randint(1, 3)))
             for _ in range(3)]

    def run():
        gs = orbit.generator_sequence(r, y)
        leibniz = [orbit.leibniz_check(r, y, gs, n) for n in gs.box.doubled().indices()]
        decomps = [orbit.decompose_Q(r, y, gs, w) for w in words]
        return gs, leibniz, decomps

    def check(out):
        gs, leibniz, decomps = out
        problems = []
        if not leibniz or not all(leibniz):
            problems.append(f"leibniz {sum(leibniz)}/{len(leibniz)}")
        doubled = gs.box.doubled()
        for b in decomps:
            if b.box != doubled or len(b.data) != doubled.size:
                problems.append("decompose_Q result off the doubled box")
        return problems
    return Job("certify.public_calls.sym(3,std)@sl2", run, check, cold="orbits")


def certify_jobs(seed: int, modules) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, expr, index in CERTIFY_HIGHEST:
        # the same translate for every seed: its signs move the certifier's
        # cost by a fifth, and the wedge job sits at the median of the round
        y, lam, _ = _translate_of_highest(random.Random(0), expr, n, index)
        jobs.append(_certify_job(
            f"certify.highest.{expr}@sl{n}", modules[(n, expr)], y,
            oracle.weyl_dim(tuple(2 * c for c in lam))))
    cubic = _random_point(rng, 4, lambda c: oracle.cubic_discriminant(c) != 0)
    jobs.append(_certify_job("certify.open.cubic@sl2", modules[(2, "sym(3,std)")], cubic, 10))
    quartic = _random_point(rng, 5, lambda c: oracle.quartic_has_distinct_roots(c)
                            and oracle.quartic_invariant_i(c) != 0)
    jobs.append(_certify_job("certify.open.quartic@sl2", modules[(2, "sym(4,std)")],
                             quartic, 15))
    # (x + y)^4 - (x + y) y^3, a translate of x^4 - x y^3, whose invariant I
    # vanishes: the ideal is I.  The same point for every seed, since the
    # translate by x -> x - y costs twice as much.
    s4 = modules[(2, "sym(4,std)")]
    tree = oracle.parse_expr("sym(4,std)")
    equi = oracle.mat_apply(oracle.module_matrix(tree, [(1, 0, F(1))], 2),
                            [F(1), F(0), F(0), F(-1), F(0)])
    if not oracle.quartic_has_distinct_roots(equi) or oracle.quartic_invariant_i(equi):
        raise ValueError("the equianharmonic quartic lost distinct roots or I = 0")

    def spanned_by_i(ideal):
        if ideal.dim != 1 or not oracle.proportional(
                [list(row) for row in ideal.basis[0].data], oracle.quartic_i_form()):
            return ["ideal is not spanned by the invariant I"]
        return []
    jobs.append(_certify_job("certify.equianharmonic.quartic@sl2", s4, equi, 14,
                             extra=spanned_by_i))
    ternary = _random_point(rng, 6, lambda c: oracle.ternary_quadric_det(c) != 0)
    jobs.append(_certify_job("certify.open.ternary_quadric@sl3", modules[(3, "sym(2,std)")],
                             ternary, 21))
    # x0^2 + x1^2: the rank-2 conics fill the cubic hypersurface det = 0,
    # which lies on no quadric, so the ideal is 0.  A fixed point, like the
    # highest-weight translates, so that the middle of the round does not
    # move with the seed.
    rank2 = [F(1), F(0), F(0), F(1), F(0), F(0)]
    jobs.append(_certify_job("certify.rank2.ternary_quadric@sl3", modules[(3, "sym(2,std)")],
                             rank2, 21))
    point = _random_point(rng, 4, lambda c: oracle.cubic_discriminant(c) != 0)
    jobs.append(_public_calls_job(modules[(2, "sym(3,std)")], point, rng.randrange(1 << 16)))
    return jobs


# ---------------------------------------------------------------------------
# chordal: many cold closures on one warm module

CHORDAL_SEEDS = 8
COMPONENT_JOBS = 2


def chordal_setup():
    """Builds wedge(2,std) of sl(4) and its symmetric square."""
    w24 = chordal.ChordalSpec(4, 2, 1).wedge_rep()
    w24.sym_square()
    return w24


def _decomposable(rng):
    u = [F(rng.randint(-3, 3)) for _ in range(4)]
    v = [F(rng.randint(-3, 3)) for _ in range(4)]
    return [u[i] * v[j] - u[j] * v[i] for i in range(4) for j in range(i + 1, 4)]


def _plucker_form():
    phi = [[F(0)] * 6 for _ in range(6)]
    for (a, b), c in (((0, 5), F(1, 2)), ((1, 4), F(-1, 2)), ((2, 3), F(1, 2))):
        phi[a][b] = phi[b][a] = c
    return phi


def _chordal_job(p, index, seed, rng):
    spec = chordal.ChordalSpec(4, 2, p)
    fresh = [x for x in (_decomposable(rng) for _ in range(4)) if any(x)]

    def run():
        return chordal.chordal_ideal(spec, seed=seed)

    def check(report):
        ideal = report.ideal
        if p == 2:
            return [] if ideal.dim == 0 and report.span_dim == 21 else \
                [f"(4,2,2) ideal dim {ideal.dim}, span {report.span_dim}"]
        if ideal.dim != 1:
            return [f"(4,2,1) ideal dim {ideal.dim}"]
        phi = [list(row) for row in ideal.basis[0].data]
        problems = []
        if not oracle.proportional(phi, _plucker_form()):
            problems.append("(4,2,1) quadric is not the Pluecker quadric")
        if any(oracle.quadric_value(phi, x) for x in fresh):
            problems.append("(4,2,1) quadric does not vanish on fresh samples")
        return problems
    return Job(f"chordal.ideal.p{p}.{index}", run, check, cold="orbits")


def _components_job(index, rng, w24):
    points = []
    for k in range(5):
        if k % 2:
            points.append(_decomposable(rng))
        else:
            points.append([F(rng.randint(-3, 3)) for _ in range(6)])
    points = [x for x in points if any(x)]
    # support: component 0 (the Cartan piece V(0,2,0)) always, and the
    # trivial piece exactly where the Pluecker quadric does not vanish
    supports = [frozenset({0, 1}) if oracle.plucker(x) else frozenset({0}) for x in points]

    def run():
        return chordal.component_analysis(w24, points)

    def check(rep):
        groups: dict = {}
        for i, s in enumerate(supports):
            groups.setdefault(s, []).append(i)
        distinct = list(groups)
        maximal = [s for s in distinct if not any(s < t for t in distinct)]
        union = frozenset().union(*supports)
        want = {
            "point_sets": supports,
            "merged": sorted(groups.values()),
            "containments": sorted((i, j) for i, a in enumerate(supports)
                                   for j, b in enumerate(supports) if i != j and a <= b),
            "maximal_count": len(maximal),
            "free_indices": len(union),
            "component_dims": [20, 1],
        }
        got = {
            "point_sets": rep.point_sets, "merged": rep.merged,
            "containments": rep.containments, "maximal_count": rep.maximal_count,
            "free_indices": rep.free_indices,
            "component_dims": rep.details.get("component_dims"),
        }
        problems = [f"{k}: {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
        if not rep.bound_ok or rep.bound != (2 if len(union) == 2 else 1):
            problems.append(f"sperner bound {rep.bound}")
        return problems
    return Job(f"chordal.components.{index}", run, check, cold="orbits")


def _open_orbit_job(rng, w24):
    """quadric_ideal at a translate of E12+E34: the Pluecker quadric is
    invariant and nonzero there, so the orbit is open and the ideal is 0."""
    y = oracle.mat_apply(
        oracle.module_matrix(oracle.parse_expr("wedge(2,std)"), oracle.lowering_word(rng, 4), 4),
        [F(1), F(0), F(0), F(0), F(0), F(1)])
    if not oracle.plucker(y):
        raise ValueError("translate of E12+E34 left the open orbit")

    def run():
        return orbit.quadric_ideal(w24, y)

    def check(ideal):
        if ideal.module.dim != 21 or ideal.dim != 0:
            return [f"module {ideal.module.dim}, ideal {ideal.dim} at E12+E34"]
        return []
    return Job("chordal.open.E12+E34", run, check, cold="orbits")


def chordal_jobs(seed: int, w24) -> list[Job]:
    rng = random.Random(seed)
    jobs = [_open_orbit_job(rng, w24)]
    for p in (1, 2):
        for index in range(CHORDAL_SEEDS):
            jobs.append(_chordal_job(p, index, rng.randrange(1 << 30), rng))
    for index in range(COMPONENT_JOBS):
        jobs.append(_components_job(index, rng, w24))
    return jobs


def setup(workload: str, seed: int) -> list[Job]:
    """Everything a pass does before its first job: modules and inputs."""
    if workload == "build":
        return build_jobs(seed)
    if workload == "certify":
        return certify_jobs(seed, certify_setup())
    if workload == "chordal":
        return chordal_jobs(seed, chordal_setup())
    raise ValueError(f"unknown workload {workload!r}")

