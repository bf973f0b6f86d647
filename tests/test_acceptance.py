"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality of rationals or integers (tolerance zero).  Each
test prints one PASS line on success; run with ``pytest -s`` to see them.
"""

import json
import random
from fractions import Fraction as F

from antichain_reference import antichain_brute_force
from orbitquad.chordal import (
    lemma_suma_check,
    sperner_bound,
)
from orbitquad.cli import main as cli_main
from orbitquad.lie import make_sl
from orbitquad.linalg import annihilator
from orbitquad.multimatrix import MultiVector, catalecticant, mu_image_span, phi_A
from orbitquad.orbit import (
    build_A,
    certify_irreducibility,
    decompose_Q,
    forward_correspondence,
    generator_sequence,
    hyperplane_check,
    leibniz_check,
    my_membership,
    quadric_ideal,
    reverse_correspondence,
)
from orbitquad.linalg import Subspace
from orbitquad.reps import (
    cyclic_module,
    derived_rep,
    exp_nilpotent,
    isotypic_decomposition,
    standard_rep,
    weights_multiset,
)

import weyl_oracle
from hyperplane_reference import evaluation_hyperplane


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def sl2_sym(d):
    return derived_rep(standard_rep(make_sl(2)), "sym", d)


def wedge2_sl4():
    return derived_rep(standard_rep(make_sl(4)), "wedge", 2)


E12 = unit(6, 0)
E12_34 = [F(1), F(0), F(0), F(0), F(0), F(1)]


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def random_vector(rng, n):
    while True:
        v = [F(rng.randint(-3, 3)) for _ in range(n)]
        if any(v):
            return v


def test_acceptance_1_leibniz_suite():
    rng = random.Random(101)
    checked = 0
    for d in range(1, 5):
        r = sl2_sym(d)
        ys = [unit(d + 1, 0)] + [random_vector(rng, d + 1) for _ in range(10)]
        for y in ys:
            gs = generator_sequence(r, y)
            for n in gs.box.doubled().indices():
                assert leibniz_check(r, y, gs, n)
                checked += 1
    report(1, f"Leibniz identity exact on {checked} multi-indices across sym(d), d<=4")


def test_acceptance_2_decomposition_suite():
    instances = [
        (sl2_sym(2), unit(3, 0)),
        (sl2_sym(3), unit(4, 0)),
        (standard_rep(make_sl(3)), unit(3, 0)),
    ]
    rng = random.Random(202)
    total = 0
    for r, y in instances:
        gs = generator_sequence(r, y)
        catalog = r.algebra.catalog
        for _ in range(20):
            word = tuple(rng.choice(catalog) for _ in range(rng.randint(0, 4)))
            decompose_Q(r, y, gs, word)  # raises unless the residual is exactly zero
            total += 1
    report(2, f"{total} random words decomposed with exactly zero residual")


def test_acceptance_3_dimension_table():
    table = [
        (derived_rep(sl2_sym(2), "sym2"), [5, 1]),
        (derived_rep(sl2_sym(3), "sym2"), [7, 3]),
        (derived_rep(wedge2_sl4(), "sym2"), [20, 1]),
    ]
    for rep, dims in table:
        decomp = isotypic_decomposition(rep)
        assert decomp.dims() == dims
        oracle = weyl_oracle.isotypic_dims(rep.algebra.n, weights_multiset(rep))
        assert sorted(dims, reverse=True) == oracle
    ideals = [
        (sl2_sym(2), unit(3, 0), 1),
        (sl2_sym(3), unit(4, 0), 3),
        (wedge2_sl4(), E12, 1),
        (wedge2_sl4(), E12_34, 0),
    ]
    for r, y, dim in ideals:
        assert quadric_ideal(r, y).dim == dim
    report(3, "isotypic dims [5,1] [7,3] [20,1] and ideal dims 1/3/1/0, oracle-checked")


def test_acceptance_4_membership_suite():
    r = wedge2_sl4()
    rng = random.Random(404)
    decomposables = 0
    while decomposables < 20:
        u = random_vector(rng, 4)
        w = random_vector(rng, 4)
        from orbitquad.chordal import wedge_coordinates

        x = wedge_coordinates([u, w], 4)
        if not any(x):
            continue
        assert my_membership(r, E12, x)
        decomposables += 1
    generics = 0
    while generics < 20:
        x = random_vector(rng, 6)
        plucker = x[0] * x[5] - x[1] * x[4] + x[2] * x[3]
        if plucker == 0:
            continue
        assert not my_membership(r, E12, x)
        generics += 1
    report(4, "20 decomposable 2-vectors pass membership, 20 generic ones fail")


def test_acceptance_5_sperner_values():
    assert [sperner_bound(s) for s in (1, 2, 3, 4)] == [1, 2, 3, 6]
    assert sperner_bound(5) == antichain_brute_force(5) == 10
    report(5, "phi(s) = 1, 2, 3, 6 for s = 1..4 and matches exhaustive search at s = 5")


def test_acceptance_6_suma_suite():
    r1 = derived_rep(sl2_sym(2), "sym2")
    d1 = isotypic_decomposition(r1)
    picks1 = [list(c.subspace.basis[0]) for c in d1.components]
    assert lemma_suma_check(r1, picks1)
    total1 = [a + b for a, b in zip(*picks1)]
    assert cyclic_module(r1, total1).dim == 6

    r2 = derived_rep(wedge2_sl4(), "sym2")
    d2 = isotypic_decomposition(r2)
    picks2 = [list(c.subspace.basis[0]) for c in d2.components]
    assert lemma_suma_check(r2, picks2)
    total2 = [a + b for a, b in zip(*picks2)]
    assert cyclic_module(r2, total2).dim == 21
    report(6, "sum-of-highest-weight modules have dims 6 and 21 exactly")


def _orbit_point(rng, r, y):
    xy = r.algebra.xy_symbols()
    x = list(y)
    for _ in range(rng.randint(1, 4)):
        sym = rng.choice(xy)
        t = F(rng.choice([-2, -1, 1, 2]))
        x = exp_nilpotent(r, sym, t).apply(x)
    return x


def test_acceptance_7_reverse_suite():
    for d in (2, 3):
        r = sl2_sym(d)
        y = unit(d + 1, 0)
        gs = generator_sequence(r, y)
        rng = random.Random(700 + d)
        for _ in range(25):
            x = _orbit_point(rng, r, y)
            assert my_membership(r, y, x)
            out = reverse_correspondence(r, y, gs, x)
            assert out.ok and out.b is not None
    report(7, "25 orbit samples per instance pass membership with exact preimages")


def test_acceptance_8_forward_suite():
    for d in (2, 3):
        r = sl2_sym(d)
        y = unit(d + 1, 0)
        gs = generator_sequence(r, y)
        a = build_A(r, y, gs)
        rng = random.Random(800 + d)
        seen = set()
        good = 0
        attempts = 0
        while good < 25:
            attempts += 1
            assert attempts < 500, "could not sample enough hyperplanes"
            t = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            if t in seen:
                continue
            seen.add(t)
            sampled = evaluation_hyperplane(a, (t,))
            if sampled is None:
                continue
            w, v = sampled
            if hyperplane_check(a, w).kind != "hyperplane":
                continue
            out = forward_correspondence(r, y, gs, w, v)
            assert out.ok
            assert out.rank is not None and out.rank <= 1
            if out.kind == "rank1":
                assert out.membership
            good += 1
    report(8, "25 good hyperplanes per instance give rank <= 1 conjugates on the locus")


def test_acceptance_9_hyperplane_ledger():
    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)
    a = build_A(r, y, gs)
    # im A^t is the full coefficient space of quadratics here
    assert a.row_space().dim == 3
    full_w = Subspace(3, [[1, 0, 0], [0, 0, 1]])   # span{1, x^2}
    hyp_w = Subspace(3, [[0, 1, 0], [0, 0, 1]])    # span{x, x^2}
    assert hyperplane_check(a, full_w).kind == "full"
    assert hyperplane_check(a, hyp_w).kind == "hyperplane"
    rep = certify_irreducibility(r, y, trials=40, seed=9)
    assert rep.verdict == "consistent"
    assert rep.hyperplane_good > 0 and rep.hyperplane_bad > 0
    assert rep.hyperplane_good + rep.hyperplane_bad == rep.hyperplane_trials
    report(9, "degenerate and true hyperplanes both recorded; certification unaffected")


def test_acceptance_10_chordal_pipeline():
    import io
    from contextlib import redirect_stdout

    def run_cli(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    argv1 = ["chordal", "--n", "4", "--k", "2", "--p", "1", "--samples", "20",
             "--seed", "0"]
    code, out1 = run_cli(argv1)
    assert code == 0
    doc = json.loads(out1)
    assert doc["result"]["ideal_dim"] == 1
    assert doc["result"]["matched_tail"] == 1
    assert doc["result"]["samples_used"] <= 20
    code, out1_again = run_cli(argv1)
    assert code == 0 and out1_again == out1

    argv2 = ["chordal", "--n", "4", "--k", "2", "--p", "2", "--samples", "20",
             "--seed", "0"]
    code, out2 = run_cli(argv2)
    assert code == 0
    doc2 = json.loads(out2)
    assert doc2["result"]["ideal_dim"] == 0
    assert doc2["result"]["matched_tail"] == 2
    code, out2_again = run_cli(argv2)
    assert code == 0 and out2_again == out2
    report(10, "chordal CLI: p=1 ideal dim 1 with tail index 1, p=2 ideal dim 0, byte-stable")


def test_acceptance_11_extension_independence():
    r = wedge2_sl4()
    y = E12
    gs = generator_sequence(r, y)
    a = build_A(r, y, gs)
    im_at = a.row_space()
    off = annihilator(mu_image_span(gs.box, im_at, im_at))
    assert off.dim > 0
    rng = random.Random(1111)
    size = gs.box.doubled().size
    base = MultiVector.from_entries(gs.box.doubled(), [F(k % 5 - 2) for k in range(size)])
    reference = phi_A(a, catalecticant(base))
    for _ in range(50):
        delta = [F(0)] * size
        for row in off.basis:
            c = F(rng.randint(-3, 3))
            if c:
                delta = [x + c * e for x, e in zip(delta, row)]
        shifted = MultiVector.from_entries(
            gs.box.doubled(), [x + dx for x, dx in zip(base.data, delta)])
        assert phi_A(a, catalecticant(shifted)) == reference
    report(11, "50 off-span perturbations of b leave A B A^t unchanged exactly")
