import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import kernel_reference
import product_reference
import sym_coords_reference
from orbitquad import orbit
from orbitquad.errors import CapExceeded, RankOneError
from orbitquad.lie import make_sl
from orbitquad.linalg import (
    Mat,
    Subspace,
    rank,
    sym_coords_to_mat,
    sym_pairs,
    sym_rank_one,
    sym_square,
    yy_coords,
)
from orbitquad.multimatrix import (
    Box,
    MultiMatrix,
    MultiVector,
    catalecticant,
    mu,
    mu_image_span,
    phi_A,
    rank_one_factor,
)
from orbitquad.orbit import (
    HyperplaneReport,
    build_A,
    certify_irreducibility,
    decompose_Q,
    forward_correspondence,
    generator_sequence,
    hyperplane_check,
    leibniz_check,
    my_membership,
    nilpotency_bound,
    orbit_module,
    quadric_ideal,
    reverse_correspondence,
)
from orbitquad.reps import Rep, derived_rep, standard_rep

import sequence_reference
import weyl_oracle
from hyperplane_reference import evaluation_hyperplane, hyperplane_of
from sequence_reference import multi_pass_sequence
from sym_coords_reference import trace_pairing_mat


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def sl2_sym(d):
    return derived_rep(standard_rep(make_sl(2)), "sym", d)


def wedge2_sl4():
    return derived_rep(standard_rep(make_sl(4)), "wedge", 2)


def wedge2_sl5():
    return derived_rep(standard_rep(make_sl(5)), "wedge", 2)


# basis of wedge^2 QQ^4 is lexicographic: 12, 13, 14, 23, 24, 34
E12 = unit(6, 0)
E12_34 = [F(1), F(0), F(0), F(0), F(0), F(1)]
# in wedge^2 QQ^5: 12, 13, 14, 15, 23, 24, 25, 34, 35, 45
E12_34_SL5 = [F(int(k in (0, 7))) for k in range(10)]


def test_sym_square_basics():
    assert sym_square([F(0), F(0)]).is_zero()
    assert sym_square(unit(2, 0)) == Mat([[1, 0], [0, 0]])
    assert sym_square([F(1), F(1)]) == Mat([[1, 1], [1, 1]])
    lam = F(3)
    assert sym_square([lam * e for e in [F(1), F(2)]]) == sym_square([F(1), F(2)]).scale(lam * lam)


def test_orbit_module_dims():
    assert orbit_module(sl2_sym(2), unit(3, 0)).dim == 5
    assert orbit_module(sl2_sym(3), unit(4, 0)).dim == 7
    assert orbit_module(wedge2_sl4(), E12).dim == 20
    with pytest.raises(ValueError):
        orbit_module(sl2_sym(2), [F(0)] * 3)


def _trivial_plus_sym2_labelled_sym3():
    action = {s: Mat([[F(0)] * 4] + [[F(0)] + list(row) for row in m.data])
              for s, m in sl2_sym(2).action.items()}
    return Rep(make_sl(2), "sym(3,std)", action)


def test_orbit_caches_keyed_by_module_not_label():
    # x^3 + y^3 has distinct roots, so its orbit is open and the module is
    # all of S^2(V), dim 10; on trivial + sym^2 the point is 1 + z^2 with z^2
    # a null vector, so the module is trivial + V_2 + V_4, dim 9
    y = [F(1), F(0), F(0), F(1)]
    assert orbit_module(_trivial_plus_sym2_labelled_sym3(), y).dim == 9
    assert orbit_module(sl2_sym(3), y).dim == 10
    assert orbit_module(_trivial_plus_sym2_labelled_sym3(), y).dim == 9


def test_quadric_ideal_dims():
    assert quadric_ideal(sl2_sym(2), unit(3, 0)).dim == 1
    assert quadric_ideal(sl2_sym(3), unit(4, 0)).dim == 3
    assert quadric_ideal(wedge2_sl4(), E12).dim == 1
    assert quadric_ideal(wedge2_sl4(), E12_34).dim == 0


def test_quadric_ideal_annihilates_module():
    ideal = quadric_ideal(sl2_sym(3), unit(4, 0))
    r = sl2_sym(3)
    assert ideal.dim + ideal.module.dim == r.dim * (r.dim + 1) // 2
    for phi in ideal.basis:
        for row in ideal.module.basis:
            m = row
            mat = sym_coords_to_mat(list(m), r.dim)
            pairing = sum(phi.data[i][j] * mat.data[i][j]
                          for i in range(r.dim) for j in range(r.dim))
            assert pairing == 0


def test_plucker_quadric_shape():
    ideal = quadric_ideal(wedge2_sl4(), E12)
    (phi,) = ideal.basis
    # x12 x34 - x13 x24 + x14 x23 up to scale
    assert ideal.evaluate(0, E12) == 0
    val = ideal.evaluate(0, E12_34)
    assert val != 0
    x = [F(1), F(2), F(3), F(4), F(5), F(6)]
    assert ideal.evaluate(0, x) / val == x[0] * x[5] - x[1] * x[4] + x[2] * x[3]


@pytest.mark.parametrize("case", ["sym3@sl2", "sym4@sl2", "wedge2@sl4", "wedge3@sl6"])
def test_quadrics_match_the_dense_trace_pairing(case):
    # evaluate reads the sparse dual rows, basis is built from them on first
    # read; both agree with x^t Phi x for the dense reference Phi
    r, y = {"sym3@sl2": (sl2_sym(3), unit(4, 0)),
            "sym4@sl2": (sl2_sym(4), [1, 0, 0, -1, 0]),
            "wedge2@sl4": (wedge2_sl4(), E12),
            "wedge3@sl6": (derived_rep(standard_rep(make_sl(6)), "wedge", 3), unit(20, 0))}[case]
    ideal = quadric_ideal(r, y)
    assert ideal.dim > 0
    phis = [trace_pairing_mat(row, r.dim) for row in ideal.dual_coords.basis]
    assert ideal.basis == phis
    assert all(ideal.evaluate(k, y) == 0 for k in range(ideal.dim))  # y is on its orbit
    rng = random.Random(7)
    for _ in range(3):
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r.dim)]
        for k, phi in enumerate(phis):
            want = sum(phi.data[i][j] * x[i] * x[j] for i in range(r.dim) for j in range(r.dim))
            got = ideal.evaluate(k, x)
            assert got == want and isinstance(got, F)


def test_my_membership():
    r = wedge2_sl4()
    assert my_membership(r, E12, E12)
    e13 = unit(6, 1)
    assert my_membership(r, E12, e13)
    assert not my_membership(r, E12, E12_34)
    assert my_membership(r, E12, [F(0)] * 6)
    # scale invariance
    assert my_membership(r, E12, [F(-7, 3) * e for e in e13])


def test_nilpotency_bound_zero_vector():
    r = sl2_sym(3)
    assert nilpotency_bound(r, ("Y(1,2)",), [F(0)] * 4).N == (0,)


def test_nilpotency_bound_sym3():
    r = sl2_sym(3)
    box = nilpotency_bound(r, ("Y(1,2)",), unit(4, 0))
    assert box.N == (3,)
    y4 = r.act_word(("Y(1,2)",) * 4, unit(4, 0))
    assert all(not e for e in y4)


def test_nilpotency_bound_two_letters():
    r = standard_rep(make_sl(2))
    box = nilpotency_bound(r, ("Y(1,2)", "X(1,2)"), unit(2, 0))
    assert box.N == (1, 0)
    # raising any single exponent beyond its bound kills e1
    for j, syms in [(0, ("Y(1,2)", "Y(1,2)")), (1, ("X(1,2)",))]:
        v = unit(2, 0)
        word = ["Y(1,2)"] * (box.N[0] + (1 if j == 0 else 0)) + ["X(1,2)"] * (
            box.N[1] + (1 if j == 1 else 0))
        assert all(not e for e in r.act_word(word, v))


def test_nilpotency_bound_rejects_coroot():
    with pytest.raises(ValueError):
        nilpotency_bound(sl2_sym(2), ("H(1)",), unit(3, 0))


def test_generator_sequence_box_cap(monkeypatch):
    # the accepted box (3,) has 4 indices; the cap holds on a cache hit too
    r = sl2_sym(3)
    monkeypatch.setattr(orbit, "MAX_BOX", 4)
    assert generator_sequence(r, unit(4, 0)).box.N == (3,)
    monkeypatch.setattr(orbit, "MAX_BOX", 3)
    with pytest.raises(CapExceeded) as e:
        generator_sequence(r, unit(4, 0))
    assert e.value.kind == "box"
    assert e.value.details == {"bounds": [3], "cap": 3}


def test_generator_sequence_sym3():
    r = sl2_sym(3)
    gs = generator_sequence(r, unit(4, 0))
    assert gs.symbols == ("Y(1,2)",)
    assert gs.box.N == (3,)


def test_generator_sequence_sym2():
    r = sl2_sym(2)
    gs = generator_sequence(r, unit(3, 0))
    assert gs.symbols == ("Y(1,2)",)
    assert gs.box.N == (2,)


def test_generator_sequence_wedge2():
    r = wedge2_sl4()
    gs = generator_sequence(r, E12)
    assert set(gs.symbols) >= set()  # construction succeeded
    # span contract re-verified by the doubled-box reference
    assert sequence_reference.span_dim(r.sym_square(), gs.symbols, gs.box,
                                       yy_coords(E12)) == orbit_module(r, E12).dim == 20


def test_generator_sequence_random_y_extends():
    # generic vector of sym2: all-Y monomials cannot span, extension letters kick in
    r = sl2_sym(2)
    y = [F(1), F(1), F(1)]
    gs = generator_sequence(r, y)
    assert len(gs.symbols) > 1
    assert orbit_module(r, y).dim == 6


# (module builder, y, symbols, N) recorded with the dense, ungraded closure;
# the symbols go into the certify JSON, so the graded search must keep them
PINNED_SEQUENCES = [
    (lambda: sl2_sym(3), (1, -1, 1, 1), ("Y(1,2)", "X(1,2)"), (3, 3)),
    (lambda: sl2_sym(2), (1, 1, 1), ("Y(1,2)", "X(1,2)"), (2, 2)),
    (lambda: derived_rep(standard_rep(make_sl(3)), "sym", 2), (1, 0, 0, 1, 0, 0),
     ("Y(1,2)", "Y(2,3)", "X(1,2)"), (2, 2, 2)),
    (wedge2_sl4, (1, 0, 0, 0, 0, 0),
     ("Y(1,2)", "Y(1,3)", "Y(2,3)", "Y(2,4)"), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("builder,y,symbols,bounds", PINNED_SEQUENCES,
                         ids=["sym3", "sym2", "conic@sl3", "E12@wedge2"])
def test_generator_sequence_pinned(builder, y, symbols, bounds):
    gs = generator_sequence(builder(), [F(e) for e in y])
    assert gs.symbols == symbols
    assert gs.box.N == bounds


def _sparse_points(dim, count, rng):
    """Seeded points with one or two nonzero entries from {-1, 1, 2}."""
    points = []
    for _ in range(count):
        y = [F(0)] * dim
        for k in rng.sample(range(dim), min(dim, rng.randint(1, 2))):
            y[k] = F(rng.choice([-1, 1, 2]))
        points.append(y)
    return points


def _search_outcome(search, r, y):
    """The sequence a search finds, or the kind, message and details of its
    cap; some sparse points exhaust the reference search's closure words."""
    try:
        return search(r, y)
    except CapExceeded as exc:
        return exc.kind, str(exc), exc.details


SEQUENCE_MODULES = [
    ("sym2@sl2", lambda: sl2_sym(2)),
    ("sym3@sl2", lambda: sl2_sym(3)),
    ("sym4@sl2", lambda: sl2_sym(4)),
    ("std@sl3", lambda: standard_rep(make_sl(3))),
    ("dual@sl3", lambda: derived_rep(standard_rep(make_sl(3)), "dual")),
    ("sym2@sl3", lambda: derived_rep(standard_rep(make_sl(3)), "sym", 2)),
    ("wedge2@sl3", lambda: derived_rep(standard_rep(make_sl(3)), "wedge", 2)),
    ("wedge2@sl4", wedge2_sl4),
]


def _holds_span_contract(r, y, gs):
    """The reference's own bound and doubled-box span agree with gs."""
    return sequence_reference.nilpotency_bound(r, gs.symbols, y) == gs.box and \
        sequence_reference.span_dim(r.sym_square(), gs.symbols, gs.box,
                                    yy_coords(y)) == orbit_module(r, y).dim


# the points where the reference search exhausts its closure words and the
# library goes on with single X/Y letters
EXHAUSTED_POINTS = {"sym2@sl2": [(-1, 2, 0), (2, 2, 0), (-1, -1, 0)]}


@pytest.mark.parametrize("name,builder", SEQUENCE_MODULES,
                         ids=[name for name, _ in SEQUENCE_MODULES])
def test_generator_sequence_matches_multi_pass_reference(name, builder):
    r = builder()
    rng = random.Random(f"sequence {r.label}")
    exhausted = []
    for y in _sparse_points(r.dim, 8, rng):
        found = _search_outcome(generator_sequence, r, y)
        reference = _search_outcome(multi_pass_sequence, r, y)
        if isinstance(found, orbit.GenSeq) and not isinstance(reference, orbit.GenSeq):
            assert reference[0] == "sequence" and "exhausted" in reference[1], y
            assert _holds_span_contract(r, y, found), y
            exhausted.append(tuple(y))
        else:
            assert found == reference, y
    assert exhausted == EXHAUSTED_POINTS.get(name, [])


@pytest.mark.parametrize("y", EXHAUSTED_POINTS["sym2@sl2"])
def test_generator_sequence_appends_single_letters(y):
    r = sl2_sym(2)
    y = [F(e) for e in y]
    gs = generator_sequence(r, y)
    assert (gs.symbols, gs.box.N) == (("Y(1,2)", "X(1,2)"), (2, 1))
    assert certify_irreducibility(r, y, trials=5, seed=0).verdict == "consistent"


def _nested_span_cases():
    """(module, y, symbols, box) over the pinned sequences and the sequences
    of the seeded sparse points."""
    cases = [(builder(), [F(e) for e in y], symbols, Box(bounds))
             for builder, y, symbols, bounds in PINNED_SEQUENCES]
    for _, builder in SEQUENCE_MODULES:
        r = builder()
        rng = random.Random(f"sequence {r.label}")
        for y in _sparse_points(r.dim, 8, rng):
            gs = generator_sequence(r, y)
            cases.append((r, y, gs.symbols, gs.box))
            # a suffix of the sequence, whose span may fall short of the module
            if len(gs.symbols) > 1:
                cases.append((r, y, gs.symbols[1:], Box(gs.box.N[1:])))
    return cases


def test_nested_span_matches_doubled_box_span():
    for r, y, symbols, box in _nested_span_cases():
        s2 = r.sym_square()
        yy = yy_coords(y)
        assert nilpotency_bound(r, symbols, y) == \
            sequence_reference.nilpotency_bound(r, symbols, y), (r.label, y, symbols)
        want = sequence_reference.span_dim(s2, symbols, box, yy)
        # the walk on S^2 V takes no box: each letter runs until its frontier dies
        assert orbit._nested_span(s2, symbols, yy)[1].dim == want, (r.label, y, symbols)


@pytest.mark.parametrize("r,y", [(wedge2_sl4(), E12_34), (sl2_sym(2), [F(1), F(1), F(1)])],
                         ids=["E12+E34@wedge2", "sym2"])
def test_cold_search_bounds_one_box(monkeypatch, r, y):
    calls = []
    bound = orbit.nilpotency_bound
    monkeypatch.setattr(orbit, "nilpotency_bound", lambda *a: calls.append(a) or bound(*a))
    monkeypatch.setattr(orbit, "_GENSEQ_CACHE", {})
    monkeypatch.setattr(orbit, "_MODULE_CACHE", {})
    gs = generator_sequence(r, y)
    assert [tuple(symbols) for _, symbols, _ in calls] == [gs.symbols]
    assert not hasattr(orbit, "_monomial_span_dim")


@pytest.mark.parametrize("builder,y,symbols,bounds", PINNED_SEQUENCES,
                         ids=["sym3", "sym2", "conic@sl3", "E12@wedge2"])
def test_pinned_sequences_match_multi_pass_reference(builder, y, symbols, bounds):
    gs = multi_pass_sequence(builder(), [F(e) for e in y])
    assert (gs.symbols, gs.box.N) == (symbols, bounds)


def test_generator_sequence_caps(monkeypatch):
    r = sl2_sym(2)
    monkeypatch.setattr(orbit, "MAX_BOX", 2)
    with pytest.raises(CapExceeded) as e:
        generator_sequence(r, unit(3, 0))
    assert e.value.kind == "box"
    # the cache key does not carry the length cap, so start from an empty one
    monkeypatch.setattr(orbit, "_GENSEQ_CACHE", {})
    monkeypatch.setattr(orbit, "MAX_SEQ_LEN", 1)
    with pytest.raises(CapExceeded) as e:
        generator_sequence(r, [F(1), F(1), F(1)])
    assert e.value.kind == "sequence"
    assert "span_dim" in e.value.details


def test_build_A_sym3():
    r = sl2_sym(3)
    gs = generator_sequence(r, unit(4, 0))
    a = build_A(r, unit(4, 0), gs)
    assert a.data == Mat([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]).data
    assert rank(a.as_mat()) == 4
    # column at the origin is y itself
    assert [row[0] for row in a.data] == unit(4, 0)


def test_build_A_wedge2_multi_axis_box():
    from math import factorial

    r = wedge2_sl4()
    gs = generator_sequence(r, E12_34)
    assert gs.box.r > 1
    a = build_A(r, E12_34, gs)
    assert isinstance(a, Mat) and a.col_box == gs.box and a.row_box is None
    for i in gs.box.indices():
        word = [sym for sym, k in zip(gs.symbols, i) for _ in range(k)]
        scale = 1
        for k in i:
            scale *= factorial(k)
        column = [e / scale for e in r.act_word(word, E12_34)]
        assert [a.entry(k, i) for k in range(r.dim)] == column


def test_leibniz_trivial_and_derived():
    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)
    assert leibniz_check(r, y, gs, (0,))
    assert leibniz_check(r, y, gs, (1,))
    assert leibniz_check(r, y, gs, (2,))
    for n in gs.box.doubled().indices():
        assert leibniz_check(r, y, gs, n)
    with pytest.raises(ValueError):
        leibniz_check(r, y, gs, (5,))


def _fresh_seq_data(r, y):
    """A _SeqData of its own, so corrupting it leaves the cached one alone,
    with every Leibniz check passing before it is touched."""
    gs = generator_sequence(r, y)
    data = orbit._SeqData(r, y, gs)
    assert all(data.leibniz(n) for n in data.doubled.indices())
    return data


def _reached(data):
    """Doubled indices whose pair sum is held and nonzero."""
    return [n for n in data.doubled.indices()
            if data._pair_sums.get(data.doubled.position(n))]


@pytest.mark.parametrize("r,y", [(sl2_sym(3), [F(1), F(-1), F(1), F(1)]),
                                 (wedge2_sl4(), E12_34)], ids=["sym3@sl2", "wedge2@sl4"])
def test_leibniz_reads_false_on_a_corrupted_pair_sum(r, y):
    data = _fresh_seq_data(r, y)
    for n in _reached(data):
        want = data._pair_sums[data.doubled.position(n)]  # its nonzero entries
        k = next(iter(want))
        want[k] += 1  # a coordinate D^n(yy) reaches, now off by one
        assert not data.leibniz(n)
        want[k] -= 1
        z = next((k for k in range(data.s2.dim) if k not in want), None)
        if z is not None:  # a coordinate D^n(yy) does not reach, now nonzero
            want[z] = 1
            assert not data.leibniz(n)
            del want[z]
        assert data.leibniz(n)


@pytest.mark.parametrize("r,y", [(sl2_sym(3), [F(1), F(-1), F(1), F(1)]),
                                 (wedge2_sl4(), E12_34)], ids=["sym3@sl2", "wedge2@sl4"])
def test_leibniz_reads_false_where_no_pair_reaches(r, y):
    data = _fresh_seq_data(r, y)
    reached = _reached(data)
    assert reached
    for n in reached:
        # D^n(yy) is nonzero here; with the pair sum gone no pair reaches n
        want = data._pair_sums.pop(data.doubled.position(n))
        assert not data.leibniz(n)
        data._pair_sums[data.doubled.position(n)] = want


@pytest.mark.parametrize("r,y", [
    (sl2_sym(3), [F(1), F(-1), F(1), F(1)]),
    (wedge2_sl4(), E12_34),
    (derived_rep(standard_rep(make_sl(3)), "sym", 2), [F(1), F(0), F(0), F(1), F(0), F(0)]),
    (sl2_sym(4), [F(1), F(0), F(0), F(-1), F(0)]),  # the certify_sym4_sl2 golden
], ids=["sym3@sl2", "wedge2@sl4", "conic@sl3", "sym4@sl2"])
def test_pair_sums_match_the_column_pair_loop(r, y):
    gs = generator_sequence(r, y)
    data = orbit._SeqData(r, y, gs)
    want, den = product_reference.pair_sums(r, y, gs)
    # the same reached positions, each with the same nonzero entries
    assert data.den == den and data._pair_sums == want


def test_decompose_Q_base_cases():
    r = sl2_sym(3)
    y = unit(4, 0)
    gs = generator_sequence(r, y)
    b0 = decompose_Q(r, y, gs, ())
    assert b0 == MultiVector.basis(gs.box.doubled(), (0,))
    b1 = decompose_Q(r, y, gs, ("Y(1,2)",))
    assert b1 == MultiVector.basis(gs.box.doubled(), (1,))
    byy = decompose_Q(r, y, gs, ("Y(1,2)", "Y(1,2)"))
    assert byy == MultiVector.basis(gs.box.doubled(), (2,)).scale(2)


def test_decompose_Q_random_words():
    import random

    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)
    rng = random.Random(11)
    catalog = r.algebra.catalog
    for _ in range(15):
        word = tuple(rng.choice(catalog) for _ in range(rng.randint(0, 4)))
        decompose_Q(r, y, gs, word)  # raises on any inexactness


def full_box_A(n_bound):
    """A whose transpose image is the full degree-<=n coefficient space."""
    box = Box((n_bound,))
    return MultiMatrix(Mat.identity(box.size).data, None, box)


def test_hyperplane_check_linear_forms():
    a = full_box_A(1)
    for w_row in ([1, 0], [0, 1], [1, 1], [2, -3]):
        w = Subspace(2, [w_row])
        assert hyperplane_check(a, w).kind == "hyperplane"


def test_hyperplane_check_quadratics():
    a = full_box_A(2)
    full = hyperplane_check(a, Subspace(3, [[1, 0, 0], [0, 0, 1]]))
    assert full.kind == "full" and full.codim == 0
    hyp = hyperplane_check(a, Subspace(3, [[0, 1, 0], [0, 0, 1]]))
    assert hyp.kind == "hyperplane" and hyp.codim == 1


def test_hyperplane_check_preconditions():
    a = full_box_A(2)
    with pytest.raises(ValueError):
        hyperplane_check(a, Subspace(3, [[1, 0, 0]]))  # codim 2
    # W is not inside im A^t, on the same ambient space
    narrow = MultiMatrix([[1, 0, 0], [0, 1, 0]], None, Box((2,)))
    with pytest.raises(ValueError, match=r"subspace of im A\^t"):
        hyperplane_check(narrow, Subspace(3, [[0, 0, 1]]))


def test_forward_correspondence_preconditions():
    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)

    def forward(w, v):
        return forward_correspondence(r, y, gs, w, v)

    # A's rows span all three coefficients of the quadratics here
    assert build_A(r, y, gs).row_space() == Subspace.full(3)
    # W is not inside im A^t: it lives on another ambient space
    with pytest.raises(ValueError, match=r"subspace of im A\^t"):
        forward(Subspace(4, [[0, 0, 1, 0]]), [F(1), F(0), F(0)])
    with pytest.raises(ValueError, match="codimension one"):
        forward(Subspace(3, [[0, 0, 1]]), [F(1), F(0), F(0)])
    # the product span of W = span{1, x^2} has codimension 0, as in
    # test_hyperplane_check_quadratics
    with pytest.raises(ValueError, match="codimension 0"):
        forward(Subspace(3, [[1, 0, 0], [0, 0, 1]]), [F(0), F(1), F(0)])
    # v lies inside W
    with pytest.raises(ValueError, match="complement"):
        forward(Subspace(3, [[0, 1, 0], [0, 0, 1]]), [F(0), F(1), F(1)])


def test_forward_correspondence_sym2():
    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)
    # W = polynomials in im A^t vanishing at t = 0, complement v = constant 1
    w = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    v = [F(1), F(0), F(0)]
    out = forward_correspondence(r, y, gs, w, v)
    assert out.ok and out.kind == "rank1"
    assert out.rank == 1
    assert out.membership
    # factor is the coordinate vector of the square of a linear form: on the
    # discriminant conic b^2 = 4ac in monomial coordinates (a, b, c)
    fa, fb, fc = out.factor
    assert fb * fb == 4 * fa * fc


def test_reverse_correspondence_x_equals_y():
    r = sl2_sym(2)
    y = unit(3, 0)
    gs = generator_sequence(r, y)
    out = reverse_correspondence(r, y, gs, y)
    assert out.ok
    assert out.b == MultiVector.basis(gs.box.doubled(), (0,))


def test_reverse_correspondence_orbit_sample():
    from orbitquad.reps import exp_nilpotent

    r = sl2_sym(3)
    y = unit(4, 0)
    gs = generator_sequence(r, y)
    a = build_A(r, y, gs)
    x = exp_nilpotent(r, "Y(1,2)", F(1, 2)).apply(y)
    x = exp_nilpotent(r, "X(1,2)", F(-2)).apply(x)
    assert my_membership(r, y, x)
    out = reverse_correspondence(r, y, gs, x)
    assert out.ok
    # witness reproduces x x^t exactly
    phi = phi_A(a, catalecticant(out.b))
    assert phi == sym_square(x)


def test_reverse_rejects_nonmember():
    r = wedge2_sl4()
    gs = generator_sequence(r, E12)
    with pytest.raises(ValueError, match="orbit module"):
        reverse_correspondence(r, E12, gs, E12_34)


def test_public_correspondence_calls_build_nothing_over_the_doubled_box():
    # wedge(2,std) at sl:7, y = E12 + E34: 3^14 doubled positions, one of
    # them nonzero in each answer
    import tracemalloc

    r = derived_rep(standard_rep(make_sl(7)), "wedge", 2)
    y = [F(int(p in ((0, 1), (2, 3)))) for p in combinations(range(7), 2)]
    gs = generator_sequence(r, y)
    certify_irreducibility(r, y, trials=1)
    data = orbit._seq_data(r, y, gs)
    assert data.doubled.size == 3 ** 14
    word = ("Y(1,3)", "Y(2,4)")
    for call, want in ((lambda: decompose_Q(r, y, gs, word), data.decompose(word)),
                       (lambda: reverse_correspondence(r, y, gs, y).b,
                        data.solve_coefficients(dict(enumerate(yy_coords(y)))))):
        tracemalloc.start()
        try:
            b = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert b.box == data.doubled and b.coeffs == want
    small = sl2_sym(3)
    b = decompose_Q(small, unit(4, 0), generator_sequence(small, unit(4, 0)), ("Y(1,2)",))
    assert len(b.data) == b.box.size


def test_extension_independence():
    import random

    r = wedge2_sl4()
    y = E12
    gs = generator_sequence(r, y)
    a = build_A(r, y, gs)
    from orbitquad.linalg import annihilator

    im_at = a.row_space()
    m_full = mu_image_span(gs.box, im_at, im_at)
    off = annihilator(m_full)
    assert off.dim > 0
    rng = random.Random(5)
    size = gs.box.doubled().size
    base = MultiVector.from_entries(gs.box.doubled(), [F(k % 7 - 3) for k in range(size)])
    reference = phi_A(a, catalecticant(base))
    for _ in range(20):
        delta = [F(0)] * size
        for row in off.basis:
            c = F(rng.randint(-4, 4))
            if c:
                delta = [d + c * e for d, e in zip(delta, row)]
        shifted = MultiVector.from_entries(
            gs.box.doubled(), [b + d for b, d in zip(base.data, delta)])
        assert phi_A(a, catalecticant(shifted)) == reference


def _dense(b, size):
    """A coefficient dict by doubled position as a dense list, once its keys
    are checked to be positions of the doubled box holding nonzero values."""
    if b is None:
        return None
    assert all(0 <= p < size and b[p] for p in b)
    return [b.get(p, F(0)) for p in range(size)]


def test_solver_shortcut_matches_full_reduction():
    # the inverted-block solver must reproduce the free-variables-at-zero
    # particular solution of full row reduction, coordinate for coordinate,
    # and agree on which targets are inconsistent; one- to six-axis boxes.
    # At sl:5 no pair reaches most of the 729 doubled positions, so the
    # reached positions the solver keys on differ from the doubled box.
    import random

    from orbitquad.orbit import _SeqData

    cases = [
        (wedge2_sl4(), E12_34, 4),
        (sl2_sym(3), [F(1), F(-1), F(1), F(1)], 2),
        (sl2_sym(4), [F(1), F(0), F(0), F(-1), F(0)], 2),
        (derived_rep(standard_rep(make_sl(3)), "sym", 2),
         [F(1), F(0), F(0), F(1), F(0), F(0)], 3),
        (wedge2_sl5(), E12_34_SL5, 6),
    ]
    rng = random.Random(21)
    for r, y, axes in cases:
        gs = generator_sequence(r, y)
        assert gs.box.r == axes
        data = _SeqData(r, y, gs)
        # columns indexed by the doubled box: the coefficient vectors C_n
        cols = [[F(data._pair_sums.get(p, {}).get(t, 0), data.den) for t in range(data.s2.dim)]
                for p in range(data.doubled.size)]
        if axes == 6:
            assert len(data._pair_sums) < data.doubled.size
        full_system = Mat([[col[t] for col in cols] for t in range(data.s2.dim)])
        module = orbit_module(r, y)
        targets = []
        for _ in range(8):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(module.dim)]
            target = [F(0)] * data.s2.dim
            for c, row in zip(coeffs, module.basis):
                if c:
                    target = [t + c * e for t, e in zip(target, row)]
            targets.append(target)
        targets += [[F(rng.randint(-3, 3)) for _ in range(data.s2.dim)] for _ in range(4)]
        targets += [unit(data.s2.dim, k) for k in range(data.s2.dim)]
        outside = 0
        for target in targets:
            want = kernel_reference.solve(full_system, target)
            got = data.solve_coefficients(dict(enumerate(target)))
            assert _dense(got, data.doubled.size) == want
            outside += want is None
        # unsolvable targets are exercised wherever the module is proper
        assert (outside > 0) == (module.dim < data.s2.dim)


def _product_span_forward(box, full, part, v):
    """The functional of the forward direction by one solve: zero on part,
    one on mu(v.v), supported on the pivots of full."""
    mvv = mu(MultiVector.from_entries(box, v), MultiVector.from_entries(box, v))
    pivots = list(full.pivots)
    rows = [[row[p] for p in pivots] for row in part.basis]
    rows.append([mvv.data[p] for p in pivots])
    t = kernel_reference.solve(Mat(rows), [F(0)] * len(part.basis) + [F(1)])
    b = [F(0)] * box.doubled().size
    for p, val in zip(pivots, t):
        b[p] = val
    return b


def test_hyperplane_criterion_matches_product_span():
    # the ker mu criterion and the forward functional read off the reduced
    # products of im A^t, against the product spans row-reduced per W
    import random

    from orbitquad.orbit import _hyperplane_functional
    from orbitquad.reps import exp_act

    def translate(r, steps):
        x = unit(r.dim, 0)
        for sym, t in steps:
            x = exp_act(r, sym, F(t), x)
        return x

    sl3_sym2 = derived_rep(standard_rep(make_sl(3)), "sym", 2)
    modules = [
        (sl2_sym(3), translate(sl2_sym(3), [("Y(1,2)", 1), ("X(1,2)", -1)])),
        (sl2_sym(3), [F(1), F(-1), F(1), F(1)]),
        (sl2_sym(4), translate(sl2_sym(4), [("Y(1,2)", 2), ("X(1,2)", 1)])),
        (sl2_sym(4), [F(1), F(0), F(0), F(-1), F(0)]),
        (sl3_sym2, translate(sl3_sym2, [("Y(1,2)", 1), ("Y(2,3)", -1), ("X(1,3)", 2)])),
        (sl3_sym2, [F(1), F(0), F(0), F(1), F(0), F(1)]),
        (wedge2_sl4(), translate(wedge2_sl4(), [("Y(2,3)", 1), ("Y(1,2)", -1)])),
        (wedge2_sl4(), E12_34),
        # six axes: the products reach few of the 729 doubled positions
        (wedge2_sl5(), E12_34_SL5),
    ]
    cases = []
    for r, y in modules:
        gs = generator_sequence(r, y)
        cases.append((build_A(r, y, gs), (r, y, gs)))
    cases += [(full_box_A(n), None) for n in (2, 3, 4)]
    rng = random.Random(1723)
    kinds = set()
    for a, module in cases:
        box = a.col_box
        im_at = a.row_space()
        full = mu_image_span(box, im_at, im_at)
        sampled = [hyperplane_of(im_at, [F(rng.randint(-3, 3)) for _ in range(box.size)])
                   for _ in range(5)]
        sampled += [evaluation_hyperplane(
            a, [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(box.r)])
            for _ in range(5)]
        for w, v in filter(None, sampled):
            # a complement off the RREF basis, where psi(v) is not 1
            scale = rng.choice([2, -3, F(1, 2)])
            v = [scale * e for e in v]
            for row in w.basis:
                c = F(rng.randint(-2, 2))
                v = [e + c * f for e, f in zip(v, row)]
            part = mu_image_span(box, w, im_at)
            codim = full.dim - part.dim
            # S^2 U / (W.U) is a line, so no other codimension can occur
            want = HyperplaneReport({1: "hyperplane", 0: "full"}[codim], codim)
            assert hyperplane_check(a, w) == want
            kinds.add(want.kind)
            prods, psi_bar = _hyperplane_functional(box, im_at, w)
            if want.kind != "hyperplane":
                # no functional vanishes on mu(W.U) = mu(U.U) with b(mu(v.v)) = 1
                assert prods.functional(psi_bar, v) is None
                continue
            b = _product_span_forward(box, full, part, v)
            assert _dense(prods.functional(psi_bar, v), box.doubled().size) == b
            if module is not None:
                out = forward_correspondence(*module, w, v)
                assert out.ok and list(out.b.data) == b
    assert kinds == {"hyperplane", "full"}


def test_certify_sym2_golden():
    r = sl2_sym(2)
    report = certify_irreducibility(r, unit(3, 0), trials=25, seed=7)
    assert report.verdict == "consistent"
    assert report.dims == {"V": 3, "S2V": 6, "module": 5, "ideal": 1}
    assert report.rank_A == 3
    assert report.reverse_passes == report.reverse_trials == 25
    assert report.leibniz_passes == report.leibniz_trials
    assert report.decompose_passes == 25
    assert report.forward_passes + report.forward_rank0 == report.forward_trials
    assert report.hyperplane_good + report.hyperplane_bad == report.hyperplane_trials


def test_certify_sym3_golden():
    r = sl2_sym(3)
    report = certify_irreducibility(r, unit(4, 0), trials=25, seed=7)
    assert report.verdict == "consistent"
    assert report.dims == {"V": 4, "S2V": 10, "module": 7, "ideal": 3}
    assert report.reverse_passes == 25


def test_certify_dense_orbit():
    r = wedge2_sl4()
    report = certify_irreducibility(r, E12_34, trials=5, seed=3)
    assert report.verdict == "consistent"
    assert report.dims["ideal"] == 0
    assert report.dims["module"] == report.dims["S2V"] == 21


def test_certify_open_orbit_sl5():
    # E12 + E34 has an open orbit in wedge^2 QQ^5, so the module is all of
    # S^2 V and the ideal is 0
    r = derived_rep(standard_rep(make_sl(5)), "wedge", 2)
    y = [F(0)] * 10
    y[0] = y[7] = F(1)  # 12, 13, 14, 15, 23, 24, 25, 34, ...
    report = certify_irreducibility(r, y, trials=5, seed=0)
    assert report.verdict == "consistent"
    assert report.dims == {"V": 10, "S2V": 55, "module": 55, "ideal": 0}


@pytest.mark.slow
def test_certify_open_orbit_sl6():
    # E12 + E34 has an open orbit in wedge^2 QQ^6 as well; the accepted box
    # has 2^10 indices and its doubled box 3^10, far above the default cap
    r = derived_rep(standard_rep(make_sl(6)), "wedge", 2)
    y = [F(0)] * 15
    y[0] = y[9] = F(1)  # 12, 13, 14, 15, 16, 23, 24, 25, 26, 34, ...
    report = certify_irreducibility(r, y, trials=5, seed=0)
    assert report.verdict == "consistent"
    assert report.dims == {"V": 15, "S2V": 120, "module": 120, "ideal": 0}
    assert report.symbols == ["Y(1,2)", "Y(1,3)", "Y(2,3)", "Y(2,6)", "Y(3,4)",
                              "Y(3,5)", "Y(4,5)", "Y(4,6)", "X(1,4)", "X(2,3)"]
    assert report.N == [1] * 10


def test_certify_deterministic():
    r = sl2_sym(2)
    a = certify_irreducibility(r, unit(3, 0), trials=10, seed=42).to_json_dict()
    b = certify_irreducibility(r, unit(3, 0), trials=10, seed=42).to_json_dict()
    assert a == b


def test_certify_cap_propagates(monkeypatch):
    monkeypatch.setattr(orbit, "MAX_BOX", 2)
    with pytest.raises(CapExceeded) as e:
        certify_irreducibility(sl2_sym(3), unit(4, 0), trials=5, seed=0)
    assert e.value.kind == "box"


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_bulk_draws_match_randint(seed):
    """``_draws`` reads CPython's getrandbits words in bulk; the randint loop
    is the oracle, on the values and on the generator state afterwards."""
    for n in [0, 1, 2, 7, 8, 100, 5000, 2 ** 16 + 3]:
        bulk, loop = random.Random(seed), random.Random(seed)
        d = orbit._draws(bulk, n)
        assert [b - 3 for b in d] == [loop.randint(-3, 3) for _ in range(n)]
        assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("m", [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    # -2 u u^t for u = (0, 0, 2, -3): leading zeros in u
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -8, 12], [0, 0, 12, -18]],
    [[0, 1], [1, 0]],
    [[0, 0, 0], [0, 0, 5], [0, 5, 0]],
    [[1, 2], [2, 1]],
    [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
], ids=["zero", "rank1-leading-zeros", "rank2-zero-diagonal", "rank2-zero-diagonal-3x3",
        "rank2", "rank3", "rank3-zero-diagonal"])
def test_rank_one_read_matches_dense_rank_and_factor(m):
    # the read off symmetric coordinates against the dense reference rank
    # and rank-one factor; above rank one it reports the exact rank, and
    # rank_one_factor raises what the dense read raises
    mat = Mat(m)
    got, factor = sym_rank_one([m[k][l] for k, l in sym_pairs(mat.rows)], mat.rows)
    assert got == len(kernel_reference.rref_rows(m, mat.cols)[1])
    try:
        want = sym_coords_reference.rank_one_factor(mat)
    except RankOneError as exc:
        assert factor is None
        with pytest.raises(RankOneError, match=str(exc)):
            rank_one_factor(mat)
    else:
        assert got == 1 and factor == want == rank_one_factor(mat)


def wedge_point(n, k, terms):
    """The sum of the basis vectors e_t, t in terms, of wedge^k QQ^n (basis
    in lexicographic order)."""
    return [F(int(t in terms)) for t in combinations(range(1, n + 1), k)]


G2_FORM = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


# Each point has a dense GL orbit (Sato-Kimura, Nagoya Math. J. 65, 1977),
# so the cone over its SL orbit is dense, no nonzero quadric vanishes on it,
# and the orbit module is all of S^2 V.
@pytest.mark.parametrize("n,k,terms", [
    (6, 3, [(1, 2, 3), (4, 5, 6)]),
    (8, 2, [(1, 2), (3, 4), (5, 6), (7, 8)]),
    pytest.param(7, 3, G2_FORM, marks=pytest.mark.slow),
], ids=["e123+e456@sl6", "E12+E34+E56+E78@sl8", "G2@sl7"])
def test_certify_open_orbit_at_the_frontier(n, k, terms):
    r = derived_rep(standard_rep(make_sl(n)), "wedge", k)
    report = certify_irreducibility(r, wedge_point(n, k, terms), trials=5, seed=0)
    s2 = r.dim * (r.dim + 1) // 2
    assert report.verdict == "consistent"
    assert report.dims == {"V": r.dim, "S2V": s2, "module": s2, "ideal": 0}


# The orbit module of a highest weight vector of V(lam) is V(2 lam)
# (Lichtenstein, Proc. AMS 84, 1982), so the ideal is its complement in S^2 V:
# for E12 in wedge^2 QQ^n it is wedge^4 QQ^n.
@pytest.mark.parametrize("n,k,ideal", [(6, 2, 15), (8, 2, 70), (6, 3, 35)])
def test_certify_highest_weight_ideal_at_the_frontier(n, k, ideal):
    r = derived_rep(standard_rep(make_sl(n)), "wedge", k)
    s2 = r.dim * (r.dim + 1) // 2
    assert s2 - weyl_oracle.weyl_dim(n, tuple(2 * int(i == k - 1) for i in range(n - 1))) == ideal
    report = certify_irreducibility(r, unit(r.dim, 0), trials=5, seed=0)
    assert report.verdict == "consistent"
    assert report.dims == {"V": r.dim, "S2V": s2, "module": s2 - ideal, "ideal": ideal}
