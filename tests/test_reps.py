from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from orbitquad.errors import StructuralError
from orbitquad.lie import make_sl
from orbitquad.linalg import (
    Mat,
    PivotedSpan,
    Subspace,
    mat_to_sym_coords,
    sym_coords_to_mat,
    sym_product_coords,
)
from orbitquad import orbit
from orbitquad.orbit import orbit_module
from orbitquad.reps import (
    Rep,
    cyclic_closure,
    cyclic_module,
    derived_rep,
    exp_act,
    exp_nilpotent,
    highest_weight_vectors,
    isotypic_decomposition,
    standard_rep,
    weight_decomposition,
    weight_of,
    weights_multiset,
)

import highest_weight_reference
import weyl_oracle
from closure_reference import dense_closure
from construction_reference import dense_construction


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


@pytest.fixture(scope="module")
def sl2():
    return make_sl(2)


@pytest.fixture(scope="module")
def sl4():
    return make_sl(4)


# --- oracle self-checks -----------------------------------------------------

def test_oracle_sl2_strings():
    for d in range(1, 6):
        ws = weyl_oracle.irrep_weights(2, (d,))
        assert ws == {(k,): 1 for k in range(-d, d + 1, 2)}
        assert weyl_oracle.weyl_dim(2, (d,)) == d + 1


def test_oracle_sl3_adjoint():
    ws = weyl_oracle.irrep_weights(3, (1, 1))
    assert weyl_oracle.weyl_dim(3, (1, 1)) == 8
    assert ws[(0, 0)] == 2
    assert sum(ws.values()) == 8


def test_oracle_peel_mixed():
    # two sl2 strings glued together: S^4 + 2 S^0
    multiset = {(4,): 1, (2,): 1, (0,): 3, (-2,): 1, (-4,): 1}
    assert weyl_oracle.peel(2, multiset) == [((4,), 1, 5), ((0,), 2, 1)]


# --- construction -----------------------------------------------------------

def test_standard_rep(sl2):
    r = standard_rep(sl2)
    assert r.dim == 2
    assert r.action["X(1,2)"] == sl2.generators["X(1,2)"]
    assert [w for w, _ in weight_decomposition(r)] == [(1,), (-1,)]


def test_standard_rep_sl4(sl4):
    r = standard_rep(sl4)
    assert r.dim == 4
    assert r.action["X(1,2)"] == sl4.generators["X(1,2)"]


def test_derived_dims(sl2, sl4):
    assert derived_rep(standard_rep(sl2), "sym", 3).dim == 4
    assert derived_rep(standard_rep(sl4), "wedge", 2).dim == 6
    sym2_of_sym2 = derived_rep(derived_rep(standard_rep(sl2), "sym", 2), "sym2")
    assert sym2_of_sym2.dim == 6
    assert isotypic_decomposition(sym2_of_sym2).dims() == [5, 1]


def test_derived_range_errors(sl2):
    with pytest.raises(ValueError):
        derived_rep(standard_rep(sl2), "wedge", 3)
    with pytest.raises(ValueError):
        derived_rep(standard_rep(sl2), "sym", 0)


def test_act_word(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 3)
    x3 = unit(4, 0)
    assert r.act_word((), x3) == x3
    assert r.act_word(("Y(1,2)",), x3) == [F(0), F(3), F(0), F(0)]
    assert r.act_word(("Y(1,2)",) * 3, x3) == [F(0), F(0), F(0), F(6)]
    std = standard_rep(sl2)
    assert std.act_word(("Y(1,2)",), unit(2, 0)) == unit(2, 1)


def test_weight_decomposition_sym3(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 3)
    decomp = weight_decomposition(r)
    assert [w for w, _ in decomp] == [(3,), (1,), (-1,), (-3,)]
    assert all(s.dim == 1 for _, s in decomp)


def test_weight_decomposition_wedge2(sl4):
    r = derived_rep(standard_rep(sl4), "wedge", 2)
    decomp = weight_decomposition(r)
    assert len(decomp) == 6
    assert all(s.dim == 1 for _, s in decomp)
    assert sum(s.dim for _, s in decomp) == 6


def twisted(base, label):
    """A base change of a 4-dimensional module that makes its coroot action
    not diagonal."""
    p = Mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    p_inv = p.inverse()
    action = {sym: p * m * p_inv for sym, m in base.action.items()}
    return Rep(base.algebra, label, action)


def twisted_sym3(sl2):
    return twisted(derived_rep(standard_rep(sl2), "sym", 3), "twisted-sym3")


def test_weight_decomposition_non_diagonal(sl2):
    # base change of S^3 QQ^2: coroot actions stop being diagonal but the
    # integer spectrum search must still find the same weights
    twisted = twisted_sym3(sl2)
    decomp = weight_decomposition(twisted)
    assert [w for w, _ in decomp] == [(3,), (1,), (-1,), (-3,)]
    assert all(s.dim == 1 for _, s in decomp)
    for w, s in decomp:
        v = list(s.basis[0])
        h = twisted.action["H(1)"]
        assert h.apply(v) == [w[0] * e for e in v]
    assert isotypic_decomposition(twisted).dims() == [4]


def test_weight_decomposition_rejects_non_integer_spectrum(sl2):
    action = {sym: Mat.zero(2, 2) for sym in sl2.catalog}
    action["H(1)"] = Mat([[0, 1], [0, 0]])  # nilpotent, not diagonalizable
    broken = Rep(sl2, "broken-h", action, ["a", "b"], _checked=True)
    with pytest.raises(StructuralError):
        weight_decomposition(broken)


def test_weight_spaces_are_stable(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 2)
    h = r.action["H(1)"]
    for w, s in weight_decomposition(r):
        for row in s.basis:
            assert s.contains(h.apply(list(row)))


def test_highest_weight_vectors(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 3)
    hw = highest_weight_vectors(r)
    assert len(hw) == 1
    w, s = hw[0]
    assert w == (3,) and s.dim == 1
    assert s.contains(unit(4, 0))

    r6 = derived_rep(derived_rep(standard_rep(sl2), "sym", 2), "sym2")
    hw6 = highest_weight_vectors(r6)
    assert [(w, s.dim) for w, s in hw6] == [((4,), 1), ((0,), 1)]


def _std(n):
    return standard_rep(make_sl(n))


HIGHEST_WEIGHT_MODULES = {
    "std@sl3": lambda: _std(3),
    "sym(3,std)@sl2": lambda: derived_rep(_std(2), "sym", 3),
    "sym(2,std)@sl3": lambda: derived_rep(_std(3), "sym", 2),
    "wedge(2,std)@sl4": lambda: derived_rep(_std(4), "wedge", 2),
    "tensor(std,dual(std))@sl3": lambda: derived_rep(
        _std(3), "tensor", other=derived_rep(_std(3), "dual")),
    # weight (1,1) carries two highest weight vectors: a block of multiplicity 2
    "tensor(std,tensor(std,std))@sl3": lambda: derived_rep(
        _std(3), "tensor", other=derived_rep(_std(3), "tensor", other=_std(3))),
    "sym2(wedge(2,std))@sl4": lambda: derived_rep(derived_rep(_std(4), "wedge", 2), "sym2"),
    "sym2(wedge(2,std))@sl5": lambda: derived_rep(derived_rep(_std(5), "wedge", 2), "sym2"),
    "twisted-sym3@sl2": lambda: twisted_sym3(make_sl(2)),
}


@pytest.mark.parametrize("name", sorted(HIGHEST_WEIGHT_MODULES))
def test_highest_weight_vectors_match_dense_reference(name):
    r = HIGHEST_WEIGHT_MODULES[name]()
    got = highest_weight_vectors(r)
    assert got == highest_weight_reference.highest_weight_vectors(r)
    for _, space in got:
        for row in space.basis:
            assert all(not any(r.act(x, list(row))) for x in r.algebra.x_symbols())
    if name.startswith("tensor(std,tensor"):
        assert [(w, s.dim) for w, s in got] == [((3, 0), 1), ((1, 1), 2), ((0, 0), 1)]


def test_weight_of(sl2):
    std = standard_rep(sl2)
    assert weight_of(std, unit(2, 0)) == (1,)
    with pytest.raises(ValueError):
        weight_of(std, [F(1), F(1)])


def test_cyclic_module_zero(sl2):
    std = standard_rep(sl2)
    assert cyclic_module(std, [F(0), F(0)]).dim == 0


def test_cyclic_module_standard(sl2):
    std = standard_rep(sl2)
    assert cyclic_module(std, unit(2, 0)).dim == 2


def test_cyclic_module_x2_squared(sl2):
    sym2 = derived_rep(standard_rep(sl2), "sym", 2)
    s2 = derived_rep(sym2, "sym2")
    y = unit(3, 0)  # x^2
    yy = mat_to_sym_coords(Mat([[a * b for b in y] for a in y]))
    assert cyclic_module(s2, yy).dim == 5


def test_cyclic_module_minimality(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 2)
    w = [F(1), F(1), F(0)]
    sub = cyclic_module(r, w)
    # invariant under every generator
    for m in r.action.values():
        for row in sub.basis:
            assert sub.contains(m.apply(list(row)))
    # dropping any basis row loses the closure of w
    for drop in range(sub.dim):
        rows = [list(r_) for i, r_ in enumerate(sub.basis) if i != drop]
        smaller = Subspace(r.dim, rows)
        orbit = [w] + [m.apply(w) for m in r.action.values()]
        grown = [u for u in orbit]
        for m in r.action.values():
            grown.extend(m.apply(u) for u in orbit)
        assert not all(smaller.contains(u) for u in grown)


def test_closure_words_reproduce_span(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 3)
    w = unit(4, 0)
    res = cyclic_closure(r, w)
    assert res.subspace.dim == 4
    for word in res.words:
        assert res.subspace.contains(r.act_word(word, w))


CLOSURE_MODULES = {
    "sym3@sl2": lambda: derived_rep(standard_rep(make_sl(2)), "sym", 3),
    "sym2@sl3": lambda: derived_rep(standard_rep(make_sl(3)), "sym", 2),
    "S2(wedge2)@sl4": lambda: derived_rep(
        derived_rep(standard_rep(make_sl(4)), "wedge", 2), "sym2"),
    "tensor(std,dual(std))@sl3": lambda: derived_rep(
        standard_rep(make_sl(3)), "tensor",
        other=derived_rep(standard_rep(make_sl(3)), "dual")),
    "twisted-sym3@sl2": lambda: twisted_sym3(make_sl(2)),
    # reducible (sym^2 + trivial), so closures of w are proper subspaces too
    "twisted-tensor(std,std)@sl2": lambda: twisted(
        derived_rep(standard_rep(make_sl(2)), "tensor", other=standard_rep(make_sl(2))),
        "twisted-tensor"),
}


def coroot_span(r, vectors) -> Subspace:
    """Span of the vectors closed under the dense coroot actions: the span of
    their weight components."""
    span = PivotedSpan(r.dim)
    frontier = [v for v in vectors if span.add(v)]
    while frontier:
        frontier = [u for v in frontier for s in r.algebra.h_symbols()
                    for u in [r.action[s].apply(v)] if span.add(u)]
    return span.to_subspace()


@pytest.mark.parametrize("name", sorted(CLOSURE_MODULES))
@given(data=st.data())
@settings(deadline=None, max_examples=30)
def test_graded_closure_matches_dense_reference(name, data):
    r = CLOSURE_MODULES[name]()
    w = data.draw(st.lists(st.integers(-2, 2), min_size=r.dim, max_size=r.dim))
    w = [F(e) for e in w]
    res = cyclic_closure(r, w)
    assert res.subspace == dense_closure(r, w)[0]
    images = [r.act_word(word, w) for word in res.words]
    for u in images:
        assert res.subspace.contains(u)
    # the words are the provenance: their images and w, split into weight
    # components, span the whole closure
    assert coroot_span(r, [w] + images) == res.subspace


@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: derived_rep(derived_rep(standard_rep(make_sl(2)), "sym", 2), "sym2"), [5, 1]),
        (lambda: derived_rep(derived_rep(standard_rep(make_sl(2)), "sym", 3), "sym2"), [7, 3]),
        (lambda: derived_rep(derived_rep(standard_rep(make_sl(4)), "wedge", 2), "sym2"), [20, 1]),
        (lambda: derived_rep(standard_rep(make_sl(2)), "tensor",
                             other=standard_rep(make_sl(2))), [3, 1]),
    ],
)
def test_isotypic_dims_against_oracle(builder, expected):
    r = builder()
    decomp = isotypic_decomposition(r)
    assert decomp.dims() == expected
    assert decomp.multiplicity_free
    oracle = weyl_oracle.isotypic_dims(r.algebra.n, weights_multiset(r))
    assert sorted(decomp.dims(), reverse=True) == oracle


# Lichtenstein: the orbit module of a highest weight vector of V(lam) is
# V(2 lam), the Cartan component of S^2 V.  (n, construction, k, lam)
HIGHEST_WEIGHT_CASES = (
    [(n, "std", None, (1,) + (0,) * (n - 2)) for n in range(2, 7)]
    + [(n, "wedge", k, tuple(int(i == k - 1) for i in range(n - 1)))
       for n in range(3, 6) for k in range(2, n)]
    + [(6, "wedge", 2, (0, 1, 0, 0, 0))]
    + [(2, "sym", d, (d,)) for d in range(2, 7)]
    + [(3, "sym", 2, (2, 0)), (3, "sym", 3, (3, 0)), (4, "sym", 2, (2, 0, 0)),
       (5, "sym", 2, (2, 0, 0, 0))]
    + [pytest.param(*case, marks=pytest.mark.slow) for case in
       [(6, "wedge", 3, (0, 0, 1, 0, 0)), (6, "sym", 2, (2, 0, 0, 0, 0)),
        (4, "sym", 3, (3, 0, 0))]]
)


@pytest.mark.parametrize("n,kind,k,lam", HIGHEST_WEIGHT_CASES)
def test_orbit_module_of_highest_weight_vector_is_cartan_component(n, kind, k, lam):
    std = standard_rep(make_sl(n))
    r = std if kind == "std" else derived_rep(std, kind, k)
    y = unit(r.dim, 0)
    assert weight_of(r, y) == lam
    assert all(not any(r.act(s, y)) for s in r.algebra.x_symbols())
    want = weyl_oracle.weyl_dim(n, tuple(2 * c for c in lam))
    assert orbit_module(r, y).dim == want


def _sym2_wedge2_weights(n):
    """Weight multiset of S^2(wedge^2 QQ^n), from the weights of QQ^n alone."""
    std = [tuple(int(i == c) - int(i == c + 1) for c in range(n - 1)) for i in range(n)]
    wedge = [tuple(a + b for a, b in zip(std[i], std[j]))
             for i in range(n) for j in range(i + 1, n)]
    out: dict = {}
    for i in range(len(wedge)):
        for j in range(i, len(wedge)):
            w = tuple(a + b for a, b in zip(wedge[i], wedge[j]))
            out[w] = out.get(w, 0) + 1
    return out


@pytest.mark.parametrize("n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_isotypic_sym2_wedge2_against_weyl_peel(n):
    r = derived_rep(derived_rep(standard_rep(make_sl(n)), "wedge", 2), "sym2")
    got = sorted((c.weight, c.multiplicity, c.dim)
                 for c in isotypic_decomposition(r).components)
    want = sorted(weyl_oracle.peel(n, _sym2_wedge2_weights(n)))
    assert got == want


def test_isotypic_decomposition_is_memoized_per_module(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 4)
    assert isotypic_decomposition(r) is isotypic_decomposition(r)
    same_label = Rep(sl2, r.label, dict(r.action))
    assert isotypic_decomposition(same_label) is not isotypic_decomposition(r)


def test_isotypic_components_are_independent(sl2):
    r = derived_rep(derived_rep(standard_rep(sl2), "sym", 2), "sym2")
    decomp = isotypic_decomposition(r)
    a, b = (c.subspace for c in decomp.components)
    assert a.intersect(b).dim == 0
    assert a.sum(b).dim == r.dim


def test_dual_weights(sl2):
    d = derived_rep(standard_rep(sl2), "dual")
    assert sorted(weights_multiset(d)) == [(-1,), (1,)]


def test_exp_nilpotent(sl2):
    std = standard_rep(sl2)
    assert exp_nilpotent(std, "Y(1,2)", 0) == Mat.identity(2)
    t = F(5, 3)
    assert exp_nilpotent(std, "Y(1,2)", t).apply(unit(2, 0)) == [F(1), t]
    sym2 = derived_rep(std, "sym", 2)
    assert exp_nilpotent(sym2, "Y(1,2)", 1).apply(unit(3, 0)) == [F(1), F(2), F(1)]


def test_exp_nilpotent_inverse(sl2):
    r = derived_rep(standard_rep(sl2), "sym", 3)
    for sym in ("X(1,2)", "Y(1,2)"):
        for t in (F(1), F(-2), F(1, 2)):
            assert exp_nilpotent(r, sym, t) * exp_nilpotent(r, sym, -t) == Mat.identity(4)


def test_exp_rejects_coroot(sl2):
    with pytest.raises(ValueError):
        exp_nilpotent(standard_rep(sl2), "H(1)", 1)


def test_homomorphism_guard(sl2):
    action = dict(sl2.generators)
    action["X(1,2)"] = Mat.zero(2, 2)
    with pytest.raises(StructuralError, match=r"\(X\(1,2\), Y\(1,2\)\)"):
        Rep(sl2, "broken", action)


def test_homomorphism_guard_catches_a_fault_on_a_non_simple_pair():
    # sym^2 of sl(7) has dim 28: a check of the simple pairs plus a sample
    # of the others lets this wrong entry of X(1,5) through
    real = derived_rep(standard_rep(make_sl(7)), "sym", 2)
    action = {s: Mat([list(row) for row in m.data]) for s, m in real.action.items()}
    wrong = action["X(1,5)"].data
    i, j = next((i, j) for i, row in enumerate(wrong) for j, e in enumerate(row) if e)
    wrong[i][j] += 1
    with pytest.raises(StructuralError, match="not a Lie homomorphism"):
        Rep(real.algebra, "sym(2,std) with one wrong entry", action)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: derived_rep(standard_rep(make_sl(3)), "dual"),
        lambda: derived_rep(standard_rep(make_sl(4)), "wedge", 2),
        lambda: derived_rep(standard_rep(make_sl(6)), "sym", 3),
        lambda: derived_rep(standard_rep(make_sl(3)), "tensor",
                            other=derived_rep(standard_rep(make_sl(3)), "dual")),
        lambda: derived_rep(derived_rep(standard_rep(make_sl(3)), "sym", 2), "sym2"),
    ],
    ids=["dual", "wedge", "sym", "tensor", "sym2"],
)
def test_every_construction_is_a_homomorphism(builder):
    builder().verify_homomorphism()


# Module expressions as trees: "std", or (kind, degree, module, other module).
_STD = "std"
_DUAL = ("dual", None, _STD, None)
_WEDGE2 = ("wedge", 2, _STD, None)
CONSTRUCTION_TREES = {
    "dual(std)": _DUAL,
    "wedge(2,std)": _WEDGE2,
    "wedge(3,std)": ("wedge", 3, _STD, None),
    "sym(2,std)": ("sym", 2, _STD, None),
    "sym(3,std)": ("sym", 3, _STD, None),
    "tensor(std,dual(std))": ("tensor", None, _STD, _DUAL),
    "sym2(std)": ("sym2", None, _STD, None),
    "sym2(wedge(2,std))": ("sym2", None, _WEDGE2, None),
    "wedge(2,dual(std))": ("wedge", 2, _DUAL, None),
    "sym(2,wedge(2,std))": ("sym", 2, _WEDGE2, None),
    "dual(sym2(std))": ("dual", None, ("sym2", None, _STD, None), None),
    "tensor(wedge(2,std),std)": ("tensor", None, _WEDGE2, _STD),
}


def _checked_build(g, tree, name):
    """The library's module of a tree, each construction in it compared entry
    by entry with the dense reference built from the same parent."""
    if tree == _STD:
        return standard_rep(g)
    kind, k, inner, other = tree
    r = _checked_build(g, inner, name)
    o = None if other is None else _checked_build(g, other, name)
    if kind == "wedge" and k > r.dim:
        return None
    built = derived_rep(r, kind, k, o)
    action, labels = dense_construction(r, kind, k, o)
    for sym, m in action.items():
        assert built.action[sym] == m, (name, kind, sym)
    assert built.basis_labels == labels, name
    # exact entries only: a float would compare equal above once wrapped in a Mat
    assert all(type(e) in (int, F) for cols in built.columns.values()
               for col in cols for _, e in col), name
    return built


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_constructions_match_dense_reference(n):
    g = make_sl(n)
    for name, tree in CONSTRUCTION_TREES.items():
        _checked_build(g, tree, name)


def test_sym_coords_round_trip():
    m = Mat([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
    assert sym_coords_to_mat(mat_to_sym_coords(m), 3) == m


def test_sym_product_polarization():
    u = [F(1), F(2)]
    w = [F(3), F(-1)]
    uw = sym_product_coords(u, w)
    uu = sym_product_coords(u, u)
    assert uu == mat_to_sym_coords(Mat([[a * b for b in u] for a in u]))
    assert uw == sym_product_coords(w, u)


# --- the sparse action against the dense one ---------------------------------

def _fractional_std(g):
    """A user module from Mats with fractional entries: the standard module
    in a basis changed by a matrix with fractional entries."""
    p = Mat([[1, F(1, 2), 0], [0, 1, F(1, 3)], [F(2, 5), 0, 1]])
    p_inv = p.inverse()
    return Rep(g, "frac-std", {sym: p_inv * m * p for sym, m in standard_rep(g).action.items()})


SPARSE_MODULES = {
    "std@sl3": lambda: standard_rep(make_sl(3)),
    "dual@sl3": lambda: derived_rep(standard_rep(make_sl(3)), "dual"),
    "sym3@sl2": lambda: derived_rep(standard_rep(make_sl(2)), "sym", 3),
    "wedge2@sl4": lambda: derived_rep(standard_rep(make_sl(4)), "wedge", 2),
    "tensor(std,sym2)@sl2": lambda: derived_rep(
        standard_rep(make_sl(2)), "tensor", other=derived_rep(standard_rep(make_sl(2)), "sym", 2)),
    "sym_square(std)@sl3": lambda: standard_rep(make_sl(3)).sym_square(),
    "sym_square(sym2)@sl2": lambda: derived_rep(standard_rep(make_sl(2)), "sym", 2).sym_square(),
    "frac-std@sl3": lambda: _fractional_std(make_sl(3)),
    "sym_square(frac-std)@sl3": lambda: _fractional_std(make_sl(3)).sym_square(),
}

# mostly zero: three of every four draws are zero
_MOSTLY_ZERO = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))


def test_sparse_modules_include_fractional_actions():
    # a symmetric square scales entry (i, j) by c_j / c_i, c = 1 or 2, which
    # cancels to integers over an integral module, and not over the user one
    for name in SPARSE_MODULES:
        r = SPARSE_MODULES[name]()
        entries = {e for cols in r.columns.values() for col in cols for _, e in col}
        assert any(type(e) is F for e in entries) == ("frac" in name)


@pytest.mark.parametrize("name", sorted(SPARSE_MODULES))
@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_sparse_action_matches_dense(name, data):
    r = SPARSE_MODULES[name]()
    v = data.draw(st.lists(_MOSTLY_ZERO, min_size=r.dim, max_size=r.dim))
    sparse = {j: x for j, x in enumerate(v) if x}

    def dense(image):
        assert all(image.values())  # only the nonzero entries are held
        out = [F(0)] * r.dim
        for i, e in image.items():
            out[i] = F(e)
        return out

    for sym in r.algebra.catalog:
        assert dense(r.act_sparse(sym, sparse)) == r.act(sym, v) == r.action[sym].apply(v)
    word = data.draw(st.lists(st.sampled_from(r.algebra.catalog), max_size=4))
    want = v
    for sym in reversed(word):
        want = r.action[sym].apply(want)
    assert dense(orbit._word_image(r, word, sparse)) == r.act_word(word, v) == want
    # exp(t X) v as its series on the dense matrix, which ends by dim V
    sym = data.draw(st.sampled_from(r.algebra.xy_symbols()))
    t = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    series, power, coeff = list(v), list(v), F(1)
    for k in range(1, r.dim + 1):
        power = r.action[sym].apply(power)
        coeff = coeff * t / k
        series = [a + coeff * b for a, b in zip(series, power)]
    assert exp_act(r, sym, t, v) == series
