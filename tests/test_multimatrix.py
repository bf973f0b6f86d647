import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from orbitquad.errors import DimensionMismatch, RankOneError
from orbitquad.linalg import Mat, Subspace, rank
from orbitquad.multimatrix import (
    Box,
    MultiMatrix,
    MultiVector,
    catalecticant,
    catalecticant_to_vector,
    mu,
    phi_A,
    rank_one_factor,
)
from product_reference import dot_span, mu_kernel, mu_of_pair_coords
from sym_coords_reference import pair_coords

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def mv(box, entries):
    return MultiVector.from_entries(box, entries)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=5), st.data())
def test_box_enumeration_is_lexicographic(bounds, data):
    box = Box(bounds)
    idxs = box.indices()
    assert idxs == list(itertools.product(*(range(b + 1) for b in bounds)))
    assert box.size == len(idxs)
    assert [box.position(i) for i in idxs] == list(range(box.size))
    assert all(i in box for i in idxs)
    doubled = box.doubled()
    assert doubled.N == tuple(2 * b for b in bounds) and doubled.halved() == box
    offsets = {p: doubled.position(i) for p, i in enumerate(idxs)}
    assert box.doubled_offsets(range(box.size)) == offsets
    # an index of the wrong length, or one axis past its bound or below zero
    r = len(bounds)
    bad = [(0,) * (r + 1)] + ([(0,) * (r - 1)] if r else [])
    if r:
        k = data.draw(st.integers(0, r - 1))
        bad += [tuple(e if a == k else 0 for a in range(r)) for e in (bounds[k] + 1, -1)]
    for i in bad:
        assert i not in box
        with pytest.raises(IndexError):
            box.position(i)


def test_box_doubling():
    box = Box((1, 2))
    assert box.doubled().N == (2, 4)
    assert box.doubled().halved() == box
    with pytest.raises(ValueError):
        Box((1,)).halved()


def test_mm_identity_and_transpose():
    box = Box((1,))
    a = MultiMatrix([[1, 2], [3, 4]], box, box)
    ident = MultiMatrix.identity_on_box(box)
    assert a * ident == a
    assert a.transpose().transpose() == a


def test_mm_product_example():
    box = Box((1,))
    a = MultiMatrix([[1, 2], [3, 4]], box, box)
    b = MultiMatrix([[0, 1], [1, 0]], box, box)
    assert (a * b).data == [[F(2), F(1)], [F(4), F(3)]]


def test_mm_shape_errors():
    b1, b2 = Box((1,)), Box((2,))
    a = MultiMatrix([[1, 2], [3, 4]], b1, b1)
    c = MultiMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], b2, b2)
    with pytest.raises(DimensionMismatch):
        a + c
    with pytest.raises(DimensionMismatch):
        a * c
    # equal sizes, different shapes: only the box check can tell them apart
    square, line = Box((1, 1)), Box((3,))
    assert square.size == line.size == 4
    p = MultiMatrix(Mat.identity(4).data, square, line)
    q = MultiMatrix(Mat.identity(4).data, line, line)
    with pytest.raises(DimensionMismatch, match="box mismatch"):
        p + q
    with pytest.raises(DimensionMismatch, match="inner spaces differ"):
        q * p
    pt = p.transpose()
    assert (pt.row_box, pt.col_box) == (line, square)
    s = q * pt
    assert (s.row_box, s.col_box) == (line, square)
    assert (p + p).data == (p.as_mat() + p.as_mat()).data and (p + p).col_box == line


@given(st.data())
@settings(deadline=None, max_examples=30)
def test_mm_algebra_laws(data):
    box = Box((1,))
    draw_m = lambda: MultiMatrix(
        [[data.draw(small_fracs) for _ in range(2)] for _ in range(2)], box, box)
    a, b, c = draw_m(), draw_m(), draw_m()
    assert (a * b) * c == a * (b * c)
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_catalecticant_example():
    b = mv(Box((2,)), [0, 1, 2])
    cat = catalecticant(b)
    assert cat.data == [[F(0), F(1)], [F(1), F(2)]]


def test_catalecticant_is_symmetric():
    box = Box((1, 1))
    b = mv(box.doubled(), range(9))
    m = catalecticant(b)
    assert (m.row_box, m.col_box) == (box, box)
    assert m.data == [list(col) for col in zip(*m.data)]


def test_catalecticant_round_trip():
    box = Box((1, 1))
    b = mv(box.doubled(), [F(k, 3) for k in range(9)])
    assert catalecticant_to_vector(catalecticant(b)) == b


def test_catalecticant_rejects_non_catalectic():
    box = Box((1,))
    m = MultiMatrix([[1, 0], [1, 1]], box, box)
    with pytest.raises(ValueError):
        catalecticant_to_vector(m)
    with pytest.raises(DimensionMismatch):
        catalecticant_to_vector(MultiMatrix(m.data, box, None))
    # a defining vector on a box that is not of the form 2N
    with pytest.raises(ValueError):
        catalecticant(mv(box, [1, 2]))
    # phi_A needs A's column box to be the catalecticant's box
    with pytest.raises(DimensionMismatch):
        phi_A(MultiMatrix.identity_on_box(Box((2,))), catalecticant(mv(Box((2,)), [1, 2, 3])))


def test_geometric_vector_gives_rank_one():
    t = F(3, 2)
    b = mv(Box((4,)), [t ** k for k in range(5)])
    assert rank(catalecticant(b).as_mat()) == 1


def test_mu_basis_vectors():
    box = Box((1, 1))
    xi = MultiVector.basis(box, (1, 0))
    xj = MultiVector.basis(box, (0, 1))
    assert mu(xi, xj) == MultiVector.basis(box.doubled(), (1, 1))


def test_mu_binomial():
    box = Box((1,))
    f = mv(box, [1, 1])
    assert mu(f, f) == mv(box.doubled(), [1, 2, 1])


def test_mu_symmetry_and_surjectivity():
    box = Box((2,))
    f = mv(box, [1, -2, 3])
    g = mv(box, [0, 5, 7])
    assert mu(f, g) == mu(g, f)
    seen = set()
    for i in box.indices():
        for j in box.indices():
            m = mu(MultiVector.basis(box, i), MultiVector.basis(box, j))
            seen.add(next(k for k, e in enumerate(m.data) if e))
    assert seen == set(range(box.doubled().size))


@given(st.lists(small_fracs, min_size=3, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3))
@settings(deadline=None, max_examples=40)
def test_mu_matches_pair_coordinates(fs, gs):
    box = Box((2,))
    f, g = mv(box, fs), mv(box, gs)
    assert mu(f, g) == mu_of_pair_coords(box, pair_coords(fs, gs))


@given(st.lists(small_fracs, min_size=4, max_size=4))
@settings(deadline=None, max_examples=40)
def test_mu_square_vanishes_only_at_zero(fs):
    box = Box((3,))
    f = mv(box, fs)
    square = mu(f, f)
    assert square.is_zero() == f.is_zero()
    # polynomial square check on a few sample points
    for t in (F(1), F(2), F(-1, 2)):
        value = sum(c * t ** k for k, c in enumerate(fs))
        assert sum(c * t ** k for k, c in enumerate(square.data)) == value * value


def test_dot_span_single_line():
    box = Box((2,))
    s = Subspace(3, [[1, 0, 0]])
    res = dot_span(box, s, s)
    assert res.pair_span.dim == 1
    assert res.mu_image == Subspace(5, [[1, 0, 0, 0, 0]])


def test_dot_span_worked_examples():
    box = Box((2,))
    full = Subspace.full(3)
    s1 = Subspace(3, [[1, 0, 0], [0, 1, 0]])  # span{1, x}
    assert dot_span(box, s1, full).mu_image.dim == 4
    s2 = Subspace(3, [[1, 0, 0], [0, 0, 1]])  # span{1, x^2}
    assert dot_span(box, s2, full).mu_image.dim == 5


def test_dot_span_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        dot_span(Box((2,)), Subspace.full(2), Subspace.full(3))


def test_mu_kernel_examples():
    assert mu_kernel(Box((1,)), Subspace.full(2)).dim == 0
    k = mu_kernel(Box((2,)), Subspace.full(3))
    assert k.dim == 1
    # 1.x^2 - x.x in monomial pair coordinates (z0z2 and z1z1)
    witness = [F(0)] * 6
    witness[2] = F(1)   # z0 z2
    witness[3] = F(-1)  # z1 z1
    assert k.contains(witness)
    assert mu_kernel(Box((2,)), Subspace.zero(3)).dim == 0


def test_phi_A_identity_box():
    box = Box((2,))
    b = mv(box.doubled(), [1, 2, 3, 4, 5])
    cat = catalecticant(b)
    a = MultiMatrix.identity_on_box(box)
    assert phi_A(a, cat) == cat.as_mat()


def test_phi_A_zero_and_rank():
    box = Box((2,))
    cat = catalecticant(MultiVector.zero(box.doubled()))
    a = MultiMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]], None, box)
    assert phi_A(a, cat).is_zero()
    t = F(2)
    hankel = catalecticant(mv(box.doubled(), [t ** k for k in range(5)]))
    assert rank(phi_A(a, hankel)) == 1


@given(st.lists(small_fracs, min_size=5, max_size=5), st.data())
@settings(deadline=None, max_examples=30)
def test_phi_A_rank_bound(bs, data):
    box = Box((2,))
    cat = catalecticant(mv(box.doubled(), bs))
    rows = [[data.draw(small_fracs) for _ in range(3)] for _ in range(3)]
    a = MultiMatrix(rows, None, box)
    b_rank = rank(cat.as_mat())
    assert rank(phi_A(a, cat)) <= b_rank
    if rank(a.as_mat()) == 3:
        assert rank(phi_A(a, cat)) == b_rank


def test_rank_one_factor_examples():
    u = [F(1), F(2)]
    m = Mat([[a * b for b in u] for a in u])
    assert rank_one_factor(m) == u
    with pytest.raises(RankOneError) as e:
        rank_one_factor(Mat.identity(2))
    assert e.value.kind == "not rank one"
    with pytest.raises(RankOneError) as e:
        rank_one_factor(Mat.zero(2, 2))
    assert e.value.kind == "zero"


def test_rank_one_factor_projective():
    u = [F(1), F(0), F(-1)]
    m = Mat([[3 * a * b for b in u] for a in u])
    assert rank_one_factor(m) == u


def test_rank_one_factor_rejects_asymmetric():
    with pytest.raises(RankOneError, match="not symmetric"):
        rank_one_factor(Mat([[0, 1], [0, 0]]))


def test_degenerate_boxes():
    point = Box((0,))
    assert point.size == 1 and point.doubled().N == (0,)
    f = mv(point, [F(5)])
    assert mu(f, f) == mv(point, [F(25)])
    flat = Box((2, 0))
    assert flat.size == 3
    assert flat.indices() == [(0, 0), (1, 0), (2, 0)]
    b = mv(flat.doubled(), [1, 2, 3, 4, 5])
    cat = catalecticant(b)
    assert cat.row_box == cat.col_box == flat
    assert catalecticant_to_vector(cat) == b


def test_multivector_json_round_trip():
    box = Box((1, 1))
    v = mv(box, [F(1, 2), F(-3), F(0), F(7, 5)])
    doc = v.to_json()
    assert doc == {"N": [1, 1], "data": ["1/2", "-3", "0", "7/5"]}
    assert MultiVector.from_json(doc) == v


def test_multivector_holds_its_nonzero_values_by_position():
    box = Box((1, 2))
    assert box.size == 6
    # a position outside the box is an error, never silently dropped
    for p in (-1, box.size, box.size + 3):
        with pytest.raises(IndexError):
            MultiVector.from_sparse(box, {0: 1, p: 2})
    # zeros are not stored, so equality is equality of values
    dense = mv(box, [0, F(1, 2), 0, 0, -3, 0])
    assert dense == MultiVector.from_sparse(box, {1: F(1, 2), 4: -3})
    assert dense == MultiVector.from_sparse(box, {1: F(1, 2), 2: 0, 4: -3})
    assert dense.coeffs == {1: F(1, 2), 4: F(-3)}
    assert dense.data == (0, F(1, 2), 0, 0, F(-3), 0) and len(dense.data) == box.size
    assert dense[(0, 1)] == F(1, 2) and dense[(1, 0)] == 0
    assert (dense + dense.scale(-1)).coeffs == {} and (dense + dense.scale(-1)).is_zero()
    assert MultiVector.zero(box) == mv(box, [0] * 6)
    with pytest.raises(DimensionMismatch):
        mv(box, [1, 2])
