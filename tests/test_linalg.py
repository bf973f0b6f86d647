from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference
from kernel_reference import kernel_combinations
from orbitquad import linalg
from orbitquad.errors import DimensionMismatch, StructuralError
from orbitquad.linalg import (
    Mat,
    PivotedSpan,
    Subspace,
    annihilator,
    format_scalar,
    parse_scalar,
    rank,
    rref,
    solve,
    subspace_combine,
)

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def mats(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fracs, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Mat)
        )
    )


def sparse_rows(max_rows=6, max_cols=6):
    """(rows, ncols): mostly-zero rational rows, wide or tall, some all zero."""
    entry = st.one_of(st.just(F(0)), st.just(F(0)), small_fracs)
    return st.integers(1, max_cols).flatmap(lambda c: st.tuples(
        st.lists(st.one_of(st.lists(entry, min_size=c, max_size=c),
                           st.just([F(0)] * c)), min_size=0, max_size=max_rows),
        st.just(c)))


def assert_matches_reference(rows, ncols):
    # the library's rows are dicts of nonzero entries, the reference's dense
    ints = linalg._rref_rows(map(linalg.sparse, rows))
    pivots = list(ints)
    got = [[F(row.get(c, 0), row[pc]) for c in range(ncols)] for pc, row in ints.items()]
    want, want_pivots = kernel_reference.rref_rows(rows, ncols)
    # the library drops the zero rows that the reference sinks to the bottom
    assert (got, pivots) == (want[:len(want_pivots)], want_pivots)
    assert not any(map(any, want[len(want_pivots):]))
    # each integer row is its RREF row times its positive pivot, primitive,
    # and holds only nonzero entries
    for row, pc, scaled in zip(got, pivots, ints.values()):
        assert scaled[pc] > 0 and gcd(*scaled.values()) == 1 and all(scaled.values())
        assert linalg.sparse([x * scaled[pc] for x in row]) == scaled


@given(sparse_rows())
@settings(deadline=None, max_examples=150)
def test_rref_rows_match_fraction_reference(case):
    rows, ncols = case
    assert_matches_reference(rows, ncols)


@given(sparse_rows(max_rows=5, max_cols=5), st.lists(small_fracs, min_size=5, max_size=5))
@settings(deadline=None, max_examples=100)
def test_augmented_rref_matches_fraction_reference(case, rhs):
    rows, ncols = case
    if not rows:
        return
    n = len(rows)
    # as in solve: one right-hand-side column
    assert_matches_reference([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
    # as in Mat.inverse: the identity beside a square block
    square = [(r * n)[:n] for r in rows]
    aug = [r + [F(int(i == j)) for j in range(n)] for i, r in enumerate(square)]
    assert_matches_reference(aug, 2 * n)
    want, pivots = kernel_reference.rref_rows(aug, 2 * n)
    if pivots[:n] == list(range(n)):
        assert Mat(square).inverse() == Mat([row[n:] for row in want[:n]])
    else:
        with pytest.raises(StructuralError, match="singular"):
            Mat(square).inverse()


@given(sparse_rows(), st.lists(st.lists(small_fracs, min_size=6, max_size=6), max_size=4),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6))
@settings(deadline=None, max_examples=100)
def test_span_membership_matches_fraction_reference(case, probes, coeffs):
    rows, ncols = case
    basis, pivots = kernel_reference.rref_rows(rows, ncols)
    span, sparse_span = PivotedSpan(ncols), PivotedSpan(ncols)
    grew = [span.add(r) for r in rows]
    assert [sparse_span.add(linalg.sparse(r)) for r in rows] == grew
    assert sum(grew) == len(pivots) and span.pivots == sparse_span.pivots == pivots
    sub = Subspace(ncols, rows)
    assert Subspace(ncols, map(linalg.sparse, rows)) == sub
    # combinations of the rows lie in the span; random probes mostly do not
    combos = [[sum((c * r[k] for c, r in zip(coeffs, rows)), F(0)) for k in range(ncols)]]
    for v in combos + [p[:ncols] for p in probes]:
        inside = all(not e for e in kernel_reference.reduce(v, basis, pivots))
        # the same vector, dense and as a dict of its nonzero entries
        d = linalg.sparse(v)
        assert span.contains(v) == sub.contains(v) == inside
        assert sparse_span.contains(d) == span.contains(d) == sub.contains(d) == inside


def test_rref_identity():
    _, rk, ker = rref(Mat.identity(2))
    assert rk == 2
    assert ker.dim == 0


def test_rref_zero():
    _, rk, ker = rref(Mat.zero(3, 3))
    assert rk == 0
    assert ker.dim == 3


def test_rref_rank_one():
    reduced, rk, ker = rref(Mat([[1, 2], [2, 4]]))
    assert rk == 1
    assert reduced == Mat([[1, 2], [0, 0]])
    # kernel span{(-2, 1)} in pivot-normalized form
    assert ker.basis == ((F(1), F(-1, 2)),)


@given(mats())
@settings(deadline=None, max_examples=60)
def test_rref_idempotent_and_kernel(m):
    reduced, rk, ker = rref(m)
    again, rk2, _ = rref(reduced)
    assert again == reduced and rk2 == rk
    assert rk + ker.dim == m.cols
    for row in ker.basis:
        assert all(not e for e in m.apply(list(row)))


@given(mats())
@settings(deadline=None, max_examples=60)
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())
    assert rank(m) + rref(m)[2].dim == m.cols


def test_combine_coordinate_axes():
    a = Subspace(2, [[1, 0]])
    b = Subspace(2, [[0, 1]])
    assert subspace_combine(a, b, "sum") == Subspace.full(2)
    assert subspace_combine(a, b, "intersect") == Subspace.zero(2)


def test_combine_idempotent():
    a = Subspace(3, [[1, 2, 0], [0, 0, 1]])
    assert subspace_combine(a, a, "sum") == a
    assert subspace_combine(a, a, "intersect") == a


def test_combine_worked_intersection():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert subspace_combine(a, b, "intersect") == Subspace(3, [[1, 1, 0]])


def test_combine_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_combine(Subspace.zero(2), Subspace.zero(3), "sum")


@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=0, max_size=3),
       st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=0, max_size=3))
@settings(deadline=None, max_examples=60)
def test_combine_dimension_formula(rows_a, rows_b):
    a, b = Subspace(4, rows_a), Subspace(4, rows_b)
    s = a.sum(b)
    i = a.intersect(b)
    assert s.dim + i.dim == a.dim + b.dim
    assert s.contains_subspace(a) and s.contains_subspace(b)
    assert a.contains_subspace(i) and b.contains_subspace(i)


def test_annihilator_extremes():
    assert annihilator(Subspace.full(4)) == Subspace.zero(4)
    assert annihilator(Subspace.zero(4)) == Subspace.full(4)


def test_annihilator_of_line():
    s = Subspace(3, [[1, 1, 0]])
    ann = annihilator(s)
    assert ann.dim == 2
    assert ann.contains([1, -1, 0])
    assert ann.contains([0, 0, 1])


@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=0, max_size=4))
@settings(deadline=None, max_examples=60)
def test_annihilator_involution(rows):
    s = Subspace(4, rows)
    ann = annihilator(s)
    assert s.dim + ann.dim == 4
    assert annihilator(ann) == s


def test_solve_identity():
    assert solve(Mat.identity(2), [F(3, 2), F(-1)]) == [F(3, 2), F(-1)]


def test_solve_free_variable_zero():
    assert solve(Mat([[1, 1]]), [F(5)]) == [F(5), F(0)]


def test_solve_inconsistent():
    assert solve(Mat([[1], [0]]), [F(0), F(1)]) is None


@given(mats(), st.lists(small_fracs, min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_solve_exact_when_solvable(m, x):
    x = (x * m.cols)[: m.cols]
    rhs = m.apply(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.apply(got) == rhs


def test_pivoted_span_matches_subspace():
    span = PivotedSpan(3)
    assert span.add([0, 1, 1])
    assert span.add([1, 1, 1])
    assert not span.add([1, 0, 0])  # already in the span
    assert span.contains([2, 3, 3])
    assert span.to_subspace() == Subspace(3, [[0, 1, 1], [1, 1, 1]])


@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_pivoted_span_any_insertion_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    span = PivotedSpan(4)
    span.add_all(shuffled)
    assert span.to_subspace() == Subspace(4, rows)
    assert span.pivots == sorted(span.pivots)
    assert all(span.contains(r) for r in rows)


@given(mats(), st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=0, max_size=5))
@settings(deadline=None, max_examples=60)
def test_kernel_combinations_map_to_zero(m, vectors):
    vectors = [(v * m.cols)[: m.cols] for v in vectors]
    images = [m.apply(v) for v in vectors]
    kernel = kernel_combinations(vectors, images)
    for w in kernel:
        assert all(not e for e in m.apply(w))
    assert len(kernel) == len(vectors) - rank(Mat(images))
    if rank(Mat(vectors)) == len(vectors):
        # independent inputs: the kernel of m on their span, exactly
        span = Subspace(m.cols, vectors)
        assert Subspace(m.cols, kernel) == span.intersect(rref(m)[2])


def test_inverse():
    m = Mat([[1, 2], [3, 4]])
    assert m * m.inverse() == Mat.identity(2)
    assert m.inverse() * m == Mat.identity(2)
    with pytest.raises(StructuralError, match="singular"):
        Mat([[1, 2], [2, 4]]).inverse()


def test_scalar_round_trip():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    assert format_scalar(F(-2)) == "-2"
    assert format_scalar(F(6, -4)) == "-3/2"
