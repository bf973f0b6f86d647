import random
from fractions import Fraction as F
from math import gcd, lcm

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
    sym_pairs,
    yy_coords,
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


def _solve_on(kept, ncols, m, target):
    """x with sum x_i r_i = target read off augmented_rref's rows [p R | E]:
    the sum over pivots c of target_c L / p_c times each row is [L target | L x]
    when target lies in the span (L the lcm of the pivots), else None."""
    big = lcm(*(row[pc] for pc, row in kept.items()))
    acc = [F(0)] * (ncols + m)
    for pc, row in kept.items():
        for c, x in row.items():
            acc[c] += F(target[pc]) * big / row[pc] * x
    if acc[:ncols] != [big * F(t) for t in target]:
        return None
    return [x / big for x in acc[ncols:]]


def _dense_or_none(x, m):
    """Coordinates by row index as a dense list of length m, or None."""
    return None if x is None else [x.get(i, F(0)) for i in range(m)]


def assert_augmented_contract(rows, ncols, rng):
    m = len(rows)
    reduced = linalg.augmented_rref(rows, ncols)
    image = {pc: row for pc, row in reduced.items() if pc < ncols}
    # rows [p R | E]: R the canonical RREF rows of the span, and p R = E . rows
    sub = Subspace(ncols, rows)
    assert list(image) == list(sub.pivots)
    for (pc, row), want in zip(image.items(), sub.basis):
        assert [F(row.get(c, 0), row[pc]) for c in range(ncols)] == list(want)
        e = [row.get(ncols + i, 0) for i in range(m)]
        assert ([sum(x * r[c] for x, r in zip(e, rows)) for c in range(ncols)]
                == [row.get(c, 0) for c in range(ncols)])
    # the rows pivoting in the unit part: the RREF of the left kernel, which
    # is the annihilator of the transpose's rows
    relations = [[F(row.get(ncols + i, 0), row[pc]) for i in range(m)]
                 for pc, row in reduced.items() if pc >= ncols]
    transpose = [list(col) for col in zip(*rows)]
    assert relations == [list(r) for r in annihilator(Subspace(m, transpose)).basis]
    # with the rank as limit: every E lies on the lex-earliest independent
    # rows, and the solutions are full row reduction's, free variables at
    # zero, as Coordinates reads them
    independent = [i for i in range(m) if rank(Mat(rows[:i + 1])) > rank(Mat(rows[:i]))]
    kept = linalg.augmented_rref(rows, ncols, limit=len(independent))
    assert list(kept) == list(sub.pivots)
    assert {c - ncols for row in kept.values() for c in row if c >= ncols} <= set(independent)
    coeffs = [F(rng.randint(-3, 3)) for _ in rows]
    targets = [[sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)],
               [F(rng.randint(-3, 3)) for _ in range(ncols)]]
    targets += [[F(int(k == j)) for k in range(ncols)] for j in range(ncols)]
    solved = 0
    coords = linalg.Coordinates(rows, ncols, limit=len(independent))
    for target in targets:
        want = kernel_reference.solve(Mat(transpose), target)
        assert _solve_on(kept, ncols, m, target) == want
        assert _dense_or_none(coords.of(target), m) == want
        solved += want is not None
    assert solved


def _integer_matrix(rng, r, c):
    return [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("kind", ["full_rank", "rank_deficient", "zero_row", "single_row"])
@pytest.mark.parametrize("seed", range(4))
def test_augmented_rref_matches_solve_and_annihilator(kind, seed):
    rng = random.Random(seed)
    rows = {
        "full_rank": lambda: _integer_matrix(rng, 4, 6),
        "rank_deficient": lambda: _product(_integer_matrix(rng, 6, 2), _integer_matrix(rng, 2, 5)),
        "zero_row": lambda: (_integer_matrix(rng, 2, 4) + [[0] * 4]
                             + _integer_matrix(rng, 2, 4)),
        "single_row": lambda: _integer_matrix(rng, 1, 5),
    }[kind]()
    if kind == "full_rank":
        assert rank(Mat(rows)) == 4
    if kind == "rank_deficient":
        assert rank(Mat(rows)) < len(rows)
    assert_augmented_contract(rows, len(rows[0]), rng)


@given(sparse_rows(max_rows=5, max_cols=5), st.integers(0, 2 ** 16))
@settings(deadline=None, max_examples=60)
def test_augmented_rref_contract_on_sparse_rows(case, seed):
    rows, ncols = case
    if rows:
        assert_augmented_contract(rows, ncols, random.Random(seed))


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


@given(sparse_rows(), st.lists(st.integers(-2, 2), min_size=6, max_size=6),
       st.lists(small_fracs, min_size=6, max_size=6), st.booleans(), st.booleans())
@settings(deadline=None, max_examples=150)
def test_coordinates_match_dense_reference(case, coeffs, probe, as_dicts, rank_known):
    # rows with zero and dependent members (a combination of the others is
    # appended), dense or as dicts, against the dense solve of the reference
    # on the transpose: combinations of the rows, the zero target and random
    # probes, mostly outside the span
    rows, ncols = case
    rows = rows + [[sum((c * r[k] for c, r in zip(coeffs, rows)), F(0)) for k in range(ncols)]]
    transpose = Mat([[r[k] for r in rows] for k in range(ncols)])
    limit = len(kernel_reference.rref_rows(rows, ncols)[1]) if rank_known else None
    coords = linalg.Coordinates([linalg.sparse(r) if as_dicts else r for r in rows],
                                ncols, limit)
    for target in (rows[-1], [F(0)] * ncols, probe[:ncols]):
        want = kernel_reference.solve(transpose, target)
        got = coords.of(linalg.sparse(target) if as_dicts else target)
        assert _dense_or_none(got, len(rows)) == want
        assert got is None or all(got.values())


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
    assert a.sum(b) == Subspace.full(2)
    assert a.intersect(b) == Subspace.zero(2)


def test_combine_idempotent():
    a = Subspace(3, [[1, 2, 0], [0, 0, 1]])
    assert a.sum(a) == a
    assert a.intersect(a) == a


def test_combine_worked_intersection():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert a.intersect(b) == Subspace(3, [[1, 1, 0]])


def test_combine_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.zero(2).sum(Subspace.zero(3))
    with pytest.raises(DimensionMismatch):
        Subspace.zero(2).intersect(Subspace.zero(3))


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


def is_primitive(row):
    return all(type(x) is int and x for x in row.values()) and gcd(*row.values()) == 1


@given(sparse_rows(), st.lists(st.lists(small_fracs, min_size=6, max_size=6), max_size=4))
@settings(deadline=None, max_examples=150)
def test_stored_rows_and_residues_are_primitive(case, probes):
    rows, ncols = case
    span = PivotedSpan(ncols)
    for r in rows:
        span.add(r)
        assert all(map(is_primitive, span.rows))
    held = {pc: dict(row) for pc, row in span._rows.items()}
    for v in rows + [p[:ncols] for p in probes]:
        v = linalg.primitive(linalg.sparse(v))
        # an all-int row (the gcd-only path) and the same row as Fractions agree
        if v is not None:
            assert linalg.primitive({c: F(x) for c, x in v.items()}) == v
            assert linalg.primitive({c: F(x, 3) for c, x in v.items()}) == v
        given_v = None if v is None else dict(v)
        res = linalg._reduce(v, span._rows)
        assert res is None or (is_primitive(res) and not set(res) & set(span._rows))
        # neither the row nor the echelon was changed
        assert v == given_v and span._rows == held


def test_reduce_residue_is_primitive():
    v, rows = {0: 1, 1: 3}, {0: {0: 1, 1: 1}}
    # (1, 3) - (1, 1) = (0, 2), whose primitive multiple is (0, 1)
    assert linalg._reduce(v, rows) == {1: 1}
    assert v == {0: 1, 1: 3} and rows == {0: {0: 1, 1: 1}}
    assert linalg._reduce({0: 2, 1: 2}, rows) is None
    assert linalg.primitive({0: 0, 1: 4, 2: -6}) == {1: 2, 2: -3}
    assert linalg.primitive({0: 0, 1: F(1, 2), 2: F(-3, 4)}) == {1: 2, 2: -3}
    assert linalg.primitive({0: 0}) is None


def test_full_span_answers_at_once():
    span = PivotedSpan(3)
    assert span.add_all([[1, 0, 0], [0, 2, 0], {2: F(1, 2)}])
    sub = span.to_subspace()
    assert sub == Subspace.full(3)
    for v in ([5, F(1, 3), 0], [0, 0, 0], {2: 7}, {}):
        assert not span.add(v)
        assert span.contains(v) and sub.contains(v)
    assert span.dim == 3
    # a dense vector of the wrong length is still refused
    for bad in ([1, 2], [1, 2, 3, 4]):
        for call in (span.add, span.contains, sub.contains):
            with pytest.raises(DimensionMismatch):
                call(bad)


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
    assert parse_scalar(" +1/2 ") == F(1, 2)
    assert parse_scalar("007/014") == F(1, 2)
    assert format_scalar(F(-2)) == "-2"
    assert format_scalar(F(6, -4)) == "-3/2"


@given(st.lists(st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(F), small_fracs),
                max_size=6))
def test_yy_coords_matches_fraction_reference(y):
    # ints, integral Fractions and proper Fractions, against the products of
    # the Fractions; every entry from an integral y is an int
    got = yy_coords(y)
    assert got == [F(y[k]) * F(y[l]) for k, l in sym_pairs(len(y))]
    assert all(type(e) is int or e.denominator > 1 for e in got)
    if all(F(e).denominator == 1 for e in y):
        assert all(type(e) is int for e in got)
