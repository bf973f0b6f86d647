import itertools
import random

import pytest

from orbitquad.lie import LieAlgebra, Root, bracket, make_sl, x_symbol, y_symbol
from orbitquad.linalg import Mat, PivotedSpan


def flatten(m):
    return [e for row in m.data for e in row]


def test_sl2_catalog():
    g = make_sl(2)
    assert len(g.positive_roots) == 1
    assert sorted(g.catalog) == sorted(["X(1,2)", "Y(1,2)", "H(1)"])
    span = PivotedSpan(4)
    span.add_all(flatten(m) for m in g.generators.values())
    assert span.dim == 3


def test_sl3_catalog():
    g = make_sl(3)
    assert len(g.positive_roots) == 3
    assert len(g.catalog) == 8
    span = PivotedSpan(9)
    span.add_all(flatten(m) for m in g.generators.values())
    assert span.dim == 8


def test_make_sl_builds_one_algebra_per_n():
    assert make_sl(5) is make_sl(5)
    assert make_sl(5) is not make_sl(6)


def test_sl1_rejected():
    with pytest.raises(ValueError):
        make_sl(1)


def test_catalog_order_and_tracelessness():
    g = make_sl(4)
    assert g.catalog[: len(g.positive_roots)] == g.x_symbols()
    assert len(g.catalog) == 4 * 3 + 3
    assert all(m.trace() == 0 for m in g.generators.values())


def test_bracket_xy_is_coroot():
    for n in (2, 3, 4):
        g = make_sl(n)
        for beta in g.positive_roots:
            x = g.generators[x_symbol(beta)]
            y = g.generators[y_symbol(beta)]
            h = Mat.zero(n, n)
            h.data[beta.i - 1][beta.i - 1], h.data[beta.j - 1][beta.j - 1] = 1, -1
            assert bracket(x, y) == h  # E_ii - E_jj


def test_bracket_antisymmetry():
    g = make_sl(3)
    for m in g.generators.values():
        assert bracket(m, m).is_zero()


def test_bracket_sl3_example():
    g = make_sl(3)
    e12 = g.generators["X(1,2)"]
    e23 = g.generators["X(2,3)"]
    e13 = g.generators["X(1,3)"]
    assert bracket(e12, e23) == e13


def jacobi(a, b, c):
    return bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))


@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_exhaustive_small(n):
    g = make_sl(n)
    mats = list(g.generators.values())
    for a, b, c in itertools.product(mats, repeat=3):
        assert jacobi(a, b, c).is_zero()


def test_jacobi_sampled_sl5():
    g = make_sl(5)
    mats = list(g.generators.values())
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rng.choice(mats) for _ in range(3))
        assert jacobi(a, b, c).is_zero()


def test_expand_in_catalog_round_trip():
    g = make_sl(3)
    m = Mat([[1, 2, 0], [0, -3, 5], [7, 0, 2]])
    coeffs = g.expand_in_catalog(m)
    total = Mat.zero(3, 3)
    for sym, c in coeffs.items():
        total = total + g.generators[sym].scale(c)
    assert total == m


@pytest.mark.parametrize("n,count", [(2, 3), (3, 15), (4, 36), (5, 66), (6, 105),
                                     (7, 153), (8, 210)])
def test_relations_hold_on_the_standard_matrices(n, count):
    # each (a, b, c, s) reads [a, b] = c s: 3(n-1)^2 relations on the simple
    # triples and 3(n-1)(n-2)/2 more, [h_i, h_j] = 0 and the root vectors
    g = make_sl(n)
    gens = g.generators
    for a, b, c, s in g.relations:
        assert bracket(gens[a], gens[b]) == gens[s].scale(c), (a, b, c, s)
    assert len(g.relations) == count == 3 * (n - 1) ** 2 + 3 * (n - 1) * (n - 2) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expand_in_catalog_rebuilds_every_bracket(n):
    g = make_sl(n)
    gens = g.generators
    for a, b in itertools.combinations(g.catalog, 2):
        m = bracket(gens[a], gens[b])
        coeffs = g.expand_in_catalog(m)
        assert all(coeffs.values()), (a, b)
        total = Mat.zero(n, n)
        for sym, c in coeffs.items():
            total = total + gens[sym].scale(c)
        assert total == m, (a, b)


def test_expand_rejects_trace():
    g = make_sl(2)
    with pytest.raises(ValueError):
        g.expand_in_catalog(Mat.identity(2))


def test_root_validation():
    with pytest.raises(ValueError):
        Root(2, 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_the_catalog_builds_no_matrix_until_generators_are_read(monkeypatch, n):
    built = []
    init = Mat.__init__

    def counting(self, data):
        built.append(self)
        init(self, data)

    monkeypatch.setattr(Mat, "__init__", counting)
    g = LieAlgebra(n)
    assert (g.chevalley, g.relations) and built == []
    assert g.catalog == list(g.generators)
    assert len(built) == len(g.catalog)

