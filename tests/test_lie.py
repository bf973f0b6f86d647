import itertools
import random

import pytest

from orbitquad.lie import Root, bracket, make_sl, x_symbol, y_symbol
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
            assert bracket(x, y) == g.coroot(beta)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_constants_expand_the_brackets(n):
    # the table holds exactly the pairs a before b with a simple member
    g = make_sl(n)
    cat = g.catalog
    simple = {f"{c}({i},{i + 1})" for i in range(1, n) for c in "XY"}
    pairs = [(a, b) for i, a in enumerate(cat) for b in cat[i + 1:]
             if a in simple or b in simple]
    for a, b in pairs:
        want = g.expand_in_catalog(bracket(g.generators[a], g.generators[b]))
        assert g.simple_structure_constants[a, b] == want, (a, b)
    assert list(g.simple_structure_constants) == pairs


def test_simple_pairs_at_sl8():
    # 63 catalog symbols, 14 of them simple: 1953 pairs, 1176 without a simple one
    assert len(make_sl(8).simple_structure_constants) == 1953 - 1176 == 777


def test_expand_rejects_trace():
    g = make_sl(2)
    with pytest.raises(ValueError):
        g.expand_in_catalog(Mat.identity(2))


def test_root_validation():
    with pytest.raises(ValueError):
        Root(2, 2)
