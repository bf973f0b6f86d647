import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from orbitquad import chordal, linalg, orbit, reps
from orbitquad.chordal import (
    ChordalSpec,
    chordal_ideal,
    chordal_sample,
    component_analysis,
    generic_vector,
    lemma_suma_check,
    sperner_bound,
    wedge_coordinates,
)
from antichain_reference import antichain_brute_force
from closure_reference import folded_chordal_span
from orbitquad.errors import CapExceeded, GenericVectorError
from orbitquad.lie import make_sl
from orbitquad.linalg import annihilator, yy_coords
from orbitquad.orbit import my_membership, orbit_module, quadric_ideal
from orbitquad.reps import derived_rep, isotypic_decomposition, standard_rep

import weyl_oracle


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def wedge2_sl4():
    return derived_rep(standard_rep(make_sl(4)), "wedge", 2)


E12 = unit(6, 0)
E12_34 = [F(1), F(0), F(0), F(0), F(0), F(1)]


def test_sperner_values():
    assert [sperner_bound(s) for s in (1, 2, 3, 4)] == [1, 2, 3, 6]
    assert sperner_bound(5) == 10
    with pytest.raises(ValueError):
        sperner_bound(0)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_sperner_against_exhaustive(s):
    assert sperner_bound(s) == antichain_brute_force(s)


def test_suma_single_summand():
    r = derived_rep(standard_rep(make_sl(2)), "sym", 3)
    assert lemma_suma_check(r, [unit(4, 0)])


def test_suma_sym2_of_sym2():
    r = derived_rep(derived_rep(standard_rep(make_sl(2)), "sym", 2), "sym2")
    decomp = isotypic_decomposition(r)
    picks = [list(c.subspace.basis[0]) for c in decomp.components]
    assert lemma_suma_check(r, picks)
    from orbitquad.reps import cyclic_module

    total = [a + b for a, b in zip(*picks)]
    assert cyclic_module(r, total).dim == 6


def test_suma_wedge2():
    r = derived_rep(wedge2_sl4(), "sym2")
    decomp = isotypic_decomposition(r)
    picks = [list(c.subspace.basis[0]) for c in decomp.components]
    assert lemma_suma_check(r, picks)
    from orbitquad.reps import cyclic_module

    total = [a + b for a, b in zip(*picks)]
    assert cyclic_module(r, total).dim == 21


def test_suma_rejects_repeats():
    r = derived_rep(standard_rep(make_sl(2)), "sym", 3)
    with pytest.raises(ValueError):
        lemma_suma_check(r, [unit(4, 0), [F(2), F(0), F(0), F(0)]])


def test_chordal_spec_validation():
    assert ChordalSpec(4, 2, 1).meet_dim == 1
    assert ChordalSpec(4, 2, 2).meet_dim == 0
    with pytest.raises(ValueError):
        ChordalSpec(2, 3, 1)
    with pytest.raises(ValueError):
        ChordalSpec(4, 2, 0)
    # two k-planes meeting in meet_dim dimensions span 2k - meet_dim
    assert ChordalSpec(6, 3, 2).meet_dim == 0 and ChordalSpec(5, 4, 1).meet_dim == 3
    for n, k, p in [(8, 5, 3), (4, 4, 1), (5, 3, 2), (6, 4, 2)]:
        with pytest.raises(ValueError, match="need 2k - meet_dim <= n"):
            ChordalSpec(n, k, p)


def test_wedge_coordinates():
    assert wedge_coordinates([unit(4, 0), unit(4, 1)], 4) == E12
    e1_plus = [F(1), F(0), F(0), F(0)]
    e2, e3 = unit(4, 1), unit(4, 2)
    mixed = wedge_coordinates([e1_plus, [a + b for a, b in zip(e2, e3)]], 4)
    assert mixed == [F(1), F(1), F(0), F(0), F(0), F(0)]


def leibniz_det(rows):
    """Determinant as the signed sum over permutations; the reference."""
    total = F(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def wedge_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4)))
    entry = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=3),
                      st.integers(-5, 5))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                            min_size=k, max_size=k))
    return vectors, n


@given(wedge_cases())
@settings(deadline=None, max_examples=150)
def test_wedge_coordinates_are_the_minors(case):
    vectors, n = case
    expected = [leibniz_det([[v[j] for j in cols] for v in vectors])
                for cols in itertools.combinations(range(n), len(vectors))]
    got = wedge_coordinates(vectors, n)
    assert got == expected
    # ints, Fractions or both in, Fractions out
    assert all(type(e) is F for e in got)


def test_chordal_sample_p1_is_decomposable():
    spec = ChordalSpec(4, 2, 1)
    r = wedge2_sl4()
    ideal = quadric_ideal(r, E12)
    for seed in range(12):
        x = chordal_sample(spec, seed)
        assert any(x)
        assert ideal.evaluate(0, x) == 0  # Pluecker quadric vanishes
        assert my_membership(r, E12, x)


def test_chordal_sample_p2_generic():
    spec = ChordalSpec(4, 2, 2)
    r = wedge2_sl4()
    ideal = quadric_ideal(r, E12)
    hits = sum(1 for seed in range(12) if ideal.evaluate(0, chordal_sample(spec, seed)) != 0)
    assert hits >= 10  # generic chords are off the Grassmannian


def test_chordal_sample_deterministic():
    spec = ChordalSpec(4, 2, 1)
    assert chordal_sample(spec, 9) == chordal_sample(spec, 9)


# chordal_sample(ChordalSpec(n, k, p), seed), pinned: a sample is fixed by
# its seed, and every seeded chordal_ideal report is built from samples
PINNED_SAMPLES = {
    ((4, 2, 1), 0): '33/2 24 -6 -33/2 0 -6',
    ((4, 2, 1), 7): '9 -3 -17 -6 -16 -6',
    ((4, 2, 2), 0): '-6 24 0 0 7 5',
    ((4, 2, 2), 7): '-45/2 -51/2 -67/2 -18 11 33',
    ((5, 2, 1), 0): '1 7 3 -16 -1 0 1 3 -9 3',
    ((5, 2, 1), 7): '37/2 1/2 -27/2 18 1 10 -39/2 1 -3/2 9/2',
    ((6, 3, 2), 0): '19/2 -33/2 -18 17 -21/2 23/2 4 -81/2 23 -9 -63/2 -63/2 77/2 9/2 27/2 15 54 -27/2 121/2 81/2',
    ((6, 3, 2), 7): '138 80 -78 -68 84 -30 -198 -30 -86 24 18 2 -52 -14 -82 36 64 -32 120 72',
    ((6, 3, 1), 12345): '8 6 -2 0 -21 -9 -12 -12 -9 3 73 37 28 46 21 -7 -15 36 24 27',
}


@pytest.mark.parametrize("spec,seed", sorted(PINNED_SAMPLES))
def test_chordal_sample_pinned(spec, seed):
    x = chordal_sample(ChordalSpec(*spec), seed)
    assert x == [F(e) for e in PINNED_SAMPLES[spec, seed].split()]
    assert all(type(e) is F for e in x)


def test_chordal_ideal_p1():
    report = chordal_ideal(ChordalSpec(4, 2, 1), samples=20, seed=0)
    assert report.isotypic_dims == [20, 1]
    assert report.ideal.dim == 1
    assert report.matched_tail == 1
    assert report.span_dim == 20


def test_chordal_ideal_p2():
    report = chordal_ideal(ChordalSpec(4, 2, 2), samples=20, seed=0)
    assert report.ideal.dim == 0
    assert report.matched_tail == 2
    assert report.span_dim == 21


def test_chordal_ideal_runs_no_closure(monkeypatch):
    # the span is read off isotypic supports; the decompositions are built
    # (and memoized) first, so a closure after that is one chordal_ideal ran
    specs = [ChordalSpec(4, 2, 1), ChordalSpec(4, 2, 2)]
    for spec in specs:
        isotypic_decomposition(spec.wedge_rep().sym_square())

    def refuse(*args):
        raise AssertionError("chordal_ideal ran a closure")

    monkeypatch.setattr(reps, "cyclic_closure", refuse)
    monkeypatch.setattr(orbit, "_closure", refuse)
    assert [chordal_ideal(spec, seed=0).span_dim for spec in specs] == [20, 21]
    assert not hasattr(chordal, "orbit_module")


@pytest.mark.parametrize("support,span_dim,matched", [
    ({0, 1}, 21, 2), ({0}, 20, 1), ({1}, 1, None),
])
def test_chordal_ideal_matched_tail_reads_prefix_supports(monkeypatch, support, span_dim, matched):
    # S^2(wedge^2 QQ^4) has components of dims 20 and 1; every sample of the
    # stubbed reader meets the given support, so the second one stops
    monkeypatch.setattr(chordal, "_projection_flags",
                        lambda decomp: lambda yy: frozenset(support))
    report = chordal_ideal(ChordalSpec(4, 2, 1), seed=0)
    assert (report.span_dim, report.matched_tail, report.samples_used) == (span_dim, matched, 2)


# seeded specs, compared with the span folded from orbit modules; S^2 V has
# two components, which (6, 3, 2) meets both of and (6, 3, 1) only the first of
SEEDED_SPECS = [
    ((4, 2, 1), 0), ((4, 2, 1), 7), ((4, 2, 2), 3), ((5, 2, 2), 0),
    ((6, 3, 1), 5), ((6, 3, 2), 1), ((7, 2, 2), 2),
]


@pytest.mark.parametrize("spec,seed", SEEDED_SPECS)
def test_chordal_ideal_matches_folded_closures(spec, seed):
    spec = ChordalSpec(*spec)
    span, used, matched = folded_chordal_span(spec, seed=seed)
    report = chordal_ideal(spec, seed=seed)
    assert (report.span_dim, report.samples_used, report.matched_tail) == (span.dim, used, matched)
    assert report.ideal.module == span
    assert report.ideal.dual_coords == annihilator(span)


@pytest.mark.parametrize("spec,seed", SEEDED_SPECS)
def test_support_of_the_integer_point_is_that_of_the_rational_square(spec, seed):
    # the reader squares the primitive integer multiple of each sample; the
    # reference reads the Fraction square of the sample itself, on a fresh
    # elimination over the components' rows
    spec = ChordalSpec(*spec)
    s2 = spec.wedge_rep().sym_square()
    decomp = isotypic_decomposition(s2)
    rows = [row for c in decomp.components for row in c.subspace._rows.values()]
    owner = [i for i, c in enumerate(decomp.components) for _ in range(c.dim)]
    reference = linalg.Coordinates(rows, s2.dim)
    support = chordal._projection_flags(decomp)
    rng = random.Random(seed)
    for x in [chordal_sample(spec, rng.randrange(1 << 30)) for _ in range(3)]:
        assert support(x) == {owner[k] for k in reference.of(yy_coords(x))}


def test_support_reads_on_a_warm_module_build_no_elimination(monkeypatch):
    # the elimination lives on the decomposition: once it is built, later
    # reads build no Coordinates, and a cleared isotypic cache builds one
    built = []

    class Counting(linalg.Coordinates):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for module in (linalg, reps, orbit, chordal):
        if hasattr(module, "Coordinates"):
            monkeypatch.setattr(module, "Coordinates", Counting)
    monkeypatch.setattr(reps, "_ISOTYPIC_CACHE", dict(reps._ISOTYPIC_CACHE))
    r, spec = wedge2_sl4(), ChordalSpec(4, 2, 2)
    chordal_ideal(spec, seed=0)
    built.clear()
    chordal_ideal(spec, seed=1)
    component_analysis(r, [E12, E12_34])
    generic_vector(r, lambda t: chordal_sample(spec, t), isotypic_decomposition(r.sym_square()))
    assert built == []
    reps._ISOTYPIC_CACHE.clear()
    chordal_ideal(spec, seed=0)
    assert len(built) == 1


# values taken before the span was read off isotypic supports: one sample
# never confirms the span, and span_dim is the dimension it reached
@pytest.mark.parametrize("spec,span_dim", [((4, 2, 1), 20), ((4, 2, 2), 21)])
def test_chordal_stabilization_cap(spec, span_dim):
    with pytest.raises(CapExceeded) as e:
        chordal_ideal(ChordalSpec(*spec), samples=1)
    assert e.value.kind == "stabilization"
    assert e.value.details == {"samples": 1, "span_dim": span_dim}


def test_chordal_ideal_order_independent():
    a = chordal_ideal(ChordalSpec(4, 2, 1), samples=20, seed=1)
    b = chordal_ideal(ChordalSpec(4, 2, 1), samples=20, seed=99)
    assert a.ideal.dual_coords == b.ideal.dual_coords
    assert a.span_dim == b.span_dim


@pytest.mark.parametrize("n", [6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_chordal_ideal_plucker(n):
    # S^2(wedge^2 V) = S_(2,2) V + wedge^4 V, and for k = 2, p = 1 the ideal
    # is the Pluecker quadrics, the wedge^4 V summand
    m = comb(n, 2)
    report = chordal_ideal(ChordalSpec(n, 2, 1), samples=20, seed=0)
    assert report.ideal.dim == comb(n, 4)
    assert report.isotypic_dims == [m * (m + 1) // 2 - comb(n, 4), comb(n, 4)]
    assert report.matched_tail == 1


def test_generic_vector_p2_succeeds():
    r = wedge2_sl4()
    decomp = isotypic_decomposition(r.sym_square())
    spec = ChordalSpec(4, 2, 2)
    y = generic_vector(r, lambda t: chordal_sample(spec, t), decomp)
    assert orbit_module(r, y).dim == 21


def test_generic_vector_p1_reports_reachable():
    r = wedge2_sl4()
    decomp = isotypic_decomposition(r.sym_square())
    spec = ChordalSpec(4, 2, 1)
    with pytest.raises(GenericVectorError) as e:
        generic_vector(r, lambda t: chordal_sample(spec, t), decomp, tries=15)
    assert e.value.reachable == frozenset({0})


def test_generic_vector_zero_sampler_caps():
    r = wedge2_sl4()
    decomp = isotypic_decomposition(r.sym_square())
    with pytest.raises(GenericVectorError) as e:
        generic_vector(r, lambda t: [F(0)] * 6, decomp, tries=5)
    assert e.value.reachable == frozenset()


def test_component_analysis_single_point():
    r = wedge2_sl4()
    report = component_analysis(r, [E12])
    assert report.maximal_count == 1
    assert report.point_sets == [frozenset({0})]
    assert report.bound_ok


def test_component_analysis_nested_pair():
    r = wedge2_sl4()
    report = component_analysis(r, [E12, E12_34])
    assert report.point_sets == [frozenset({0}), frozenset({0, 1})]
    assert report.containments == [(0, 1)]
    assert report.maximal_count == 1
    assert report.free_indices == 2
    assert report.bound == 2
    assert report.bound_ok


def test_component_analysis_duplicates_merge():
    r = wedge2_sl4()
    report = component_analysis(r, [E12, E12])
    assert report.merged == [[0, 1]]
    assert (0, 1) in report.containments and (1, 0) in report.containments
    assert report.maximal_count == 1


def test_component_analysis_supports_match_modules():
    r = wedge2_sl4()
    decomp = isotypic_decomposition(r.sym_square())
    for x in (E12, E12_34):
        (s,) = {frozenset(i for i, c in enumerate(decomp.components)
                          if orbit_module(r, x).contains_subspace(c.subspace))}
        report = component_analysis(r, [x])
        assert report.point_sets[0] == s


def test_component_analysis_partial_order():
    r = wedge2_sl4()
    pts = [E12, E12_34, unit(6, 3)]
    report = component_analysis(r, pts)
    rel = set(report.containments)
    for i, j in rel:
        for j2, k in rel:
            if j2 == j and (i, k) not in rel and i != k:
                raise AssertionError("containment relation is not transitive")


def _two_omega(n, k):
    return tuple(2 * int(i == k - 1) for i in range(n - 1))


# At p = 1 the chordal span is the Cartan component V(2 omega_k) of
# S^2(wedge^k V), the orbit module of the highest weight vector e_1 ^ ... ^ e_k
# (Lichtenstein, Proc. AMS 84, 1982), so the ideal is its complement
@pytest.mark.parametrize("n,k,span", [(5, 2, 50), (6, 2, 105), (7, 2, 196), (8, 2, 336),
                                      (6, 3, 175), (7, 3, 490),
                                      pytest.param(8, 3, 1176, marks=pytest.mark.slow)])
def test_chordal_span_is_the_cartan_component(n, k, span):
    m = comb(n, k)
    assert weyl_oracle.weyl_dim(n, _two_omega(n, k)) == span
    report = chordal_ideal(ChordalSpec(n, k, 1), seed=0)
    assert report.span_dim == span
    assert report.ideal.dim == m * (m + 1) // 2 - span


def test_highest_weight_ideal_of_wedge3_at_sl8():
    r = derived_rep(standard_rep(make_sl(8)), "wedge", 3)
    span = weyl_oracle.weyl_dim(8, _two_omega(8, 3))
    assert orbit_module(r, unit(56, 0)).dim == span == 1176
    assert quadric_ideal(r, unit(56, 0)).dim == 56 * 57 // 2 - span == 420


# S^2(wedge^2 V) at sl(8) (dim 406) is V(2 omega_2) + wedge^4 V; the square
# of the highest weight vector E12 lies in the Cartan component (Lichtenstein,
# Proc. AMS 84, 1982), while E12 + E34 + E56 + E78 has x ^ x != 0, so its
# square also projects onto wedge^4 V
def test_component_analysis_of_wedge2_at_sl8():
    r = derived_rep(standard_rep(make_sl(8)), "wedge", 2)
    basis = list(itertools.combinations(range(1, 9), 2))
    e12 = [F(int(t == (1, 2))) for t in basis]
    pfaffian = [F(int(t in {(1, 2), (3, 4), (5, 6), (7, 8)})) for t in basis]
    report = component_analysis(r, [e12, pfaffian])
    assert report.details["component_dims"] == [weyl_oracle.weyl_dim(8, _two_omega(8, 2)),
                                                comb(8, 4)] == [336, 70]
    assert report.point_sets == [frozenset({0}), frozenset({0, 1})]
    assert report.containments == [(0, 1)]
    assert report.maximal_count == 1 and report.bound_ok
