"""Closure-based references, used only by tests.

``dense_closure`` is the closure the library ran before its search was
graded by weight: every vector is a dense list over the whole module, acted
on by the dense action matrices, and reduced against one echelon of the
whole space.  It shares the ``PivotedSpan`` of the library's linear algebra,
and nothing of its sparse view or weight grading.

``folded_chordal_span`` is the chordal sampling the library ran before it
read isotypic supports: it folds the orbit module of every sampled chord
point into one span, and stops at the first sample after the first whose xx
already lies in that span.
"""

import random
from fractions import Fraction

from orbitquad.chordal import chordal_sample
from orbitquad.linalg import QQ, PivotedSpan, Subspace, yy_coords
from orbitquad.orbit import orbit_module
from orbitquad.reps import isotypic_decomposition


def dense_closure(r, w):
    """(subspace, words): the smallest invariant subspace containing w, with
    the words whose images enlarged the dense span when they were found."""
    span = PivotedSpan(r.dim)
    words: list[tuple[str, ...]] = []
    if not span.add(w):
        return span.to_subspace(), words
    xy = r.algebra.xy_symbols()
    frontier: list[tuple[list[Fraction], tuple[str, ...]]] = [(list(map(QQ, w)), ())]
    while frontier:
        fresh = []
        for v, word in frontier:
            for sym in xy:
                u = r.action[sym].apply(v)
                if span.add(u):
                    new_word = (sym,) + word
                    words.append(new_word)
                    fresh.append((u, new_word))
        frontier = fresh
    return span.to_subspace(), words


def folded_chordal_span(spec, samples=0, seed=0):
    """(span, samples_used, matched_tail) of the p-restricted chordal
    variety, from folded orbit modules; ``samples`` and ``seed`` as in
    ``chordal_ideal``.  ``matched_tail`` is the m whose first m isotypic
    components sum to the span, found by comparing subspaces, or None."""
    rep = spec.wedge_rep()
    s2 = rep.sym_square()
    rng = random.Random(seed)
    span = PivotedSpan(s2.dim)
    for used in range(1, (samples or 4 * s2.dim) + 1):
        x = chordal_sample(spec, rng.randrange(1 << 30))
        if used > 1 and span.contains(yy_coords(x)):
            break
        span.add_all(orbit_module(rep, x)._rows.values())
    else:
        raise AssertionError(f"span still growing after {used} samples")
    s_x = span.to_subspace()
    comps = isotypic_decomposition(s2).components
    partials = [Subspace(s2.dim, [row for c in comps[:m] for row in c.subspace._rows.values()])
                for m in range(len(comps) + 1)]
    return s_x, used, next((m for m, t in enumerate(partials) if t == s_x), None)
