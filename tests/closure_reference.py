"""Dense breadth-first cyclic closure, used only by tests as a reference.

This is the closure the library ran before its search was graded by weight:
every vector is a dense list over the whole module, acted on by the dense
action matrices, and reduced against one echelon of the whole space.  It
shares the ``PivotedSpan`` of the library's linear algebra, and nothing of
its sparse view or weight grading.
"""

from fractions import Fraction

from orbitquad.linalg import QQ, PivotedSpan


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
