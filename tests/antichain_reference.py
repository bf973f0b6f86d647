"""Exhaustive maximum antichains, used only by tests as the oracle for
``chordal.sperner_bound`` at small s."""

import itertools


def antichain_brute_force(s: int) -> int:
    """Exhaustive maximum antichain size; the oracle for small s.

    Branch and bound over families of pairwise-incomparable subsets; feasible
    through s = 5 (32 subsets).
    """
    subsets = list(range(1 << s))
    incomparable = {a: set() for a in subsets}
    for a, b in itertools.combinations(subsets, 2):
        if a & b != a and a & b != b:
            incomparable[a].add(b)
            incomparable[b].add(a)
    best = 0

    def extend(candidates, size):
        nonlocal best
        if size > best:
            best = size
        if not candidates or size + len(candidates) <= best:
            return
        v = candidates[0]
        rest = candidates[1:]
        extend([u for u in rest if u in incomparable[v]], size + 1)
        extend(rest, size)

    extend(subsets, 0)
    return best
