"""Highest weight vectors from dense images, used only by tests.

The library finds them one weight block at a time, from the sparse columns
of the positive root actions.  This reference takes the way the library
took before: for each weight space of ``weight_decomposition``, the dense
images of its basis under every positive root through ``Rep.act``, and the
kernel of those images by dense elimination over ``Fraction``.
"""

from kernel_reference import kernel_combinations
from orbitquad.linalg import Subspace
from orbitquad.reps import weight_decomposition


def highest_weight_vectors(r):
    """For each weight, the subspace killed by every positive-root action."""
    xs = r.algebra.x_symbols()
    out = []
    for w, space in weight_decomposition(r):
        basis = [list(row) for row in space.basis]
        images = [[e for x in xs for e in r.act(x, b)] for b in basis]
        rows = kernel_combinations(basis, images)
        if rows:
            out.append((w, Subspace(r.dim, rows)))
    return out
