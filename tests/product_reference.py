"""Products of subspaces of a box space through the symmetric square, used
only by tests.

The certifier convolves integer rows keyed by reached doubled position and
reads the kernel of mu off them (``orbit._Products``).  These oracles take
the long way: every symmetrized product in monomial coordinates on the
symmetric square of the whole box space, then its image under mu, by dense
elimination.
"""

from dataclasses import dataclass

from kernel_reference import kernel_combinations
from orbitquad.errors import DimensionMismatch
from orbitquad.linalg import QQ, Subspace, pair_coords, sym_pairs
from orbitquad.multimatrix import Box, MultiVector


def mu_of_pair_coords(box: Box, coords) -> MultiVector:
    """Linear extension of z_p z_q -> basis vector at i_p + i_q."""
    offsets = box.doubled_offsets()
    out = [QQ(0)] * box.doubled().size
    for (p, q), c in zip(sym_pairs(box.size), coords, strict=True):
        if c:
            out[offsets[p] + offsets[q]] += c
    return MultiVector(box.doubled(), tuple(out))


@dataclass
class DotSpan:
    """Span of symmetrized products of two subspaces of a box space.

    ``pair_span`` lives in the symmetric square of the box space (monomial
    coordinates); ``mu_image`` is its image under mu in the doubled box.
    The product of two subspaces is taken as the span of their symmetrized
    products; when the subspaces intersect trivially this agrees with the
    sum of the two tensor orders inside the symmetric square.
    """

    pair_span: Subspace
    mu_image: Subspace


def dot_span(box: Box, s1: Subspace, s2: Subspace) -> DotSpan:
    if s1.ambient_dim != box.size or s2.ambient_dim != box.size:
        raise DimensionMismatch("subspaces must live on the box space")
    size = box.size
    pair_dim = size * (size + 1) // 2
    pair_rows = []
    mu_rows = []
    for u in s1.basis:
        for w in s2.basis:
            coords = pair_coords(list(u), list(w))
            pair_rows.append(coords)
            mu_rows.append(list(mu_of_pair_coords(box, coords).data))
    return DotSpan(Subspace(pair_dim, pair_rows), Subspace(box.doubled().size, mu_rows))


def mu_kernel(box: Box, s: Subspace) -> Subspace:
    """Kernel of mu restricted to the symmetric square of s.

    Returned in monomial coordinates on the symmetric square of the full box
    space, so it can be compared with ``dot_span(...).pair_span``.
    """
    if s.ambient_dim != box.size:
        raise DimensionMismatch("subspace must live on the box space")
    basis = [list(r) for r in s.basis]
    products = [pair_coords(basis[p], basis[q]) for p, q in sym_pairs(len(basis))]
    images = [mu_of_pair_coords(box, c).data for c in products]
    return Subspace(box.size * (box.size + 1) // 2, kernel_combinations(products, images))
