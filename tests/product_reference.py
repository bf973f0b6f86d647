"""Products of tables on a box space, used only by tests.

The certifier convolves integer rows keyed by reached doubled position over
``Box.doubled_offsets``: the products of im A^t, from which it reads the
kernel of mu (``orbit._Products``), and the pair sums, from A's rows
(``orbit._SeqData``).  These oracles take the long way: every symmetrized
product in monomial coordinates on the symmetric square of the whole box
space, then its image under mu, by dense elimination; and the pair sums
from A's columns, each applied letter by letter, in a loop over ordered
pairs of columns.  Doubled positions are composed from ``Box.index`` and
``Box.position``, so the offset map is checked, not shared.
"""

from collections import defaultdict
from dataclasses import dataclass
from math import factorial, prod

from kernel_reference import kernel_combinations
from orbitquad.errors import DimensionMismatch
from orbitquad.linalg import QQ, Subspace, integer_rows, sparse, sym_pairs
from orbitquad.multimatrix import Box, MultiVector
from sym_coords_reference import pair_coords


def mu_of_pair_coords(box: Box, coords) -> MultiVector:
    """Linear extension of z_p z_q -> basis vector at i_p + i_q."""
    doubled = box.doubled()
    offsets = [doubled.position(box.index(p)) for p in range(box.size)]
    out = [QQ(0)] * doubled.size
    for (p, q), c in zip(sym_pairs(box.size), coords, strict=True):
        if c:
            out[offsets[p] + offsets[q]] += c
    return MultiVector.from_entries(box.doubled(), out)


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


def pair_sums(r, y, gs) -> tuple[dict[int, dict[int, int]], int]:
    """The pair sums sum_{i+j=n} (D^i y/i!)(D^j y/j!) by doubled position n,
    each an integer row over the returned denominator on the symmetric slots
    k <= l, with a row wherever some pair of nonzero columns meets.

    Column i of A is D^i y / i!, its letters applied from the last axis
    back; each ordered pair of columns (i, j) adds col_i[k] col_j[l] to
    slot (k, l), k <= l, at the doubled position of i + j."""
    box, doubled = gs.box, gs.box.doubled()
    columns = {}
    for idx in box.indices():
        v = sparse(map(QQ, y))
        for sym, e in reversed(list(zip(gs.symbols, idx))):
            for _ in range(e):
                v = r.act_sparse(sym, v)
        if v:
            columns[box.position(idx)] = {k: QQ(x) / prod(map(factorial, idx))
                                          for k, x in v.items()}
    ints, den = integer_rows(list(columns.values()))
    slot = {kl: t for t, kl in enumerate(sym_pairs(r.dim))}
    nonzero = [(doubled.position(box.index(p)), list(col.items()))
               for p, col in zip(columns, ints)]
    sums: defaultdict = defaultdict(lambda: defaultdict(int))
    for o_i, col_i in nonzero:
        for o_j, col_j in nonzero:
            acc = sums[o_i + o_j]
            for k, x in col_i:
                for l, z in col_j:
                    if k <= l:
                        acc[slot[k, l]] += x * z
    return {n: {t: x for t, x in acc.items() if x} for n, acc in sums.items()}, den * den
