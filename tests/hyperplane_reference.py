"""Hyperplanes of im A^t cut by a functional, used only by tests.

The forward direction of the correspondence starts from a hyperplane
W = ker psi of im A^t and a complement v.  These helpers build both by
plain elimination over the dense RREF basis, sharing no code with the
integer tables that ``certify_irreducibility`` reads.
"""

from kernel_reference import kernel_combinations
from orbitquad.linalg import Subspace
from orbitquad.orbit import _evaluation


def hyperplane_of(im_at, psi):
    """W = ker psi inside im A^t and a complement vector, or None when psi
    vanishes on im A^t."""
    basis = [list(row) for row in im_at.basis]
    vals = [sum(p * e for p, e in zip(psi, row)) for row in basis]
    if not any(vals):
        return None
    w = Subspace(im_at.ambient_dim, kernel_combinations(basis, [[c] for c in vals]))
    return w, basis[next(k for k, c in enumerate(vals) if c)]


def evaluation_hyperplane(a, point):
    """The hyperplane of im A^t cut by evaluation at a rational point.

    Multi-vectors are polynomials on the box; the functional sends f to
    f(point).  These hyperplanes populate the locus where the product-span
    property actually holds, so they are the natural forward-direction
    samples; random functionals mostly land outside it.  Returns None when
    the evaluation vanishes on all of im A^t.
    """
    values = _evaluation(a.col_box, point, range(a.col_box.size))
    return hyperplane_of(a.row_space(), [values[p] for p in range(a.col_box.size)])
