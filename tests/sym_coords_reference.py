"""Symmetric-square coordinates the library does not use, kept for tests.

Two conventions read the coordinates of S^2(QQ^n), one per index pair
(k, l), k <= l, and they differ by a factor of 2 off the diagonal:
- matrix entries: the symmetric matrix M has coordinates M_kl, so the
  symmetric product u.w = (u w^t + w u^t)/2 has (u_k w_l + u_l w_k)/2 off
  the diagonal (``sym_product_coords``); the library reads these;
- monomials: (sum u_p z_p)(sum w_q z_q) has the coefficient
  u_k w_l + u_l w_k on z_k z_l (``pair_coords``).

A functional on matrix-entry coordinates is the full trace pairing with a
symmetric matrix (``trace_pairing_mat``), the dense form in which the
library once built every quadric of an ideal.  ``rank_one_factor`` is the
dense rank-one read the library ran before it read symmetric coordinates.
"""

from orbitquad.errors import RankOneError
from orbitquad.linalg import QQ, sym_coords_to_mat, sym_pairs


def mat_to_sym_coords(m):
    """Upper-triangle coordinates of a symmetric matrix."""
    return [m.data[k][l] for k, l in sym_pairs(m.rows)]


def _products(u, w, off):
    return [u[k] * w[k] if k == l else off * (u[k] * w[l] + u[l] * w[k])
            for k, l in sym_pairs(len(u))]


def sym_product_coords(u, w):
    """Matrix-entry coordinates of the symmetric product (u w^t + w u^t)/2."""
    return _products(u, w, QQ(1, 2))


def pair_coords(u, w):
    """Monomial coefficients of the polynomial (sum u_p z_p)(sum w_q z_q)."""
    return _products(u, w, 1)


def trace_pairing_mat(row, n):
    """The symmetric Phi with sum_ij Phi_ij M_ij = sum_(k<=l) row_kl M_kl."""
    half = QQ(1, 2)
    return sym_coords_to_mat([c if k == l else half * c
                              for (k, l), c in zip(sym_pairs(n), row, strict=True)], n)


def rank_one_factor(m):
    """u with first nonzero coordinate 1 and m a nonzero scalar times u u^t,
    read off the first nonzero row and checked on every entry."""
    if m.rows != m.cols or m != m.transpose():
        raise RankOneError("not symmetric")
    lead_row = next((i for i, row in enumerate(m.data) if any(row)), None)
    if lead_row is None:
        raise RankOneError("zero")
    row = m.data[lead_row]
    lead_col = next(j for j, e in enumerate(row) if e)
    u = [e / row[lead_col] for e in row]
    c = m.data[lead_col][lead_col]
    for i in range(m.rows):
        for j in range(m.cols):
            if m.data[i][j] != c * u[i] * u[j]:
                raise RankOneError("not rank one")
    if not c:
        raise RankOneError("not rank one")
    return u
