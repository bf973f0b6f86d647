"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, denominator positive),
vectors are plain lists of scalars, matrices are dense row-major grids, and
subspaces are kept in reduced row echelon form so that equality of subspaces
is equality of basis matrices.  Everything is exact; there are no tolerances
anywhere in this package.

Every row operation in the package happens in three functions here:

- ``_rref_rows``, the one Gauss-Jordan elimination, behind ``Subspace``,
  ``rref``, ``rank``, ``solve`` and ``integer_inverse``;
- ``_reduce``, which clears the pivot columns of a vector against echelon
  rows, behind ``Subspace.contains`` and ``PivotedSpan``;
- ``_kernel_rows``, which reads a kernel basis off a reduced matrix, behind
  ``rref``, ``annihilator`` and ``kernel_combinations``.

The first two work fraction-free (Bareiss, Math. Comp. 22, 1968) on the
primitive integer multiple of each row: a row operation is a * row -
b * pivot_row with a, b coprime, then division by the row's gcd, and
``_rref_rows`` divides each pivot row by its pivot once, at the end.  The
RREF of a row space is unique, so the answer is the canonical one that
elimination over the rationals gives.

All values are treated as immutable after construction and all operations are
pure, so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, SpecParseError

Scalar = Fraction

QQ = Fraction  # short constructor alias used throughout the package

ZERO = QQ(0)
ONE = QQ(1)


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal ``"p/q"`` or ``"p"``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad rational literal {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors

def vec_is_zero(v) -> bool:
    return all(not e for e in v)


def vec_add(a, b) -> list[Fraction]:
    return [x + y for x, y in zip(a, b, strict=True)]


def vec_sub(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b, strict=True)]


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Dense matrix of rationals.

    Inner loops skip zero entries, which makes the dense representation cheap
    on the very sparse action matrices this package mostly works with.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[QQ(e) for e in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise DimensionMismatch("ragged rows in matrix")

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat.zero(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_scalar(e) for e in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def is_zero(self) -> bool:
        return all(not e for row in self.data for e in row)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Mat([vec_add(r, s) for r, s in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Mat([vec_sub(r, s) for r, s in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return self.scale(QQ(-1))

    def scale(self, c) -> "Mat":
        c = QQ(c)
        return Mat([[c * e for e in row] for row in self.data])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] += a * b
        return Mat(out)

    def apply(self, v) -> list[Fraction]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector length mismatch")
        out = []
        for row in self.data:
            total = ZERO
            for a, x in zip(row, v):
                if a and x:
                    total += a * x
            out.append(total)
        return out

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices have inverses")
        rows, den = integer_inverse(self.data)
        return Mat([[Fraction(x, den) for x in row] for row in rows])

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), ZERO)


# ---------------------------------------------------------------------------
# symmetric-square coordinates
#
# S^2(QQ^n) has one coordinate per index pair (k, l), k <= l, listed by
# ``sym_pairs``.  Two conventions read these coordinates, and they differ by
# a factor of 2 off the diagonal:
# - matrix entries: the symmetric matrix M has coordinates M_kl, so the
#   symmetric product u.w = (u w^t + w u^t)/2 has (u_k w_l + u_l w_k)/2 off
#   the diagonal (``sym_product_coords``);
# - monomials: (sum u_p z_p)(sum w_q z_q) has the coefficient
#   u_k w_l + u_l w_k on z_k z_l (``pair_coords``).
# A functional on matrix-entry coordinates is the full trace pairing with the
# symmetric matrix ``trace_pairing_mat``, whose off-diagonal entries are
# halved for the same reason.

def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (k, l) with k <= l, in lexicographic order."""
    return [(k, l) for k in range(n) for l in range(k, n)]


def sym_square(x) -> Mat:
    """The symmetric matrix x x^t."""
    return Mat([[a * b for b in x] for a in x])


def yy_coords(y) -> list[Fraction]:
    """Matrix-entry coordinates of y y^t."""
    y = list(map(QQ, y))
    return [y[k] * y[l] for k, l in sym_pairs(len(y))]


def mat_to_sym_coords(m: Mat) -> list[Fraction]:
    """Upper-triangle coordinates of a symmetric matrix."""
    return [m.data[k][l] for k, l in sym_pairs(m.rows)]


def sym_coords_to_mat(coords, n: int) -> Mat:
    m = Mat.zero(n, n)
    for (k, l), c in zip(sym_pairs(n), coords, strict=True):
        m.data[k][l] = m.data[l][k] = QQ(c)
    return m


def _products(u, w, off) -> list[Fraction]:
    return [u[k] * w[k] if k == l else off * (u[k] * w[l] + u[l] * w[k])
            for k, l in sym_pairs(len(u))]


def sym_product_coords(u, w) -> list[Fraction]:
    """Matrix-entry coordinates of the symmetric product (u w^t + w u^t)/2."""
    return _products(u, w, QQ(1, 2))


def pair_coords(u, w) -> list[Fraction]:
    """Monomial coefficients of the polynomial (sum u_p z_p)(sum w_q z_q)."""
    return _products(u, w, 1)


def trace_pairing_mat(row, n: int) -> Mat:
    """The symmetric Phi with sum_ij Phi_ij M_ij = sum_(k<=l) row_kl M_kl."""
    half = QQ(1, 2)
    return sym_coords_to_mat([c if k == l else half * c
                              for (k, l), c in zip(sym_pairs(n), row, strict=True)], n)


# ---------------------------------------------------------------------------
# row reduction

def _primitive(row) -> list[int] | None:
    """The primitive integer multiple of a rational row, or None when it is
    zero; only the nonzero entries are read."""
    nonzero = [(c, e) for c, e in enumerate(row) if e]
    if not nonzero:
        return None
    den = lcm(*(e.denominator for _, e in nonzero))
    out = [0] * len(row)
    for c, e in nonzero:
        out[c] = e.numerator * (den // e.denominator)
    g = gcd(*(out[c] for c, _ in nonzero))
    return out if g == 1 else [x // g for x in out]


def _rref_rows(rows, ncols: int):
    """Gauss-Jordan elimination of rational rows; returns (nonzero RREF
    rows, pivot columns, primitive integer RREF rows).

    Zero rows are dropped first.  Pivot entries are 1 and pivot columns are
    cleared above and below, so the rows are the canonical RREF basis; each
    integer row is its RREF row times the pivot.
    """
    work = list(map(_primitive, filter(any, rows)))
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        pivot_row = next((r for r in range(pr, len(work)) if work[r][pc]), None)
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        prow = work[pr]
        work = [row if r == pr or not row[pc] else _reduce(row, (prow,), (pc,))
                for r, row in enumerate(work)]
        work[pr + 1:] = [row for row in work[pr + 1:] if row is not None]
        pivots.append(pc)
        if len(work) == len(pivots):
            break
    out = [[Fraction(x, row[pc]) if x else ZERO for x in row]
           for row, pc in zip(work, pivots)]
    return out, pivots, work


def integer_inverse(rows) -> tuple[list[list[int]], int]:
    """M^-1 as integer rows over one positive denominator, read off the
    primitive rows p_k [e_k | row k of M^-1] of [M | I]'s elimination."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _, pivots, work = _rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    den = lcm(*(row[k] for k, row in enumerate(work)))
    return [[x * (den // row[k]) for x in row[n:]] for k, row in enumerate(work)], den


def _kernel_rows(reduced: list[list[Fraction]], pivots: list[int], ncols: int):
    """Kernel basis from an RREF matrix, one row per free column."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        for k, pc in enumerate(pivots):
            if reduced[k][f]:
                v[pc] = -reduced[k][f]
        out.append(v)
    return out


def _reduce(v: list[int] | None, rows, pivots) -> list[int] | None:
    """Clear the pivot columns of the primitive integer row v in increasing
    order, each by a v - b row (a > 0, a and b coprime) and division by the
    gcd; returns the primitive residue, or None when it is zero.  Each row
    is zero before its pivot column and need not be zero in the other pivot
    columns, since clearing column p only touches columns >= p."""
    for row, pc in zip(rows, pivots):
        if v is None:
            break
        f = v[pc]
        if f:
            p = row[pc]
            g = gcd(p, f)
            a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
            v = [a * x - b * y for x, y in zip(v, row)]
            g = gcd(*v)
            v = None if not g else v if g == 1 else [x // g for x in v]
    return v


class Subspace:
    """A linear subspace of QQ^n in canonical reduced-row-echelon form.

    Construction always re-reduces, so two subspaces are equal exactly when
    their ``basis`` grids are equal.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_rows")

    def __init__(self, ambient_dim: int, rows=None):
        rows = list(rows or ())
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("basis row length != ambient dimension")
        reduced, pivots, self._rows = _rref_rows(rows, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = tuple(map(tuple, reduced))
        self.pivots = tuple(pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.identity(ambient_dim).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return _reduce(_primitive(v), self._rows, self.pivots) is None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(list(r)) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace sum: ambient mismatch")
        return Subspace(self.ambient_dim, self._rows + other._rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace intersection: ambient mismatch")
        return annihilator(annihilator(self).sum(annihilator(other)))


def rref(m: Mat):
    """Reduced row echelon form of m.

    Returns ``(reduced, rank, kernel)`` where ``reduced`` has the same shape
    as ``m`` (zero rows kept), and ``kernel`` spans ``{x | m x = 0}``.
    """
    rows, pivots, _ = _rref_rows(m.data, m.cols)
    kernel = Subspace(m.cols, _kernel_rows(rows, pivots, m.cols))
    rows += [[ZERO] * m.cols for _ in range(m.rows - len(rows))]
    return Mat(rows), len(pivots), kernel


def rank(m: Mat) -> int:
    return len(_rref_rows(m.data, m.cols)[1])


def subspace_combine(a: Subspace, b: Subspace, mode: str) -> Subspace:
    """Sum or intersection of two subspaces of the same ambient space."""
    if mode == "sum":
        return a.sum(b)
    if mode == "intersect":
        return a.intersect(b)
    raise ValueError(f"unknown mode {mode!r}")


def annihilator(s: Subspace) -> Subspace:
    """All functionals (in dual coordinates) vanishing on s.

    dim s + dim annihilator(s) = ambient, and the map is an involution.
    """
    return Subspace(s.ambient_dim, _kernel_rows(s.basis, s.pivots, s.ambient_dim))


def kernel_combinations(vectors, images) -> list[list[Fraction]]:
    """The kernel of the linear map sending vectors[i] to images[i]: one
    combination sum c_i vectors[i] per kernel basis vector c of the images.

    The result is a basis of the kernel when ``vectors`` are independent.
    """
    d = len(vectors)
    rows, pivots, _ = _rref_rows(zip(*images), d)
    out = []
    for coeff in _kernel_rows(rows, pivots, d):
        total = [ZERO] * len(vectors[0])
        for c, v in zip(coeff, vectors):
            if c:
                for i, e in enumerate(v):
                    if e:
                        total[i] += c * e
        out.append(total)
    return out


def solve(m: Mat, rhs) -> list[Fraction] | None:
    """One exact solution of m x = rhs with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length != number of rows")
    aug = [list(row) + [QQ(r)] for row, r in zip(m.data, rhs)]
    rows, pivots, _ = _rref_rows(aug, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for k, pc in enumerate(pivots):
        x[pc] = rows[k][m.cols]
    return x


class PivotedSpan:
    """Incrementally grown span with pivot bookkeeping.

    Rows are primitive integer rows kept forward-reduced only (each row
    leads in its own pivot column and is zero in all earlier pivot columns),
    in increasing pivot order, which makes insertion cheap; ``to_subspace``
    canonicalizes at the end.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return _reduce(_primitive(v), self.rows, self.pivots) is None

    def add(self, v) -> bool:
        """Insert v; returns True when it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        res = _reduce(_primitive(v), self.rows, self.pivots)
        if res is None:
            return False
        lead = next(j for j, e in enumerate(res) if e)
        at = bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.rows.insert(at, res)
        return True

    def add_all(self, vectors) -> bool:
        grew = False
        for v in vectors:
            grew |= self.add(v)
        return grew

    def to_subspace(self) -> Subspace:
        return Subspace(self.ambient_dim, self.rows)
