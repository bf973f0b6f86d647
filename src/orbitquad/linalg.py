"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, denominator positive),
matrices are dense row-major grids, and subspaces are kept in reduced row
echelon form so that equality of subspaces is equality of basis matrices.
Everything is exact; there are no tolerances anywhere in this package.

A row is a dict of its nonzero entries by column, the form in which the
module action returns its images.  Dense rows come in only at the public
edges (``Subspace``, ``PivotedSpan.add``, the ``contains`` methods,
``rref``, ``rank``, ``solve``, ``Mat.inverse``) and go out only as
``Subspace.basis`` and ``Mat`` grids.

Every row operation in the package happens in three functions here:

- ``_rref_rows``, the one Gauss-Jordan elimination, behind ``Subspace``,
  ``rref``, ``rank``, ``solve`` and ``integer_inverse``;
- ``_reduce``, which clears the pivot columns of a row against echelon
  rows, behind ``Subspace.contains`` and ``PivotedSpan``;
- ``_kernel_rows``, which reads a kernel basis off a reduced matrix, behind
  ``rref`` and ``annihilator``.

The first two work fraction-free (Bareiss, Math. Comp. 22, 1968) on the
primitive integer multiple of each row: a row operation is a * row -
b * pivot_row with a, b coprime, then division by the row's gcd, and only
the nonzero entries are touched.  The RREF of a row space is unique, so the
answer is the canonical one that elimination over the rationals gives.

All values are treated as immutable after construction and all operations are
pure, so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionMismatch, SpecParseError, StructuralError

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
        return Mat([[x + y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Mat([[x - y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

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
#
# A row is a dict of its nonzero entries by column.  Inside the kernel every
# row is primitive (integer entries with gcd 1), and echelon rows are held
# in a dict by pivot column, each row zero before its pivot.

def sparse(v) -> dict[int, Fraction | int]:
    """The nonzero entries of a dense vector by coordinate, integral ones as ints."""
    return {j: x.numerator if x.denominator == 1 else x for j, x in enumerate(v) if x}


def _row(v, n: int) -> dict:
    """v as a row: a dict as it is, a dense vector of length n by its nonzero entries."""
    if isinstance(v, dict):
        return v
    if len(v) != n:
        raise DimensionMismatch("vector length != ambient dimension")
    return sparse(v)


def _primitive(row: dict) -> dict[int, int] | None:
    """The primitive integer multiple of a rational row, or None when it is zero."""
    nonzero = [(c, e) for c, e in row.items() if e]
    if not nonzero:
        return None
    den = lcm(*(e.denominator for _, e in nonzero))
    out = {c: e.numerator * (den // e.denominator) for c, e in nonzero}
    g = gcd(*out.values())
    return out if g == 1 else {c: x // g for c, x in out.items()}


def _reduce(v: dict[int, int] | None, rows: dict[int, dict[int, int]]) -> dict[int, int] | None:
    """Clear the pivot columns of the primitive integer row v in increasing
    order, each by a v - b row (a > 0, a and b coprime) and division by the
    gcd; returns the primitive residue, or None when it is zero.  ``rows``
    maps each pivot column to its row, which is zero before that column and
    need not be zero in the other pivot columns, since clearing column p
    only touches columns >= p."""
    if v is None:
        return None
    todo = [c for c in v if c in rows]
    heapify(todo)
    while todo:
        pc = heappop(todo)
        f = v.get(pc)
        if not f:
            continue
        row = rows[pc]
        p = row[pc]
        g = gcd(p, f)
        a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
        v = {c: a * x for c, x in v.items()}
        for c, y in row.items():
            if c not in v and c in rows:
                heappush(todo, c)
            v[c] = v.get(c, 0) - b * y
        g = gcd(*v.values())
        if not g:
            return None
        v = {c: x // g for c, x in v.items() if x}
    return v


def _rref_rows(rows) -> dict[int, dict[int, int]]:
    """Gauss-Jordan elimination of rows given by their nonzero entries:
    the primitive integer RREF rows by pivot column, in increasing order,
    each with a positive pivot.

    Each row is reduced against the echelon met so far and kept by its lead
    column; then, from the last pivot back, each row's entries in later
    pivot columns are cleared.  Zero rows drop out.  The RREF of a row space
    is unique, so each row is the canonical RREF row times its pivot.
    """
    echelon: dict[int, dict[int, int]] = {}
    for v in rows:
        v = _reduce(_primitive(v), echelon)
        if v is not None:
            echelon[min(v)] = v
    out: dict[int, dict[int, int]] = {}
    for pc in sorted(echelon, reverse=True):
        v = _reduce(echelon[pc], out)
        out[pc] = v if v[pc] > 0 else {c: -x for c, x in v.items()}
    return dict(sorted(out.items()))


def _dense(row: dict[int, int], pc: int, n: int) -> list[Fraction]:
    """The RREF row of a primitive integer row with pivot column pc, dense."""
    out = [ZERO] * n
    p = row[pc]
    for c, x in row.items():
        out[c] = Fraction(x, p)
    return out


def integer_inverse(rows) -> tuple[list[list[int]], int]:
    """M^-1 as integer rows over one positive denominator, read off the
    primitive rows p_k [e_k | row k of M^-1] of [M | I]'s elimination; the
    rows of M are dense or given by their nonzero entries."""
    n = len(rows)
    reduced = _rref_rows({**_row(row, n), n + i: 1} for i, row in enumerate(rows))
    if list(reduced)[:n] != list(range(n)):
        raise StructuralError("matrix is singular")
    den = lcm(*(row[k] for k, row in reduced.items()))
    return [[row.get(n + j, 0) * (den // row[k]) for j in range(n)]
            for k, row in reduced.items()], den


def _kernel_rows(rows: dict[int, dict[int, int]], ncols: int) -> list[dict]:
    """Kernel basis of an RREF matrix given by its primitive rows, one row
    per free column f: e_f minus the sum of row_k[f] / p_k e_(pivot k)."""
    kernel = {f: {f: 1} for f in range(ncols) if f not in rows}
    for pc, row in rows.items():
        p = row[pc]
        for c, x in row.items():
            if c != pc:
                kernel[c][pc] = Fraction(-x, p)
    return list(kernel.values())


class Subspace:
    """A linear subspace of QQ^n in canonical reduced-row-echelon form.

    Construction always re-reduces, so two subspaces are equal exactly when
    their ``basis`` grids are equal.  Rows come in dense or as dicts of
    their nonzero entries.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_rows")

    def __init__(self, ambient_dim: int, rows=None):
        self._rows = _rref_rows(_row(r, ambient_dim) for r in rows or ())
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(_dense(row, pc, ambient_dim)) for pc, row in self._rows.items())
        self.pivots = tuple(self._rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [{i: 1} for i in range(ambient_dim)])

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
        return _reduce(_primitive(_row(v, self.ambient_dim)), self._rows) is None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(list(r)) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace sum: ambient mismatch")
        return Subspace(self.ambient_dim, [*self._rows.values(), *other._rows.values()])

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace intersection: ambient mismatch")
        return annihilator(annihilator(self).sum(annihilator(other)))


def rref(m: Mat):
    """Reduced row echelon form of m.

    Returns ``(reduced, rank, kernel)`` where ``reduced`` has the same shape
    as ``m`` (zero rows kept), and ``kernel`` spans ``{x | m x = 0}``.
    """
    rows = _rref_rows(map(sparse, m.data))
    kernel = Subspace(m.cols, _kernel_rows(rows, m.cols))
    reduced = [_dense(row, pc, m.cols) for pc, row in rows.items()]
    reduced += [[ZERO] * m.cols for _ in range(m.rows - len(rows))]
    return Mat(reduced), len(rows), kernel


def rank(m: Mat) -> int:
    return len(_rref_rows(map(sparse, m.data)))


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
    return Subspace(s.ambient_dim, _kernel_rows(s._rows, s.ambient_dim))


def solve(m: Mat, rhs) -> list[Fraction] | None:
    """One exact solution of m x = rhs with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length != number of rows")
    rows = _rref_rows({**sparse(row), m.cols: QQ(r)} for row, r in zip(m.data, rhs))
    if m.cols in rows:
        return None
    x = [ZERO] * m.cols
    for pc, row in rows.items():
        x[pc] = Fraction(row.get(m.cols, 0), row[pc])
    return x


class PivotedSpan:
    """Incrementally grown span with pivot bookkeeping.

    Rows are primitive integer rows by pivot column, kept forward-reduced
    only (each row leads in its own pivot column and is zero in all earlier
    pivot columns), which makes insertion cheap; ``to_subspace``
    canonicalizes at the end.  Vectors come in dense or as dicts of their
    nonzero entries.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[dict[int, int]]:
        """The rows in increasing pivot order."""
        return [self._rows[pc] for pc in self.pivots]

    def contains(self, v) -> bool:
        return _reduce(_primitive(_row(v, self.ambient_dim)), self._rows) is None

    def add(self, v) -> bool:
        """Insert v; returns True when it enlarged the span."""
        res = _reduce(_primitive(_row(v, self.ambient_dim)), self._rows)
        if res is None:
            return False
        self._rows[min(res)] = res
        return True

    def add_all(self, vectors) -> bool:
        grew = False
        for v in vectors:
            grew |= self.add(v)
        return grew

    def to_subspace(self) -> Subspace:
        return Subspace(self.ambient_dim, self._rows.values())
