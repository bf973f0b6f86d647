"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, denominator positive),
matrices are dense row-major grids, and subspaces are kept in reduced row
echelon form so that equality of subspaces is equality of basis matrices.
Everything is exact; there are no tolerances anywhere in this package.

A row is a dict of its nonzero entries by column, the form in which the
module action returns its images.  Dense rows come in only at the public
edges (``Subspace``, ``PivotedSpan.add``, the ``contains`` methods,
``rref``, ``rank``, ``solve``, ``augmented_rref``, ``Coordinates``) and go
out only as ``Subspace.basis`` (built on first read) and ``Mat`` grids.

Every row operation in the package happens in three functions here:

- ``_rref_rows``, the one Gauss-Jordan elimination, behind ``Subspace``,
  ``rref``, ``rank`` and ``augmented_rref``, which reduces rows augmented
  by unit columns, so each reduced row carries the combination of input
  rows it came from (coordinates on fixed rows, and the relations among
  rows);
- ``_reduce``, which clears the pivot columns of a row against echelon
  rows, behind ``Subspace.contains``, ``PivotedSpan`` and the rank-limited
  pass of ``augmented_rref``;
- ``_kernel_rows``, which reads a kernel basis off a reduced matrix, behind
  ``rref`` and ``annihilator``.

The first two work fraction-free (Bareiss, Math. Comp. 22, 1968) on the
primitive integer multiple of each row, made by ``primitive`` (an all-int
row needs only its gcd, no lcm of denominators): a row operation is
a * row - b * pivot_row with a, b coprime, then division by the row's gcd.
``_reduce`` does this in one copy of the row, updated in place: it
multiplies only when a != 1, touches only the nonzero entries and deletes
those that cancel, so every residue is primitive and no row it was given
changes.  The RREF of a row space is unique, so the answer is the canonical
one that elimination over the rationals gives.  A span of full dimension
answers ``PivotedSpan.add`` and the ``contains`` methods at once.

Coordinates on fixed rows are read in one class, ``Coordinates``: one
rank-limited ``augmented_rref`` of the rows, then each target's coordinates
on the lex-earliest independent rows, or None.  ``solve`` (on m's columns),
``Mat.inverse`` (unit targets), the correspondence tables of ``orbit`` and
the isotypic supports of ``chordal`` are built on it.

All values are treated as immutable after construction and all operations are
pure, so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionMismatch, SpecParseError, StructuralError

Scalar = Fraction

QQ = Fraction  # short constructor alias used throughout the package

ZERO = QQ(0)
ONE = QQ(1)


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal ``"p/q"`` or ``"p"``, signed or not, in ASCII
    digits; ``Fraction`` alone also reads exponents, slowly (``1e10000000``)."""
    try:
        if not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", text):
            raise ValueError(text)
        return Fraction(text)
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
        self.data = [[e if isinstance(e, Fraction) else Fraction(e) for e in row]
                     for row in data]
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
        coords = Coordinates(self.data, self.cols)
        inv = [coords.of({j: 1}) for j in range(self.rows)]  # e_j on the rows
        if None in inv:
            raise StructuralError("matrix is singular")
        return Mat([[row.get(i, ZERO) for i in range(self.rows)] for row in inv])

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), ZERO)


# ---------------------------------------------------------------------------
# symmetric-square coordinates
#
# S^2(QQ^n) has one coordinate per index pair (k, l), k <= l, listed by
# ``sym_pairs``: the matrix entry M_kl of a symmetric matrix M, so y y^t has
# the coordinates y_k y_l (``yy_coords``).  A functional on these
# coordinates is the full trace pairing with a symmetric matrix whose
# off-diagonal entries are halved, since M_kl appears twice in M.

def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (k, l) with k <= l, in lexicographic order."""
    return [(k, l) for k in range(n) for l in range(k, n)]


def sym_square(x) -> Mat:
    """The symmetric matrix x x^t."""
    return Mat([[a * b for b in x] for a in x])


def yy_coords(y) -> list[Fraction | int]:
    """Matrix-entry coordinates of y y^t, integral ones as ints, as in
    ``sparse``: an all-int y makes no ``Fraction``."""
    y = [e if type(e) is int else compact(QQ(e)) for e in y]
    return [compact(y[k] * y[l]) for k, l in sym_pairs(len(y))]


def sym_coords_to_mat(coords, n: int) -> Mat:
    m = Mat.zero(n, n)
    for (k, l), c in zip(sym_pairs(n), coords, strict=True):
        m.data[k][l] = m.data[l][k] = QQ(c)
    return m


def sym_rank_one(coords, n: int) -> tuple[int, list[Fraction] | None]:
    """The rank of the symmetric matrix M with coordinates ``coords`` and, at
    rank one, its factor u with first nonzero coordinate 1.  For M_ii the
    first nonzero diagonal entry, rank M <= 1 exactly when M_kl M_ii = M_ik
    M_il for all k <= l, and u_k = M_ik / M_ii; a nonzero M with a zero
    diagonal has rank >= 2.  The exact rank is computed only above one."""
    pairs = sym_pairs(n)
    i = next((k for (k, l), x in zip(pairs, coords) if k == l and x), None)
    if i is not None:
        col = [x for kl, x in zip(pairs, coords) if i in kl]  # M_0i, ..., M_ii, ..., M_i(n-1)
        if all(x * col[i] == col[k] * col[l] for (k, l), x in zip(pairs, coords)):
            return 1, [Fraction(x, col[i]) for x in col]
    return (rank(sym_coords_to_mat(coords, n)) if any(coords) else 0), None


# ---------------------------------------------------------------------------
# row reduction
#
# A row is a dict of its nonzero entries by column.  Inside the kernel every
# row is primitive (integer entries with gcd 1), and echelon rows are held
# in a dict by pivot column, each row zero before its pivot.

def compact(x: Fraction | int) -> Fraction | int:
    """x, as an int when integral: exact, and much cheaper to multiply."""
    return x.numerator if x.denominator == 1 else x


def sparse(v) -> dict[int, Fraction | int]:
    """The nonzero entries of a dense vector by coordinate, integral ones as ints."""
    return {j: compact(x) for j, x in enumerate(v) if x}


def _row(v, n: int) -> dict:
    """v as a row: a dict as it is, a dense vector of length n by its nonzero entries."""
    if isinstance(v, dict):
        return v
    if len(v) != n:
        raise DimensionMismatch("vector length != ambient dimension")
    return sparse(v)


def integer_rows(rows) -> tuple[list[dict[int, int]], int]:
    """Rational rows, given as dicts of entries, as integer rows over one
    positive denominator, the lcm of the denominators of their entries."""
    den = lcm(*(e.denominator for row in rows for e in row.values()))
    return [{k: e.numerator * (den // e.denominator) for k, e in row.items()}
            for row in rows], den


def primitive(row: dict) -> dict[int, int] | None:
    """The primitive integer multiple of a rational row, or None when it is
    zero; always a new dict.  An all-int row needs only its gcd."""
    if all(type(e) is int for e in row.values()):
        out = {c: e for c, e in row.items() if e}
        if not out:
            return None
    else:
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
    only touches columns >= p.  The work happens in one copy of v, so
    neither v nor any row is changed."""
    if v is None:
        return None
    todo = [c for c in v if c in rows]
    if not todo:
        return v
    heapify(todo)
    v = dict(v)
    while todo:
        pc = heappop(todo)
        f = v.get(pc)
        if f is None:
            continue
        row = rows[pc]
        p = row[pc]
        g = gcd(p, f)
        a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
        if a != 1:
            for c in v:
                v[c] *= a
        for c, y in row.items():
            x = v.get(c)
            if x is None:
                v[c] = -b * y
                if c in rows:
                    heappush(todo, c)
            elif x := x - b * y:
                v[c] = x
            else:
                del v[c]
        if not v:
            return None
        g = gcd(*v.values())
        if g != 1:
            for c in v:
                v[c] //= g
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
        v = _reduce(primitive(v), echelon)
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


def augmented_rref(rows, ncols: int, limit: int | None = None) -> dict[int, dict[int, int]]:
    """The primitive integer RREF rows, by pivot column, of the rows
    [r_i | e_i]: r_i dense or by its nonzero entries below column ncols, e_i
    the unit vector at column ncols + i.  A row with pivot c < ncols is
    [p R | E], R the RREF row of the r's with pivot c and p R = sum_i E_i r_i;
    the rows with pivots from ncols on are the RREF of the relations
    {E | sum_i E_i r_i = 0}.  With ``limit``, a row dependent on the rows kept
    before it is dropped and the elimination stops once ``limit`` are kept,
    so every E lies on the lex-earliest independent rows."""
    augmented = ({**_row(r, ncols), ncols + i: 1} for i, r in enumerate(rows))
    if limit is None:
        return _rref_rows(augmented)
    kept: dict[int, dict[int, int]] = {}
    for v in augmented:
        v = _reduce(primitive(v), kept)
        if min(v) < ncols:
            kept[min(v)] = v
            if len(kept) == limit:
                break
    return _rref_rows(kept.values())


class Coordinates:
    """Coordinates of targets on fixed rows (dense or by their nonzero
    entries below ``ncols``), read off one ``augmented_rref`` with ``limit``
    (their rank when known, else ``ncols``): each kept row [p R | E] has p R
    = E . rows with E on the lex-earliest independent rows.  For an integer
    target T / t in their span, the sum over pivots c of T_c L / p_c [p_c R_c
    | E_c] is [L T | S], L the lcm of the pivots, and x = S / (L t) is full
    row reduction's solution with free variables at zero."""

    __slots__ = ("ncols", "_rows", "_lcm")

    def __init__(self, rows, ncols: int, limit: int | None = None):
        self.ncols = ncols
        self._rows = augmented_rref(rows, ncols, ncols if limit is None else limit)
        self._lcm = lcm(*(row[c] for c, row in self._rows.items()))

    def of(self, target) -> dict[int, Fraction] | None:
        """The nonzero coefficients x_i by row index with sum x_i row_i =
        target (dense or by its nonzero entries), checked on every
        coordinate, or None when the target is outside the span."""
        (tgt,), t = integer_rows([{c: x for c, x in _row(target, self.ncols).items() if x}])
        n, big, rows = self.ncols, self._lcm, self._rows
        acc: defaultdict[int, int] = defaultdict(int)
        for c, x in tgt.items():
            if c in rows:
                f = x * (big // rows[c][c])
                for k, e in rows[c].items():
                    acc[k] += f * e
        if {k: e for k, e in acc.items() if k < n and e} != {c: big * x for c, x in tgt.items()}:
            return None
        return {k - n: Fraction(e, big * t) for k, e in acc.items() if k >= n and e}


def _in_span(v, rows: dict[int, dict[int, int]], n: int) -> bool:
    """Whether v (dense of length n, or by its nonzero entries) lies in the
    span of echelon rows in QQ^n; at once True when they span it all."""
    v = _row(v, n)
    return len(rows) == n or _reduce(primitive(v), rows) is None


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

    Construction always re-reduces and keeps the primitive integer RREF rows,
    which are unique (positive pivot, gcd 1), so two subspaces are equal
    exactly when their rows are.  Rows come in dense or as dicts of their
    nonzero entries; ``basis``, the RREF rows dense, is built on first read.
    """

    __slots__ = ("ambient_dim", "pivots", "_rows", "_basis")

    def __init__(self, ambient_dim: int, rows=None):
        self._rows = _rref_rows(_row(r, ambient_dim) for r in rows or ())
        self.ambient_dim = ambient_dim
        self.pivots = tuple(self._rows)
        self._basis = None

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._basis is None:
            self._basis = tuple(tuple(_dense(row, pc, self.ambient_dim))
                                for pc, row in self._rows.items())
        return self._basis

    def basis_row(self, k: int) -> list[Fraction]:
        """``basis[k]`` as a list, built alone."""
        pc = self.pivots[k]
        return _dense(self._rows[pc], pc, self.ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [{i: 1} for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"

    def contains(self, v) -> bool:
        return _in_span(v, self._rows, self.ambient_dim)

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return all(self.contains(r) for r in other._rows.values())

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


def rank(m) -> int:
    """The rank of a ``Mat`` or of a list of dense rows of ints or rationals."""
    return len(_rref_rows(map(sparse, m.data if isinstance(m, Mat) else m)))


def annihilator(s: Subspace) -> Subspace:
    """All functionals (in dual coordinates) vanishing on s.

    dim s + dim annihilator(s) = ambient, and the map is an involution.
    """
    return Subspace(s.ambient_dim, _kernel_rows(s._rows, s.ambient_dim))


def solve(m: Mat, rhs) -> list[Fraction] | None:
    """One exact solution of m x = rhs with free variables set to 0, the
    coordinates of rhs on m's columns, or None when it is inconsistent."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length != number of rows")
    x = Coordinates(zip(*m.data), m.rows).of(list(map(QQ, rhs)))
    return None if x is None else [x.get(j, ZERO) for j in range(m.cols)]


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
        return _in_span(v, self._rows, self.ambient_dim)

    def add(self, v) -> bool:
        """Insert v; returns True when it enlarged the span, at once False
        when the span is already full."""
        v = _row(v, self.ambient_dim)
        if len(self._rows) == self.ambient_dim:
            return False
        res = _reduce(primitive(v), self._rows)
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
