"""Multi-index boxes, multi-vectors and multi-matrices, and the catalecticant
calculus: the convolution product mu, the mu image of a product of
subspaces of a box space, the conjugation phi_A, and projective rank-one
factorization.

A multi-vector on the box N is the coefficient table of a polynomial in r
variables with per-variable degree bounds N_1..N_r, held by its nonzero
coefficients by position; mu(f.g) is literally the coefficient table of the
product polynomial f*g, so mu(v.v) is the square of v.  ``convolve`` is the
one product of coefficient tables: mu and certify's products of im A^t
both read it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import DimensionMismatch, RankOneError
from .linalg import (
    Mat,
    QQ,
    Subspace,
    format_scalar,
    parse_scalar,
    sym_pairs,
    sym_rank_one,
)


class Box:
    """The multi-index set {i | 0 <= i_k <= N_k}, enumerated lexicographically:
    i sits at sum_k i_k stride_k, stride_k the product of N_l + 1 over l > k.
    """

    __slots__ = ("N", "r", "size", "strides")

    def __init__(self, bounds):
        self.N = tuple(int(b) for b in bounds)
        if any(b < 0 for b in self.N):
            raise ValueError(f"box bounds must be >= 0, got {self.N}")
        self.r = len(self.N)
        self.strides = tuple(prod(n + 1 for n in self.N[k + 1:]) for k in range(self.r))
        self.size = prod(n + 1 for n in self.N)

    def indices(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(b + 1) for b in self.N)))

    def index(self, pos: int) -> tuple[int, ...]:
        """The index at a position: its mixed-radix digits."""
        return tuple(pos // s % (n + 1) for n, s in zip(self.N, self.strides))

    def position(self, idx) -> int:
        if idx not in self:
            raise IndexError(f"{tuple(idx)} outside box {self.N}")
        return sum(i * s for i, s in zip(idx, self.strides))

    def __contains__(self, idx) -> bool:
        idx = tuple(idx)
        return len(idx) == self.r and all(0 <= i <= n for i, n in zip(idx, self.N))

    def doubled_offsets(self) -> list[int]:
        """The position of each index, in lexicographic order, under the
        doubled box's strides: i + j sits at off(i) + off(j) in the doubled box."""
        offsets = [0]
        for n, s in zip(self.N, self.doubled().strides):
            offsets = [o + e * s for o in offsets for e in range(n + 1)]
        return offsets

    def doubled(self) -> "Box":
        return Box(tuple(2 * b for b in self.N))

    def halved(self) -> "Box":
        if any(b % 2 for b in self.N):
            raise ValueError(f"box {self.N} is not of the form 2N")
        return Box(tuple(b // 2 for b in self.N))

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and self.N == other.N

    def __hash__(self):
        return hash(self.N)

    def __repr__(self) -> str:
        return f"Box{self.N}"


@dataclass(frozen=True)
class MultiVector:
    """A function from a box to QQ: its nonzero values by position, built by
    ``from_sparse``, so two multi-vectors are equal when their values are."""

    box: Box
    coeffs: dict[int, Fraction]

    @staticmethod
    def from_entries(box: Box, entries) -> "MultiVector":
        entries = list(entries)
        if len(entries) != box.size:
            raise DimensionMismatch("data length != box size")
        return MultiVector.from_sparse(box, dict(enumerate(entries)))

    @staticmethod
    def from_sparse(box: Box, entries: dict) -> "MultiVector":
        """The multi-vector with the given entries by position, zero elsewhere."""
        for p in entries:
            if not 0 <= p < box.size:
                raise IndexError(f"position {p} outside box {box.N}")
        return MultiVector(box, {p: QQ(e) for p, e in entries.items() if e})

    @staticmethod
    def zero(box: Box) -> "MultiVector":
        return MultiVector.from_sparse(box, {})

    @staticmethod
    def basis(box: Box, idx) -> "MultiVector":
        return MultiVector.from_sparse(box, {box.position(idx): 1})

    @property
    def data(self) -> tuple[Fraction, ...]:
        """Every value, in lexicographic index order."""
        return tuple(self.coeffs.get(p, QQ(0)) for p in range(self.box.size))

    def __getitem__(self, idx) -> Fraction:
        return self.coeffs.get(self.box.position(idx), QQ(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "MultiVector") -> "MultiVector":
        if self.box != other.box:
            raise DimensionMismatch("multi-vector addition: box mismatch")
        f, g = self.coeffs, other.coeffs
        return MultiVector.from_sparse(self.box, {p: f.get(p, 0) + g.get(p, 0) for p in f | g})

    def scale(self, c) -> "MultiVector":
        c = QQ(c)
        return MultiVector.from_sparse(self.box, {p: c * a for p, a in self.coeffs.items()})

    def to_json(self) -> dict:
        return {"N": list(self.box.N), "data": [format_scalar(e) for e in self.data]}

    @staticmethod
    def from_json(doc: dict) -> "MultiVector":
        box = Box(doc["N"])
        return MultiVector.from_entries(box, [parse_scalar(s) for s in doc["data"]])


class MultiMatrix(Mat):
    """A ``Mat`` whose rows and/or columns are indexed by a box."""

    __slots__ = ("row_box", "col_box")

    def __init__(self, data, row_box: Box | None = None, col_box: Box | None = None):
        super().__init__(data)
        if row_box is not None and row_box.size != self.rows:
            raise DimensionMismatch("row box size != number of rows")
        if col_box is not None and col_box.size != self.cols:
            raise DimensionMismatch("column box size != number of columns")
        self.row_box = row_box
        self.col_box = col_box

    @staticmethod
    def identity_on_box(box: Box) -> "MultiMatrix":
        return MultiMatrix(Mat.identity(box.size).data, box, box)

    def entry(self, i, j) -> Fraction:
        r = self.row_box.position(i) if self.row_box else int(i)
        c = self.col_box.position(j) if self.col_box else int(j)
        return self.data[r][c]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiMatrix)
            and self.row_box == other.row_box
            and self.col_box == other.col_box
            and super().__eq__(other)
        )

    def __add__(self, other: "MultiMatrix") -> "MultiMatrix":
        if (self.row_box, self.col_box) != (other.row_box, other.col_box):
            raise DimensionMismatch("multi-matrix addition: box mismatch")
        return MultiMatrix(super().__add__(other).data, self.row_box, self.col_box)

    def __mul__(self, other: "MultiMatrix") -> "MultiMatrix":
        if self.col_box != other.row_box:
            raise DimensionMismatch("multi-matrix product: inner spaces differ")
        return MultiMatrix(super().__mul__(other).data, self.row_box, other.col_box)

    def transpose(self) -> "MultiMatrix":
        return MultiMatrix(super().transpose().data, self.col_box, self.row_box)

    def as_mat(self) -> Mat:
        return Mat(self.data)

    def row_space(self) -> Subspace:
        """Span of the rows, i.e. the image of the transpose."""
        return Subspace(self.cols, self.data)


# ---------------------------------------------------------------------------
# catalecticants

def catalecticant(b: MultiVector) -> MultiMatrix:
    """The box-square multi-matrix B with B_ij = b_(i+j); b must live on a
    box of the form 2N, and B on N x N."""
    box = b.box.halved()
    offsets = box.doubled_offsets()
    return MultiMatrix([[b.coeffs.get(p + q, QQ(0)) for q in offsets] for p in offsets],
                       box, box)


def catalecticant_to_vector(m: MultiMatrix) -> MultiVector:
    """Recover the unique defining vector of a catalectic multi-matrix.

    Every index of the doubled box splits as i + j with i, j in the box
    (componentwise min with N gives one such split), and entry (i, j) lands
    at off(i) + off(j); consistency across all splits is validated.
    """
    if m.row_box is None or m.row_box != m.col_box:
        raise DimensionMismatch("not a box-square multi-matrix")
    offsets = m.row_box.doubled_offsets()
    data = {}
    for p, row in zip(offsets, m.data):
        for q, e in zip(offsets, row):
            if data.setdefault(p + q, e) != e:
                raise ValueError("multi-matrix is not catalectic")
    return MultiVector.from_sparse(m.row_box.doubled(), data)


# ---------------------------------------------------------------------------
# the convolution mu and symmetric squares of box spaces

def convolve(f: dict, g: dict, offset) -> dict:
    """The product of two coefficient tables given by their nonzero entries
    by position: the entries at p and q meet at offset[p] + offset[q], the
    doubled position of i_p + i_q."""
    out: defaultdict = defaultdict(int)
    for p, a in f.items():
        for q, c in g.items():
            out[offset[p] + offset[q]] += a * c
    return out


def mu(f: MultiVector, g: MultiVector) -> MultiVector:
    """Coefficient table of the product polynomial f*g, on the doubled box:
    i + j sits at off(i) + off(j) under the doubled box's strides."""
    if f.box != g.box:
        raise DimensionMismatch("mu needs both factors on the same box")
    return MultiVector.from_sparse(f.box.doubled(),
                                   convolve(f.coeffs, g.coeffs, f.box.doubled_offsets()))


def mu_image_span(box: Box, s1: Subspace, s2: Subspace) -> Subspace:
    """The span of mu(u.w) over the basis vectors u of s1 and w of s2."""
    if s1.ambient_dim != box.size or s2.ambient_dim != box.size:
        raise DimensionMismatch("subspaces must live on the box space")
    rows = [mu(MultiVector.from_entries(box, u), MultiVector.from_entries(box, w)).coeffs
            for u in s1.basis for w in s2.basis]
    return Subspace(box.doubled().size, rows)


# ---------------------------------------------------------------------------
# conjugation and rank-one factors

def phi_A(a: MultiMatrix, b: MultiMatrix) -> Mat:
    """The symmetric matrix A B A^t, for B a catalecticant."""
    if a.col_box != b.row_box:
        raise DimensionMismatch("column box of A must match the catalecticant box")
    return (a * b * a.transpose()).as_mat()


def rank_one_factor(m: Mat) -> list[Fraction]:
    """Projective factor of a symmetric matrix of rank one.

    Returns u with first nonzero coordinate 1 such that m is a scalar times
    u u^t.  The scalar is discarded: membership questions downstream are
    scale-invariant, and forcing a rational square root would be wrong.
    Raises RankOneError("zero") on the zero matrix, RankOneError("not rank
    one") when the rank is at least two, and RankOneError("not symmetric").
    """
    if m.rows != m.cols or m != m.transpose():
        raise RankOneError("not symmetric")
    rk, factor = sym_rank_one([m.data[k][l] for k, l in sym_pairs(m.rows)], m.rows)
    if factor is None:
        raise RankOneError("zero" if rk == 0 else "not rank one")
    return factor
