"""Finite dimensional modules over sl(n), built functorially.

A :class:`Rep` stores its action in one format: for each catalog generator,
the nonzero (row, entry) pairs of every column, integral entries as ints,
plus the weight of every coordinate when the coroots act diagonally.  Only
this module reads that format.  A module is given by its Chevalley
generators: derived constructions (dual, wedge and symmetric powers, tensor
products, and the symmetric square realized on symmetric matrices) build the
columns of the e_i, f_i, h_i straight from the parent's by the derivation
rule, so weights of the standard module propagate to integer weights
everywhere, and each other root vector is filled in as the bracket its step
relation in ``LieAlgebra.relations`` defines.  A module is checked on
construction to be a Lie algebra homomorphism: exactly over QQ, on those
relations (which decide it; a step relation is checked where its root vector
was given, and is its definition otherwise), with sparse products.  Dense
``Mat`` copies of the action are made only on request, through ``Rep.action``.

Weights are plain tuples of integers: the eigenvalues of the simple coroot
actions H_1, ..., H_{n-1}, read off the diagonal h columns of a constructed
module; any other is moved to a weight basis first (``Rep._weight_frame``,
bounded by the sl2-triples).  Cyclic closures are searched one weight space
at a time, since a submodule is the direct sum of its weight spaces.  An
isotypic component is the closure of its highest weight space under the
simple Y(i,i+1) alone: U(g).v = U(n-).v for a highest weight vector v, and
the simple f_i generate n- (PBW; Humphreys, Lie Algebras, 20.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, StructuralError
from .lie import LieAlgebra
from .linalg import (
    Coordinates,
    Mat,
    PivotedSpan,
    QQ,
    Subspace,
    annihilator,
    compact,
    primitive,
    rref,
    sparse,
    sym_pairs,
    vec_is_zero,
)

Weight = tuple[int, ...]

# standard modules keyed by n, derived ones by (parent Rep, kind, k, other)
_REP_CACHE: dict = {}
# isotypic decompositions keyed by the Rep object
_ISOTYPIC_CACHE: dict = {}


class Rep:
    """A finite-dimensional sl(n)-module given by the sparse columns of its action.

    ``action`` maps each Chevalley symbol, and perhaps other catalog symbols,
    to a square ``Mat`` (read once into columns) or to the columns themselves:
    ``columns[j]`` lists the (row, entry) pairs of the nonzero entries of
    column j.  Each other root vector is filled in from its step relation.
    """

    def __init__(self, algebra: LieAlgebra, label: str, action: dict,
                 basis_labels: list[str] | None = None, *, _checked: bool = False):
        self.algebra = algebra
        self.label = label
        if not set(algebra.chevalley) <= set(action) <= set(algebra.catalog):
            raise ValueError("action must cover the Chevalley generators within the catalog")
        self.columns = {s: _columns_of(m) if isinstance(m, Mat) else m
                        for s, m in action.items()}
        dims = {len(cols) for cols in self.columns.values()}
        if len(dims) != 1:
            raise DimensionMismatch("action matrices of mixed sizes")
        self.dim = dims.pop()
        self.basis_labels = basis_labels or [f"b{i}" for i in range(self.dim)]
        if len(self.basis_labels) != self.dim:
            raise DimensionMismatch(f"{len(self.basis_labels)} basis labels for dim {self.dim}")
        self._defined = set(algebra.catalog) - set(action)
        for a, b, _, s in algebra.relations:
            if s in self._defined:
                self.columns[s] = list(map(_emit, _commutator(self.columns[a], self.columns[b])))
        self.columns = {s: self.columns[s] for s in algebra.catalog}
        # the weight of each coordinate, when every coroot acts diagonally
        hs = [self.columns[s] for s in algebra.h_symbols()]
        if all(len(col) <= 1 and all(i == j for i, _ in col)
               for h in hs for j, col in enumerate(h)):
            self.weights = [tuple(h[j][0][1] if h[j] else 0 for h in hs)
                            for j in range(self.dim)]
        else:
            self.weights = None
        if not _checked:
            self.verify_homomorphism()

    def __repr__(self) -> str:
        return f"Rep({self.label} of {self.algebra}, dim {self.dim})"

    @cached_property
    def action(self) -> dict[str, Mat]:
        """The action as dense matrices, built on first use; treat as read-only."""
        out = {}
        for s, cols in self.columns.items():
            data = [[0] * self.dim for _ in range(self.dim)]
            for j, col in enumerate(cols):
                for i, e in col:
                    data[i][j] = e
            out[s] = Mat(data)
        return out

    def act(self, symbol: str, v: list[Fraction]) -> list[Fraction]:
        if len(v) != self.dim:
            raise DimensionMismatch("matrix-vector length mismatch")
        out = [QQ(0)] * self.dim
        for i, e in self.act_sparse(symbol, sparse(v)).items():
            out[i] = QQ(e)
        return out

    def act_sparse(self, symbol: str, v: dict) -> dict[int, Fraction | int]:
        """The nonzero entries of the image of v, given by its nonzero entries;
        integral entries of the action stay ints."""
        try:
            cols = self.columns[symbol]
        except KeyError:
            raise KeyError(f"unknown generator symbol {symbol!r}") from None
        return _apply(cols, v.items())

    def act_word(self, word, v: list[Fraction]) -> list[Fraction]:
        """Apply a word of generator symbols right-to-left (empty = identity)."""
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != module dimension")
        out = list(map(QQ, v))
        for symbol in reversed(list(word)):
            out = self.act(symbol, out)
        return out

    def verify_homomorphism(self) -> None:
        """Check rho([a,b]) = rho(a) rho(b) - rho(b) rho(a) exactly over QQ.

        On ``LieAlgebra.relations`` (but a step relation whose root vector was
        not given, which defines it), as strong as every pair: for each i
        they make (rho e_i, rho f_i, rho h_i) an sl2 acting on gl(V) by ad.
        For j != i, rho e_j is killed by ad rho f_i and has weight a_ij <= 0,
        so (ad rho e_i)^(1 - a_ij) rho e_j = 0, and likewise for rho f_j: the
        Serre relations hold (Humphreys, Lie Algebras, 18.1).  By Serre's
        theorem (18.3) rho on the e_i, f_i, h_i extends to a homomorphism phi,
        and the step relations give rho = phi by induction on height.
        Products run on the sparse columns, so no dense matrix is formed.  A
        failure is a construction bug and raises.
        """
        cols = self.columns
        for sa, sb, c, s in self.algebra.relations:
            if s not in self._defined and any(
                    any(col.values()) for col in _commutator(cols[sa], cols[sb], c, cols[s])):
                raise StructuralError(
                    f"action is not a Lie homomorphism on ({sa}, {sb}) in {self.label}")

    def sym_square(self) -> "Rep":
        """The module S^2(V) on symmetric matrices (memoized)."""
        return derived_rep(self, "sym2")

    @cached_property
    def _weight_frame(self):
        """(module, p, p_inv): this module in a basis of weight vectors, and the
        change to it, p given by its sparse columns.

        For a module whose coroots act diagonally this is (self, None, None).
        Otherwise the joint eigenspaces are split off one coroot at a time,
        each space cut by every ker(rho h_i - lam).  Each (rho e_i, rho f_i,
        rho h_i) is an sl2-triple (``verify_homomorphism``), so on a module of
        dimension d the eigenvalues of rho h_i are integers in [1 - d, d - 1]
        (Humphreys, Lie Algebras, 7.2).  The columns of p are the bases of the
        eigenspaces, and the module is this one conjugated by p.  Eigenspaces
        that do not exhaust the module flag a bug loudly.
        """
        if self.weights is not None:
            return self, None, None
        d = self.dim
        spaces, one = [Subspace.full(d)], Mat.identity(d)
        for s in self.algebra.h_symbols():
            kernels = [rref(self.action[s] - one.scale(lam))[2] for lam in range(1 - d, d)]
            spaces = [piece for space in spaces for k in kernels
                      if k.dim and (piece := space.intersect(k)).dim]
        if sum(space.dim for space in spaces) != d:
            raise StructuralError(f"coroot actions on {self.label} are not simultaneously "
                                  "diagonalizable over QQ with integer spectrum")
        p = Mat([list(row) for space in spaces for row in space.basis]).transpose()
        p_inv = p.inverse()
        action = {s: p_inv * self.action[s] * p for s in self.algebra.chevalley}
        return Rep(self.algebra, self.label, action, _checked=True), _columns_of(p), p_inv


def _columns_of(m: Mat) -> list[list[tuple[int, Fraction | int]]]:
    """The nonzero (row, entry) pairs of each column of a square matrix."""
    if m.rows != m.cols:
        raise DimensionMismatch("action matrices of mixed sizes")
    cols = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, e in enumerate(row):
            if e:
                cols[j].append((i, compact(e)))
    return cols


def _apply(cols, v) -> dict[int, Fraction | int]:
    """Sparse columns times a vector given as (coordinate, entry) pairs; the
    nonzero entries of the image."""
    out: dict[int, Fraction | int] = {}
    for j, x in v:
        for i, a in cols[j]:
            out[i] = out.get(i, 0) + a * x
    return {i: e for i, e in out.items() if e}


def _emit(accum: dict[int, Fraction | int]) -> list[tuple[int, Fraction | int]]:
    """One column from accumulated entries: the nonzero ones, by row."""
    return sorted((i, e) for i, e in accum.items() if e)


def _commutator(a, b, c=0, s=None):
    """Column by column, the entries of rho(a) rho(b) - rho(b) rho(a) - c rho(s)
    accumulated by row, zeros among them, from the sparse columns of rho(a),
    rho(b) and rho(s)."""
    for j in range(len(a)):
        accum: dict[int, Fraction | int] = {}
        for sign, left, right in ((1, a, b), (-1, b, a)):
            for k, f in right[j]:
                for i, e in left[k]:
                    accum[i] = accum.get(i, 0) + sign * e * f
        for i, e in s[j] if c else ():
            accum[i] = accum.get(i, 0) - c * e
        yield accum


# ---------------------------------------------------------------------------
# constructions, each from the parent's columns to the new module's columns

def standard_rep(g: LieAlgebra) -> Rep:
    if g.n not in _REP_CACHE:
        action = {s: g.generators[s] for s in g.chevalley}
        _REP_CACHE[g.n] = Rep(g, "std", action, [f"e{i + 1}" for i in range(g.n)], _checked=True)
    return _REP_CACHE[g.n]


def _dual_action(r: Rep):
    """-rho^t: column i of the dual lists row i of rho, negated."""
    action = {}
    for sym in r.algebra.chevalley:
        out = [[] for _ in range(r.dim)]
        for k, col in enumerate(r.columns[sym]):
            for i, e in col:
                out[i].append((k, -e))
        action[sym] = out
    return action, [f"{x}'" for x in r.basis_labels]


def _wedge_action(r: Rep, k: int):
    basis = list(itertools.combinations(range(r.dim), k))
    index = {b: i for i, b in enumerate(basis)}
    action = {}
    for sym in r.algebra.chevalley:
        cols, out = r.columns[sym], []
        for cidx, subset in enumerate(basis):
            accum: dict[int, Fraction | int] = {}
            for pos, s in enumerate(subset):
                for m, a in cols[s]:
                    if m == s:
                        accum[cidx] = accum.get(cidx, 0) + a
                        continue
                    if m in subset:
                        continue
                    rest = subset[:pos] + subset[pos + 1:]
                    new = tuple(sorted(rest + (m,)))
                    row = index[new]
                    sign = -1 if (pos - new.index(m)) % 2 else 1
                    accum[row] = accum.get(row, 0) + sign * a
            out.append(_emit(accum))
        action[sym] = out
    labels = ["^".join(r.basis_labels[i] for i in b) for b in basis]
    return action, labels


def _sym_action(r: Rep, k: int):
    basis = list(itertools.combinations_with_replacement(range(r.dim), k))
    index = {b: i for i, b in enumerate(basis)}
    action = {}
    for sym in r.algebra.chevalley:
        cols, out = r.columns[sym], []
        for mon in basis:
            accum: dict[int, Fraction | int] = {}
            for s in set(mon):
                mult = mon.count(s)
                pos = mon.index(s)
                rest = mon[:pos] + mon[pos + 1:]
                for m, a in cols[s]:
                    row = index[tuple(sorted(rest + (m,)))]
                    accum[row] = accum.get(row, 0) + mult * a
            out.append(_emit(accum))
        action[sym] = out
    labels = [".".join(r.basis_labels[i] for i in b) for b in basis]
    return action, labels


def _tensor_action(r1: Rep, r2: Rep):
    n2 = r2.dim
    action = {}
    for sym in r1.algebra.chevalley:
        a, b = r1.columns[sym], r2.columns[sym]
        out = []
        for i in range(r1.dim):
            for j in range(n2):
                accum: dict[int, Fraction | int] = {}
                for m, e in a[i]:
                    accum[m * n2 + j] = accum.get(m * n2 + j, 0) + e
                for m, e in b[j]:
                    accum[i * n2 + m] = accum.get(i * n2 + m, 0) + e
                out.append(_emit(accum))
        action[sym] = out
    labels = [f"{x}(x){y}" for x in r1.basis_labels for y in r2.basis_labels]
    return action, labels


def _sym2_action(r: Rep):
    """Action on S^2(V) realized as symmetric matrices, M -> rho M + M rho^t.

    This is sym^2 in other coordinates: the symmetric matrix M is the quadric
    x^t M x = sum over k <= m of c_km M_km x_k x_m, with c_km = 1 on the
    diagonal and 2 off it, so entry (i, j) of the sym^2 action is scaled by
    c_j / c_i.  The basis labels are the same.  An int entry stays an int:
    e c_j is even whenever c_i = 2, since for c_j = 1 the entry from a
    square x_l^2 to x_k x_m, k != m, is twice an entry of r's action (the
    product rule on x_l x_l).
    """
    action, labels = _sym_action(r, 2)
    c = [1 if k == m else 2 for k, m in sym_pairs(r.dim)]
    return {sym: [[(i, e * c[j] // c[i] if type(e) is int else compact(QQ(e * c[j], c[i])))
                   for i, e in col]
                  for j, col in enumerate(cols)]
            for sym, cols in action.items()}, labels


def derived_rep(r: Rep, kind: str, k: int | None = None, other: "Rep | None" = None) -> Rep:
    """Build dual / wedge k / sym k / tensor / sym2 of a module.

    Results are cached per (module object, kind, k, other), never by label,
    so a caller's module that shares a label with a built one gets its own
    answer; modules are immutable so sharing is safe.
    """
    g = r.algebra
    if kind == "dual":
        label = f"dual({r.label})"
        build = lambda: _dual_action(r)
    elif kind == "wedge":
        if k is None or not 1 <= k <= r.dim:
            raise ValueError(f"wedge degree {k} out of range 1..{r.dim}")
        label = f"wedge({k},{r.label})"
        build = lambda: _wedge_action(r, k)
    elif kind == "sym":
        if k is None or k < 1:
            raise ValueError(f"sym degree {k} must be >= 1")
        label = f"sym({k},{r.label})"
        build = lambda: _sym_action(r, k)
    elif kind == "tensor":
        if other is None or other.algebra.n != g.n:
            raise ValueError("tensor needs a second module over the same algebra")
        label = f"tensor({r.label},{other.label})"
        build = lambda: _tensor_action(r, other)
    elif kind == "sym2":
        label = f"sym2({r.label})"
        build = lambda: _sym2_action(r)
    else:
        raise ValueError(f"unknown construction {kind!r}")
    key = (r, kind, k, other)
    if key not in _REP_CACHE:
        action, labels = build()
        _REP_CACHE[key] = Rep(g, label, action, labels)
    return _REP_CACHE[key]


# ---------------------------------------------------------------------------
# weights

def weight_decomposition(r: Rep) -> list[tuple[Weight, Subspace]]:
    """Joint eigenspaces of the simple coroot actions, sorted by weight: the
    coordinates of each weight block of ``Rep._weight_frame``, mapped back
    through p (a diagonal coroot action gives one weight per coordinate)."""
    graded, p, _ = r._weight_frame
    return [(_as_int_weight(w, r),
             Subspace(r.dim, [{j: 1} if p is None else dict(p[j]) for j in block]))
            for w, block in sorted(_weight_blocks(graded.weights).items(), reverse=True)]


def _weight_blocks(weights) -> dict[Weight, list[int]]:
    """The coordinates of each weight, in increasing order."""
    blocks: dict[Weight, list[int]] = {}
    for j, mu in enumerate(weights):
        blocks.setdefault(mu, []).append(j)
    return blocks


def _as_int_weight(w, r: Rep) -> Weight:
    out = []
    for c in w:
        c = QQ(c)
        if c.denominator != 1:
            raise StructuralError(f"non-integer weight {w} in {r.label}")
        out.append(int(c))
    return tuple(out)


def weights_multiset(r: Rep) -> dict[Weight, int]:
    """Weight -> multiplicity map; the raw input of character-level oracles."""
    return {w: s.dim for w, s in weight_decomposition(r)}


def weight_of(r: Rep, v) -> Weight:
    """Weight of a weight vector; raises when v is not a joint eigenvector."""
    if vec_is_zero(v):
        raise ValueError("zero vector has no weight")
    lead = next(i for i, e in enumerate(v) if e)
    out = []
    for s in r.algebra.h_symbols():
        hv = r.act(s, v)
        lam = hv[lead] / v[lead]
        if hv != [lam * e for e in v]:
            raise ValueError("not a weight vector")
        out.append(lam)
    return _as_int_weight(tuple(out), r)


def highest_weight_vectors(r: Rep) -> list[tuple[Weight, Subspace]]:
    """For each weight, the subspace killed by every positive-root action.

    Killed by the simple e_i, as they generate n+.  Worked one weight block
    at a time in the weight basis of ``Rep._weight_frame``, where e_i sends
    coordinate j to column j of its action: the block's highest weight vectors
    are the annihilator of those columns' rows, mapped back through p if needed.
    Only a dominant block (no negative coroot eigenvalue) is worked: a
    highest weight vector of a finite-dimensional module has dominant weight.
    """
    graded, p, _ = r._weight_frame
    xs = [graded.columns[e] for e in r.algebra.chevalley[: r.algebra.n - 1]]
    out = []
    for w, block in sorted(_weight_blocks(graded.weights).items(), reverse=True):
        if min(w) < 0:
            continue
        # (generator, image coordinate) -> its entries by block coordinate
        rows: dict[tuple[int, int], dict[int, Fraction | int]] = {}
        for k, j in enumerate(block):
            for t, cols in enumerate(xs):
                for i, e in cols[j]:
                    rows.setdefault((t, i), {})[k] = e
        kernel = annihilator(Subspace(len(block), rows.values())).basis
        if kernel:
            vecs = [{block[k]: x for k, x in enumerate(row) if x} for row in kernel]
            if p is not None:
                vecs = [_apply(p, v.items()) for v in vecs]
            out.append((_as_int_weight(w, r), Subspace(r.dim, vecs)))
    return out


# ---------------------------------------------------------------------------
# cyclic modules and isotypic pieces

@dataclass
class ClosureResult:
    subspace: Subspace
    words: list[tuple[str, ...]]


def _graded_closure(r: Rep, starts, letters) -> tuple[Subspace, list[tuple[str, ...]]]:
    """The closure of the start vectors under the letters, with the words
    that grew it: breadth-first from the primitive integer multiple of each
    start, in the weight basis of ``Rep._weight_frame``, mapped back to r.

    Every vector is held as its nonzero coordinates, acted on through the
    sparse columns and split into its weight components, each reduced
    against a small echelon of its own weight space.  The pieces span the
    closure when it is a sum of weight spaces (the letters generate g, or
    the starts are weight vectors): each letter shifts every weight by one
    root, so it sends each component of a vector to that of its image.
    """
    graded, p, p_inv = r._weight_frame
    weights = graded.weights
    coords = _weight_blocks(weights)
    local = {j: k for block in coords.values() for k, j in enumerate(block)}
    spans = {mu: PivotedSpan(len(block)) for mu, block in coords.items()}

    def insert(v: dict[int, Fraction | int]) -> bool:
        parts: dict[Weight, dict[int, Fraction | int]] = {}
        for j, x in v.items():
            parts.setdefault(weights[j], {})[local[j]] = x
        grew = False
        for mu, part in parts.items():
            grew |= spans[mu].add(part)
        return grew

    words: list[tuple[str, ...]] = []
    frontier = []
    for w in starts:
        start = primitive(sparse(w if p_inv is None else p_inv.apply(w)))
        if start is not None and insert(start):
            frontier.append((start, ()))
    while frontier:
        fresh = []
        for v, word in frontier:
            for sym in letters:
                u = _apply(graded.columns[sym], v.items())
                if insert(u):
                    new_word = (sym,) + word
                    words.append(new_word)
                    fresh.append((u, new_word))
        frontier = fresh
    rows = [{coords[mu][k]: x for k, x in row.items()}
            for mu, span in spans.items() for row in span.rows]
    if p is not None:
        rows = [_apply(p, row.items()) for row in rows]
    return Subspace(r.dim, rows), words


def cyclic_closure(r: Rep, w) -> ClosureResult:
    """Smallest action-invariant subspace containing w, with provenance words.

    Breadth-first span growth over the X/Y generators, in ``xy_symbols()``
    order (the coroots are their brackets, so invariance under them
    follows), graded by weight in ``_graded_closure``.  Each recorded word,
    read left to right and applied right-to-left, sends w to a vector with a
    component that enlarged its weight space's span when it was found.

    The search starts from c w, the primitive integer multiple of w (c > 0).
    Every vector met is then c times the one met from w, and a nonzero
    multiple enlarges a span exactly when the vector does, so the spans and
    the words are those of w; but under an integral action every entry
    stays an int, so no ``Fraction`` arithmetic runs.  The span is returned
    as one RREF ``Subspace``, which is canonical.
    """
    if len(w) != r.dim:
        raise DimensionMismatch("vector length != ambient dimension")
    return ClosureResult(*_graded_closure(r, [w], r.algebra.xy_symbols()))


def cyclic_module(r: Rep, w) -> Subspace:
    return cyclic_closure(r, w).subspace


def dominance_height(n: int, w: Weight) -> Fraction:
    """Coefficient sum of w written in the simple-root basis: column j of the
    inverse A_{n-1} Cartan matrix sums to j (n - j) / 2 (j from 1)."""
    return Fraction(sum(c * j * (n - j) for j, c in enumerate(w, 1)), 2)


@dataclass
class IsotypicComponent:
    weight: Weight
    multiplicity: int
    subspace: Subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass
class IsotypicDecomposition:
    """Components from the dominant end down, and whether each occurs once.
    ``coordinates``, the one elimination over their rows, lives and is
    dropped with the decomposition's entry in the isotypic cache."""

    components: list[IsotypicComponent]
    multiplicity_free: bool

    def dims(self) -> list[int]:
        return [c.dim for c in self.components]

    @cached_property
    def coordinates(self) -> Coordinates:
        """Coordinates on the integer RREF rows of the components, in order:
        row k of component i is row dim(0) + ... + dim(i - 1) + k."""
        return Coordinates([row for c in self.components for row in c.subspace._rows.values()],
                           self.components[0].subspace.ambient_dim)


def isotypic_decomposition(r: Rep) -> IsotypicDecomposition:
    """One component per highest weight, sorted from the dominant end down.

    Each component is the closure of that weight's highest weight space
    under the simple lowering operators Y(i,i+1): for a highest weight
    vector v, U(g).v = U(n-).v, and n- is generated by the simple f_i (PBW;
    Humphreys, Introduction to Lie Algebras, 20.2).  Components must be
    independent and exhaust the module (semisimplicity); any violation
    aborts, as it can only be a bug.  The result is memoized per module
    object; treat it as read-only.
    """
    if r in _ISOTYPIC_CACHE:
        return _ISOTYPIC_CACHE[r]
    lowering = r.algebra.chevalley[r.algebra.n - 1: 2 * r.algebra.n - 2]
    comps = [IsotypicComponent(w, hw_space.dim,
                               _graded_closure(r, hw_space.basis, lowering)[0])
             for w, hw_space in highest_weight_vectors(r)]
    total = PivotedSpan(r.dim)
    total.add_all(row for c in comps for row in c.subspace._rows.values())
    dim_sum = sum(c.dim for c in comps)
    if r.dim and (total.dim != r.dim or dim_sum != r.dim):
        raise StructuralError(
            f"isotypic components of {r.label} sum to {dim_sum} (span {total.dim}) "
            f"!= {r.dim}; module is not exhausted")
    comps.sort(key=lambda c: (-dominance_height(r.algebra.n, c.weight), c.weight))
    decomp = IsotypicDecomposition(comps, all(c.multiplicity == 1 for c in comps))
    _ISOTYPIC_CACHE[r] = decomp
    return decomp


def exp_act(r: Rep, symbol: str, t, v) -> list[Fraction]:
    """exp(t rho(symbol)) v, exactly: the sum of t^k/k! rho(symbol)^k v, which
    ends because X/Y generators act nilpotently."""
    if symbol.startswith("H"):
        raise ValueError(f"{symbol} is not nilpotent; only X/Y generators allowed")
    if len(v) != r.dim:
        raise DimensionMismatch("vector length != module dimension")
    t = QQ(t)
    out = list(map(QQ, v))
    power = sparse(out)
    coeff = QQ(1)
    for k in range(1, r.dim + 2):
        power = r.act_sparse(symbol, power)
        if not power:
            return out
        coeff = coeff * t / k
        for i, e in power.items():
            out[i] += coeff * e
    raise StructuralError(f"action of {symbol} on {r.label} is not nilpotent")


def exp_nilpotent(r: Rep, symbol: str, t) -> Mat:
    """Exact exponential of t times a nilpotent generator action, as a matrix
    whose column j is ``exp_act`` of the j-th unit vector."""
    cols = [exp_act(r, symbol, t, [int(i == j) for i in range(r.dim)]) for j in range(r.dim)]
    return Mat([[col[i] for col in cols] for i in range(r.dim)])
