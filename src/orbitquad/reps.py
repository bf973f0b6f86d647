"""Finite dimensional modules over sl(n), built functorially.

A :class:`Rep` stores its action in one format: for each catalog generator,
the nonzero (row, entry) pairs of every column, integral entries as ints,
plus the weight of every coordinate when the coroots act diagonally.  Only
this module reads that format.  Derived constructions (dual, wedge and
symmetric powers, tensor products, and the symmetric square realized on
symmetric matrices) build their columns straight from the parent's columns
by the derivation rule, so weights of the standard module propagate to
integer weights everywhere.  A module is checked on construction to be a
Lie algebra homomorphism: exactly over QQ, on every generator pair, with
sparse products.  Dense ``Mat`` copies of the action are made only on
request, through ``Rep.action``.

Weights are plain tuples of integers: the eigenvalues of the simple coroot
actions H_1, ..., H_{n-1}.  Cyclic closures are searched one weight space
at a time, since a submodule is the direct sum of its weight spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DimensionMismatch, StructuralError
from .lie import LieAlgebra
from .linalg import (
    Mat,
    PivotedSpan,
    QQ,
    Subspace,
    annihilator,
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

    ``action`` maps every catalog symbol to either a square ``Mat`` (read
    once into columns) or the columns themselves: ``columns[j]`` lists the
    (row, entry) pairs of the nonzero entries of column j.
    """

    def __init__(self, algebra: LieAlgebra, label: str, action: dict,
                 basis_labels: list[str] | None = None, *, _checked: bool = False):
        self.algebra = algebra
        self.label = label
        self.columns = {s: _columns_of(m) if isinstance(m, Mat) else m
                        for s, m in action.items()}
        dims = {len(cols) for cols in self.columns.values()}
        if len(dims) != 1:
            raise DimensionMismatch("action matrices of mixed sizes")
        self.dim = dims.pop()
        self.basis_labels = basis_labels or [f"b{i}" for i in range(self.dim)]
        if set(action) != set(algebra.catalog):
            raise ValueError("action must cover exactly the generator catalog")
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

        Every unordered pair a < b of the catalog is checked, at every module
        size: the pair (a, a) reads 0 = 0 and (b, a) is the negative of (a, b).
        Products run on the sparse columns, so no dense matrix is formed.  A
        failure is a construction bug and raises.
        """
        cols = self.columns
        identity = [[(k, 1)] for k in range(self.dim)]
        for (sa, sb), ab in self.algebra.structure_constants.items():
            # (coefficient, left, right) of rho(a)rho(b) - rho(b)rho(a) - sum c_s rho(s)
            terms = [(1, cols[sa], cols[sb]), (-1, cols[sb], cols[sa])]
            terms += [(-_compact(c), cols[s], identity) for s, c in ab.items()]
            residual: dict[tuple[int, int], Fraction | int] = {}
            for c, left, right in terms:
                for j, col in enumerate(right):
                    for k, f in col:
                        for i, e in left[k]:
                            residual[i, j] = residual.get((i, j), 0) + c * e * f
            if any(residual.values()):
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
        Otherwise the columns of p are the bases of ``weight_decomposition``,
        in order, and the module is this one conjugated by p.
        """
        if self.weights is not None:
            return self, None, None
        p = Mat([list(row) for _, space in weight_decomposition(self)
                 for row in space.basis]).transpose()
        p_inv = p.inverse()
        action = {s: p_inv * m * p for s, m in self.action.items()}
        return Rep(self.algebra, self.label, action, _checked=True), _columns_of(p), p_inv


def _columns_of(m: Mat) -> list[list[tuple[int, Fraction | int]]]:
    """The nonzero (row, entry) pairs of each column of a square matrix."""
    if m.rows != m.cols:
        raise DimensionMismatch("action matrices of mixed sizes")
    cols = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, e in enumerate(row):
            if e:
                cols[j].append((i, _compact(e)))
    return cols


def _compact(x: Fraction) -> Fraction | int:
    """x, as an int when integral: exact, and much cheaper to multiply."""
    return x.numerator if x.denominator == 1 else x


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


# ---------------------------------------------------------------------------
# constructions, each from the parent's columns to the new module's columns

def standard_rep(g: LieAlgebra) -> Rep:
    if g.n not in _REP_CACHE:
        labels = [f"e{i + 1}" for i in range(g.n)]
        _REP_CACHE[g.n] = Rep(g, "std", dict(g.generators), labels, _checked=True)
    return _REP_CACHE[g.n]


def _dual_action(r: Rep):
    """-rho^t: column i of the dual lists row i of rho, negated."""
    action = {}
    for sym, cols in r.columns.items():
        out = [[] for _ in range(r.dim)]
        for k, col in enumerate(cols):
            for i, e in col:
                out[i].append((k, -e))
        action[sym] = out
    return action, [f"{x}'" for x in r.basis_labels]


def _wedge_action(r: Rep, k: int):
    basis = list(itertools.combinations(range(r.dim), k))
    index = {b: i for i, b in enumerate(basis)}
    action = {}
    for sym, cols in r.columns.items():
        out = []
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
    for sym, cols in r.columns.items():
        out = []
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
    for sym in r1.algebra.catalog:
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
    c_j / c_i.  The basis labels are the same.
    """
    action, labels = _sym_action(r, 2)
    c = [1 if k == m else 2 for k, m in sym_pairs(r.dim)]
    return {sym: [[(i, _compact(QQ(e * c[j], c[i]))) for i, e in col]
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


def act_word(r: Rep, word, v) -> list[Fraction]:
    return r.act_word(word, v)


# ---------------------------------------------------------------------------
# weights

def _integer_eigenvalue_candidates(h: Mat) -> list[int]:
    """All integers inside the Gershgorin discs of h."""
    import math

    lo, hi = None, None
    for i, row in enumerate(h.data):
        radius = sum((abs(e) for j, e in enumerate(row) if j != i), QQ(0))
        center = row[i]
        a, b = center - radius, center + radius
        lo = a if lo is None or a < lo else lo
        hi = b if hi is None or b > hi else hi
    if lo is None:
        return []
    return list(range(math.ceil(lo), math.floor(hi) + 1))


def weight_decomposition(r: Rep) -> list[tuple[Weight, Subspace]]:
    """Joint eigenspaces of the simple coroot actions, sorted by weight.

    The modules built here carry diagonal coroot actions, read off as one
    weight per coordinate; otherwise the integer spectrum is searched inside the
    Gershgorin bounds, refining the split one coroot at a time.  If the
    eigenspaces do not exhaust the module the actions were not
    simultaneously diagonalizable with integer spectrum, which flags a bug
    loudly.
    """
    n = r.dim
    spaces: list[tuple[Weight, Subspace]] = []
    if r.weights is not None:
        spaces = [(_as_int_weight(w, r), Subspace(n, [{j: 1} for j in block]))
                  for w, block in _weight_blocks(r.weights).items()]
    else:
        partial: list[tuple[tuple[int, ...], Subspace]] = [((), Subspace.full(n))]
        for h in (r.action[s] for s in r.algebra.h_symbols()):
            candidates = _integer_eigenvalue_candidates(h)
            refined = []
            for prefix, space in partial:
                covered = 0
                for lam in candidates:
                    if covered == space.dim:
                        break
                    shifted = Mat([[h.data[i][j] - (lam if i == j else 0)
                                    for j in range(n)] for i in range(n)])
                    piece = space.intersect(rref(shifted)[2])
                    if piece.dim:
                        covered += piece.dim
                        refined.append((prefix + (lam,), piece))
                if covered != space.dim:
                    raise StructuralError(
                        f"coroot action on {r.label} is not diagonalizable "
                        "over QQ with integer spectrum")
            partial = refined
        spaces = [(_as_int_weight(w, r), s) for w, s in partial]
    total = sum(s.dim for _, s in spaces)
    if total != n:
        raise StructuralError(
            f"weight spaces of {r.label} cover dim {total} != {n}; "
            "coroot actions are not simultaneously diagonalizable over QQ")
    spaces.sort(key=lambda ws: ws[0], reverse=True)
    return spaces


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

    Worked one weight block at a time in the weight basis of
    ``Rep._weight_frame``, where X sends e_j to column j of its action: the
    block's highest weight vectors are the annihilator of the rows of the
    matrix of those columns over all X, mapped back through p if needed.
    """
    graded, p, _ = r._weight_frame
    xs = [graded.columns[x] for x in r.algebra.x_symbols()]
    out = []
    for w, block in sorted(_weight_blocks(graded.weights).items(), reverse=True):
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


def _graded_closure(r: Rep, w):
    """Breadth-first closure of w in a module with diagonal coroots.

    Returns one ``PivotedSpan`` per weight, over the coordinates of that
    weight in increasing order, with the recorded words.
    """
    weights = r.weights
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

    start = sparse(w)
    words: list[tuple[str, ...]] = []
    if not insert(start):
        return spans, coords, words
    xy = r.algebra.xy_symbols()
    frontier = [(start, ())]
    while frontier:
        fresh = []
        for v, word in frontier:
            for sym in xy:
                u = _apply(r.columns[sym], v.items())
                if insert(u):
                    new_word = (sym,) + word
                    words.append(new_word)
                    fresh.append((u, new_word))
        frontier = fresh
    return spans, coords, words


def cyclic_closure(r: Rep, w) -> ClosureResult:
    """Smallest action-invariant subspace containing w, with provenance words.

    Breadth-first span growth over the X/Y generators, in ``xy_symbols()``
    order (the coroots are their brackets, so invariance under them
    follows).  The search is graded by weight: every vector is held as its
    nonzero coordinates, acted on through the sparse columns, and split into
    its weight components, and each component is reduced against a small
    echelon of its own weight space.  Each recorded word, read left to right
    and applied right-to-left, sends w to a vector with a component that
    enlarged its weight space's span when it was found.

    The weight pieces of all vectors met span the closure: a submodule is
    the direct sum of its weight spaces, and each X/Y generator shifts every
    weight by the same root, so it sends each component of a vector to the
    matching component of the image.  The pieces are assembled into one
    RREF ``Subspace``, which is canonical.  A module whose coroots are not
    diagonal is searched in the weight basis of ``Rep._weight_frame`` and the
    result mapped back.
    """
    if len(w) != r.dim:
        raise DimensionMismatch("vector length != ambient dimension")
    graded, p, p_inv = r._weight_frame
    spans, coords, words = _graded_closure(graded, w if p_inv is None else p_inv.apply(w))
    rows = [{coords[mu][k]: x for k, x in row.items()}
            for mu, span in spans.items() for row in span.rows]
    if p is not None:
        rows = [_apply(p, row.items()) for row in rows]
    return ClosureResult(Subspace(r.dim, rows), words)


def cyclic_module(r: Rep, w) -> Subspace:
    return cyclic_closure(r, w).subspace


@lru_cache(maxsize=None)
def _cartan_inverse(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the A_{n-1} Cartan matrix."""
    size = n - 1
    cartan = Mat([[QQ(2) if i == j else (QQ(-1) if abs(i - j) == 1 else QQ(0))
                   for j in range(size)] for i in range(size)])
    return tuple(tuple(row) for row in cartan.inverse().data)


def dominance_height(n: int, w: Weight) -> Fraction:
    """Coefficient sum of w written in the simple-root basis."""
    inv = _cartan_inverse(n)
    return sum((sum(row[j] * w[j] for j in range(len(w))) for row in inv), QQ(0))


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
    components: list[IsotypicComponent]
    multiplicity_free: bool

    def dims(self) -> list[int]:
        return [c.dim for c in self.components]


def isotypic_decomposition(r: Rep) -> IsotypicDecomposition:
    """One component per highest weight, sorted from the dominant end down.

    Each component is the sum of the cyclic modules of that weight's highest
    weight vectors.  Components must be independent and exhaust the module
    (semisimplicity); any violation aborts, as it can only be a bug.  The
    result is memoized per module object; treat it as read-only.
    """
    if r in _ISOTYPIC_CACHE:
        return _ISOTYPIC_CACHE[r]
    comps = []
    for w, hw_space in highest_weight_vectors(r):
        span = PivotedSpan(r.dim)
        for row in hw_space.basis:
            span.add_all(cyclic_module(r, list(row))._rows.values())
        comps.append(IsotypicComponent(w, hw_space.dim, span.to_subspace()))
    total = PivotedSpan(r.dim)
    dim_sum = 0
    for c in comps:
        dim_sum += c.dim
        total.add_all(c.subspace._rows.values())
    if r.dim and (total.dim != r.dim or dim_sum != r.dim):
        raise StructuralError(
            f"isotypic components of {r.label} sum to {dim_sum} (span {total.dim}) "
            f"!= {r.dim}; module is not exhausted")
    comps.sort(key=lambda c: (-dominance_height(r.algebra.n, c.weight), c.weight),
               reverse=False)
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
