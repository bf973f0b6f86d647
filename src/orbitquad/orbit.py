"""Quadric ideals of orbit closures and the rank-one correspondence.

For a module V and a nonzero y, the pipeline here computes the smallest
submodule of S^2(V) containing y y^t (the orbit module), its annihilator (the
degree-two ideal), a generator sequence D with multi-degree bound N such that
the monomials D^n(yy) span the orbit module, the multi-matrix A whose columns
are D^i y / i!, and the two directions of the correspondence between rank-one
conjugates A B A^t of catalecticants and points x with x x^t in the orbit
module.  ``certify_irreducibility`` runs the whole chain on seeded samples
and reports exact per-check verdicts.

For U = im A^t and a hyperplane W = ker psi of U, S^2 U / (W.U) = S^2(U/W)
is a line, so mu(W.U) has codimension 1 in mu(U.U) exactly when psi (x) psi
vanishes on ker(mu|S^2 U), and 0 otherwise (Iarrobino-Kanev, LNM 1721); the
products of U are reduced once per A and answer every hyperplane.

Degenerate observations that the theory leaves open are recorded rather than
judged: hyperplanes W whose product span has codimension 0 are counted, and
conjugates with phi_A(B) = 0 are logged (the zero matrix has no projective
rank-one factor, so it is excluded from the Veronese locus).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm, prod

from .errors import CapExceeded, StructuralError
from .linalg import (
    Mat,
    PivotedSpan,
    QQ,
    ZERO,
    Subspace,
    annihilator,
    format_scalar,
    integer_inverse,
    rank,
    sym_coords_to_mat,
    sym_pairs,
    sym_square,
    trace_pairing_mat,
    vec_is_zero,
    yy_coords,
)
from .multimatrix import (
    Box,
    MultiMatrix,
    MultiVector,
    rank_one_factor,
)
from .reps import ClosureResult, Rep, cyclic_closure, exp_act

MAX_BOX = 20000
MAX_SEQ_LEN = 40
_LEIBNIZ_SAMPLE = 200


_MODULE_CACHE: dict[tuple, ClosureResult] = {}


def _closure(r: Rep, y) -> ClosureResult:
    """The cyclic closure of y y^t in S^2(V), with its words, built once."""
    if vec_is_zero(y):
        raise ValueError("orbit module needs a nonzero vector")
    key = (r, tuple(map(QQ, y)))
    if key not in _MODULE_CACHE:
        _MODULE_CACHE[key] = cyclic_closure(r.sym_square(), yy_coords(y))
    return _MODULE_CACHE[key]


def orbit_module(r: Rep, y) -> Subspace:
    """Smallest submodule of S^2(V) containing y y^t, in symmetric coordinates."""
    return _closure(r, y).subspace


@dataclass
class QuadraticIdeal:
    """Degree-two ideal of the orbit closure of y.

    ``basis`` holds symmetric matrices Phi acting on S^2(V) through the full
    trace pairing <Phi, M> = sum_ij Phi_ij M_ij; evaluating the quadric at a
    point x is x^t Phi x.  ``dual_coords`` is the same space as an annihilator
    in plain symmetric coordinates.
    """

    rep: Rep
    module: Subspace
    dual_coords: Subspace
    basis: list[Mat]

    @property
    def dim(self) -> int:
        return self.dual_coords.dim

    def evaluate(self, k: int, x) -> Fraction:
        phi = self.basis[k]
        total = QQ(0)
        for i, row in enumerate(phi.data):
            for j, e in enumerate(row):
                if e:
                    total += e * x[i] * x[j]
        return total


def ideal_of_module(r: Rep, module: Subspace) -> QuadraticIdeal:
    """Annihilator of a submodule of S^2(V), as trace-pairing symmetric matrices."""
    dual = annihilator(module)
    basis = [trace_pairing_mat(row, r.dim) for row in dual.basis]
    return QuadraticIdeal(r, module, dual, basis)


def quadric_ideal(r: Rep, y, module: Subspace | None = None) -> QuadraticIdeal:
    """Degree-two ideal of the orbit closure of y."""
    if module is None:
        module = orbit_module(r, y)
    return ideal_of_module(r, module)


def my_membership(r: Rep, y, x) -> bool:
    """Whether x x^t lies in the orbit module of y (scale invariant in x)."""
    if vec_is_zero(y):
        raise ValueError("membership needs a nonzero reference vector")
    return orbit_module(r, y).contains(yy_coords(x))


# ---------------------------------------------------------------------------
# generator sequences

@dataclass(frozen=True)
class GenSeq:
    """Ordered generator symbols D with multi-degree box bound N.

    The guarantee, validated on construction: D^m y = 0 whenever any exponent
    exceeds its bound (with trailing exponents inside theirs), and the
    monomials D^n(yy) for n in the doubled box span the orbit module.  The
    symbols and the box are the whole value, so a sequence hashes by them.
    """

    symbols: tuple[str, ...]
    box: Box


def nilpotency_bound(r: Rep, symbols, u) -> Box:
    """Per-axis degree bounds after which the iterated action annihilates u.

    Recursive-maximum construction, from the last letter backwards: N_s is
    the largest exponent of D_s that leaves some already-bounded tail vector
    D_{s+1}^{i_{s+1}} ... D_r^{i_r} u alive.  D_s^k kills every tail vector
    exactly when it kills their span, so only a basis of the tail span is
    carried: T_r = span(u), and T_s = sum over k <= N_s of D_s^k T_{s+1},
    which contains T_{s+1}, so one span grows.
    """
    for s in symbols:
        if s.startswith("H"):
            raise ValueError(f"{s} is a coroot; the sequence needs nilpotent letters")
    tails = PivotedSpan(r.dim)
    tails.add(u)
    bounds = [0] * len(symbols)
    for s in range(len(symbols) - 1, -1, -1):
        frontier = list(map(_sparse, tails.rows))
        k = 0
        while frontier:
            frontier = [v for v in (r.act_sparse(symbols[s], v) for v in frontier) if v]
            if not frontier:
                break
            k += 1
            if k > r.dim:
                raise StructuralError(f"action of {symbols[s]} is not nilpotent")
            for v in frontier:
                tails.add_sparse(v)
        bounds[s] = k
    return Box(bounds)


def _sparse(v) -> dict[int, Fraction | int]:
    """The nonzero entries of a vector by coordinate, integral ones as ints."""
    return {j: x.numerator if x.denominator == 1 else x for j, x in enumerate(v) if x}


def _word_image(r: Rep, word, v: dict) -> dict:
    """A word of generator symbols applied right-to-left to v, sparse."""
    for symbol in reversed(list(word)):
        v = r.act_sparse(symbol, v)
    return v


def _normalized(r: Rep, symbols, box: Box, memo: dict, idx) -> dict:
    """D^idx v / idx! by its nonzero entries, memo holding v at position 0 and
    every entry built.

    D^idx = D_s D^prev for the first nonzero axis s and the lexicographic
    parent prev = idx - e_s, stride_s positions earlier.  With v = y these are
    the columns of A; with r's symmetric square and v = yy, D^n(yy) / n!.
    Quotients that divide stay ints.
    """
    idx = list(idx)
    pos = box.position(idx)
    path = []
    while pos not in memo:
        s = next(k for k, e in enumerate(idx) if e)
        path.append((pos, s, idx[s]))
        idx[s] -= 1
        pos -= box.strides[s]
    v = memo[pos]
    for pos, s, e in reversed(path):
        v = r.act_sparse(symbols[s], v)
        if e != 1:
            v = {i: c // e if not c % e else Fraction(c, e) for i, c in v.items()}
        memo[pos] = v
    return v


def _integer_rows(rows) -> tuple[list[dict[int, int]], int]:
    """Rational rows, given as dicts of entries, as integer rows over one
    positive denominator, the lcm of the denominators of their entries."""
    den = lcm(*(e.denominator for row in rows for e in row.values()))
    return [{k: e.numerator * (den // e.denominator) for k, e in row.items()}
            for row in rows], den


def _validate_vanishing(r: Rep, symbols, box: Box, y) -> None:
    """Exact check that raising any single exponent past its bound kills y."""
    y = _sparse(map(QQ, y))
    for j in range(len(symbols)):
        word = [sym for s, sym in enumerate(symbols)
                for _ in range(box.N[s] + (1 if s == j else 0))]
        if _word_image(r, word, y):
            raise StructuralError(
                f"nilpotency bound violated on axis {j}",
                {"symbols": list(symbols), "N": list(box.N)},
            )


def _monomial_span_dim(s2: Rep, symbols, box: Box, yy, target: int) -> int:
    """Dimension of the span of the D^n(yy) over the doubled box, or
    ``target`` once the span reaches it.

    The exponents range over a product set, so the span is S_1 of the nested
    suffix spans S_{r+1} = span(yy) and S_s = sum over a <= 2 N_s of
    D_s^a S_{s+1}.  Each S_s contains S_{s+1}, so one span grows, and D_s
    acts only on a basis of S_{s+1}: the cost follows the span, not the
    doubled box.
    """
    span = PivotedSpan(s2.dim)
    span.add(yy)
    for s in range(len(symbols) - 1, -1, -1):
        frontier = list(map(_sparse, span.rows))
        for _ in range(2 * box.N[s]):
            if span.dim == target:
                return target
            frontier = [v for v in (s2.act_sparse(symbols[s], v) for v in frontier) if v]
            for v in frontier:
                span.add_sparse(v)
    return span.dim


_GENSEQ_CACHE: dict[tuple, GenSeq] = {}


def generator_sequence(r: Rep, y, max_box: int | None = None) -> GenSeq:
    """Find (D, N) whose monomials applied to yy span the whole orbit module;
    ``CapExceeded`` of kind ``box`` when the accepted box exceeds ``max_box``
    (default ``MAX_BOX``).  The search is cached on what decides it, r and y.
    """
    if vec_is_zero(y):
        raise ValueError("generator sequence needs a nonzero vector")
    key = (r, tuple(map(QQ, y)))
    if key not in _GENSEQ_CACHE:
        _GENSEQ_CACHE[key] = _search_sequence(r, y)
    gs = _GENSEQ_CACHE[key]
    cap = MAX_BOX if max_box is None else max_box
    if gs.box.size > cap:
        raise CapExceeded("box", f"multi-degree box exceeds cap {cap}",
                          {"bounds": list(gs.box.N), "cap": cap})
    return gs


def _search_sequence(r: Rep, y) -> GenSeq:
    """The generator sequence of y, searched and pruned.

    Verification driven: start from all the lowering generators, measure the
    monomial span directly, and on a shortfall append the letters of the
    next closure word (the recorded provenance of the orbit module, read
    from the closure ``orbit_module`` caches), then single X/Y letters in
    ``xy_symbols()`` order, and retry, at most ``MAX_SEQ_LEN`` letters in
    all.  Then one pass from the last letter to the first drops each letter
    whose removal keeps the span contract, since every downstream cost is
    exponential in the sequence length.  Never returns a sequence whose span
    contract was not checked.  Each check measures nested suffix spans
    (``_monomial_span_dim``) and bounds the box on a basis of the tail span
    (``nilpotency_bound``), so it costs what the spans cost, never a walk
    over the box; no candidate box is capped.

    One pass is enough.  Let S' be S with some letters dropped, in the same
    order.  Every tail vector of S' in ``nilpotency_bound`` is a tail vector
    of S, so N'_s <= N_s.  Every monomial D'^n(yy)/n! with n <= 2N' is the
    S-monomial with zero exponents on the dropped letters.  So span(S') lies
    in span(S): a letter whose removal failed once still fails after later
    letters go.  For the same reason a candidate's box never exceeds its
    parent's, so pruning meets no non-nilpotent letter, and the accepted
    candidate's box is the final one.
    """
    s2 = r.sym_square()
    yy = yy_coords(y)
    closure = _closure(r, y)
    target = closure.subspace.dim
    # every closure word is a nonempty word in the X/Y letters
    words = chain(closure.words, ((sym,) for sym in r.algebra.xy_symbols()))
    symbols = list(r.algebra.y_symbols())
    while True:
        box = nilpotency_bound(r, symbols, y)
        span_dim = _monomial_span_dim(s2, symbols, box, yy, target)
        if span_dim == target:
            break
        fresh = next(words, None)
        if fresh is None:
            raise CapExceeded(
                "sequence",
                "sequence search exhausted: closure words and letters did not close the span",
                {"span_dim": span_dim, "target_dim": target, "symbols": list(symbols)},
            )
        if len(symbols) + len(fresh) > MAX_SEQ_LEN:
            raise CapExceeded(
                "sequence",
                f"sequence length would exceed cap {MAX_SEQ_LEN}",
                {"span_dim": span_dim, "target_dim": target,
                 "length": len(symbols) + len(fresh)},
            )
        symbols.extend(fresh)
    for i in range(len(symbols) - 1, -1, -1):
        if len(symbols) == 1:
            break
        candidate = symbols[:i] + symbols[i + 1:]
        cand_box = nilpotency_bound(r, candidate, y)
        if _monomial_span_dim(s2, candidate, cand_box, yy, target) == target:
            symbols, box = candidate, cand_box
    _validate_vanishing(r, symbols, box, y)
    return GenSeq(tuple(symbols), box)


def build_A(r: Rep, y, gs: GenSeq) -> MultiMatrix:
    """The dim(V) x box multi-matrix whose column at i is D^i y / i!."""
    data = _seq_data(r, y, gs)
    return MultiMatrix([[Fraction(col.get(k, 0), data.col_den) for col in data.columns]
                        for k in range(r.dim)], None, gs.box)


class _SeqData:
    """Shared exact artifacts of a (rep, y, generator sequence) triple: A's
    columns as sparse integer rows over ``col_den``, the pair sums over
    ``den`` = col_den^2, keyed by doubled position and held only where
    reached."""

    def __init__(self, r: Rep, y, gs: GenSeq):
        self.rep = r
        self.s2 = r.sym_square()
        self.symbols = gs.symbols
        self.module_dim = _closure(r, y).subspace.dim
        self.yy = _sparse(yy_coords(y))
        self.doubled = gs.box.doubled()
        memo = {0: _sparse(map(QQ, y))}  # each column's parent comes before it
        self.columns, self.col_den = _integer_rows(
            [_normalized(r, gs.symbols, gs.box, memo, i) for i in gs.box.indices()])
        self.den = self.col_den ** 2
        self.dyy = {0: self.yy}  # D^n(yy)/n! by position, as ``leibniz`` reads them
        # position of n -> sum over i + j = n of the symmetric product of columns
        # i and j: each ordered pair (i, j) adds col_i[k] col_j[l] to slot k <= l
        self._pair_sums: dict[int, list[int]] = {}
        slot = {kl: t for t, kl in enumerate(sym_pairs(r.dim))}
        nonzero = [(o, list(col.items()))
                   for o, col in zip(gs.box.doubled_offsets(), self.columns) if col]
        for o_i, col_i in nonzero:
            for o_j, col_j in nonzero:
                acc = self._pair_sums.setdefault(o_i + o_j, [0] * self.s2.dim)
                for k, x in col_i:
                    for l, z in col_j:
                        if k <= l:
                            acc[slot[k, l]] += x * z

    @cached_property
    def _solver(self):
        """The lex-earliest independent coefficient columns, the nonzero
        (column, entry) pairs of each row of the matrix M they form, the
        pivot rows of their span, and M's inverse on those rows over one
        denominator.  Every pair sum is D^n(yy)/n!, in U(yy), so the search
        stops at its dimension; an unreached position's zero sum never grows
        the span."""
        span = PivotedSpan(self.s2.dim)
        positions = []
        for p in sorted(self._pair_sums):
            if span.dim == self.module_dim:
                break
            if span.add(self._pair_sums[p]):
                positions.append(p)
        cols = [self._pair_sums[p] for p in positions]
        rows = [[(j, col[t]) for j, col in enumerate(cols) if col[t]] for t in range(self.s2.dim)]
        inverse, den = integer_inverse([[col[t] for col in cols] for t in span.pivots])
        return positions, rows, span.pivots, inverse, den

    def solve_coefficients(self, target: dict) -> list[Fraction] | None:
        """One b with sum b_n C_n = target (its nonzero entries), free
        variables at zero, or None.

        Restricting to the lex-earliest independent columns gives exactly the
        particular solution full row reduction would produce.  For target T /
        t and inverse I / d it is S den / (d t), S = I T on the pivot rows,
        checked exactly on every row as M S = T d."""
        positions, rows, pivots, inverse, d = self._solver
        (tgt,), t = _integer_rows([target])
        picked = [(k, tgt[p]) for k, p in enumerate(pivots) if p in tgt]
        small = [sum(row[k] * x for k, x in picked) for row in inverse]
        if any(sum(small[j] * e for j, e in row) != tgt.get(i, 0) * d
               for i, row in enumerate(rows)):
            return None
        b = [ZERO] * self.doubled.size
        for p, c in zip(positions, small):
            if c:
                b[p] = Fraction(c * self.den, d * t)
        return b

    def phi_of_coefficients(self, b) -> Mat:
        """A B A^t for the catalecticant defined by b, via sum b_n C_n over b's nonzero entries."""
        (coeffs,), t = _integer_rows([{p: b[p] for p in self._pair_sums if b[p]}])
        acc = [0] * self.s2.dim
        for p, c in coeffs.items():
            for k, e in enumerate(self._pair_sums[p]):
                acc[k] += c * e
        return sym_coords_to_mat([Fraction(x, t * self.den) for x in acc], self.rep.dim)

    def leibniz(self, n) -> bool:
        """D^n(yy)/n! equals the pair sum at n exactly, on every coordinate:
        each nonzero entry matches, and the pair sum has no other nonzero
        entry (none at all where no pair reaches n)."""
        v = _normalized(self.s2, self.symbols, self.doubled, self.dyy, n)
        want = self._pair_sums.get(self.doubled.position(n))
        if want is None:
            return not v
        return (all(c.numerator * self.den == want[k] * c.denominator for k, c in v.items())
                and len(want) - want.count(0) == len(v))


_SEQDATA_CACHE: dict[tuple, _SeqData] = {}


def _seq_data(r: Rep, y, gs: GenSeq) -> _SeqData:
    """The shared artifacts of (module object, y, gs), built once."""
    key = (r, tuple(map(QQ, y)), gs)
    if key not in _SEQDATA_CACHE:
        _SEQDATA_CACHE[key] = _SeqData(r, y, gs)
    return _SEQDATA_CACHE[key]


def leibniz_check(r: Rep, y, gs: GenSeq, n) -> bool:
    """Exact identity D^n(yy)/n! = sum_{i+j=n} (D^i y/i!)(D^j y/j!)."""
    n = tuple(int(k) for k in n)
    doubled = gs.box.doubled()
    if n not in doubled:
        raise ValueError(f"{n} is outside the doubled box {doubled.N}")
    return _seq_data(r, y, gs).leibniz(n)


def decompose_Q(r: Rep, y, gs: GenSeq, word) -> MultiVector:
    """Coefficients b on the doubled box with Q(yy) = sum b_{i+j} A_i A_j.

    Solved exactly with free variables at zero, the residual checked exactly.
    An unsolvable system means the sequence violated its span contract, which
    is reported loudly with diagnostics.
    """
    data = _seq_data(r, y, gs)
    b = data.solve_coefficients(_word_image(data.s2, word, data.yy))
    if b is None:
        raise StructuralError(
            "decomposition inconsistent: generator sequence span contract violated",
            {"word": list(word), "symbols": list(gs.symbols), "N": list(gs.box.N)},
        )
    return MultiVector(data.doubled, tuple(b))


# ---------------------------------------------------------------------------
# hyperplanes and the rank-one correspondence

@dataclass(frozen=True)
class HyperplaneReport:
    kind: str  # "hyperplane" | "full"
    codim: int


class _Products:
    """The products mu(e_a e_b), a <= b, of the RREF basis e of U = im A^t,
    reduced once: their kernel in pair coordinates, their image F, and the
    inverse of an independent subset restricted to F's pivot columns.  They
    are convolved from U's primitive rows p_a e_a on the positions reached,
    so hold p_a p_b mu(e_a e_b); the kernel and ``functional`` undo p_a p_b."""

    def __init__(self, box: Box, u: Subspace):
        self.u = u
        self.doubled_size = box.doubled().size
        offsets = box.doubled_offsets()
        self.rows = [[(c, x) for c, x in enumerate(row) if x] for row in u._rows]
        self.scale = [row[c] for row, c in zip(u._rows, u.pivots)]
        self.pairs = sym_pairs(len(self.rows))
        products = [defaultdict(int) for _ in self.pairs]
        for acc, (a, b) in zip(products, self.pairs):
            for c, x in self.rows[a]:
                for d, z in self.rows[b]:
                    acc[offsets[c] + offsets[d]] += x * z
        support = sorted(set().union(*products))
        products = [[p.get(o, 0) for o in support] for p in products]
        self.kernel = [[k * self.scale[a] * self.scale[b] for k, (a, b) in zip(kappa, self.pairs)]
                       for kappa in annihilator(Subspace(len(products), zip(*products)))._rows]
        image = PivotedSpan(len(support))
        self.independent = [s for s, p in enumerate(products) if image.add(p)]
        self.pivots = [support[c] for c in image.pivots]
        # a product on F's pivots is its coordinate vector on F's RREF basis
        self.coords = [[p[c] for c in image.pivots] for p in products]
        self.inverse, self.den = integer_inverse([self.coords[s] for s in self.independent])

    def on_basis(self, psi):
        """psi on the RREF basis of U, or None when it vanishes there."""
        vals = [Fraction(sum(psi[c] * x for c, x in row), p)
                for row, p in zip(self.rows, self.scale)]
        return vals if any(vals) else None

    def report(self, psi) -> HyperplaneReport:
        """Codimension of mu(W.U) in mu(U.U) for W = ker psi, psi on e."""
        for kappa in self.kernel:
            if sum(k * psi[a] * psi[b] for k, (a, b) in zip(kappa, self.pairs) if k):
                return HyperplaneReport("full", 0)
        return HyperplaneReport("hyperplane", 1)

    def functional(self, psi, v) -> list[Fraction] | None:
        """The b supported on F's pivots with b(mu(e_a e_b)) = psi_a psi_b /
        psi(v)^2 for all a <= b, checked exactly, or None; so b vanishes on
        mu(W.U) and b(mu(v.v)) = 1.  Scaling psi changes nothing, so psi is
        an integer row, and the scaled products ask for w / psi(v)^2, w_ab =
        p_a p_b psi_a psi_b: b = S / (d psi(v)^2) for S = I w on the
        independent ones, checked as coords . S = w d on every product."""
        (psi,), _ = _integer_rows([dict(enumerate(psi))])
        pv = QQ(sum(psi[a] * v[c] for a, c in enumerate(self.u.pivots)))
        want = [self.scale[a] * self.scale[b] * psi[a] * psi[b] for a, b in self.pairs]
        picked = [(k, want[s]) for k, s in enumerate(self.independent) if want[s]]
        small = [sum(row[k] * w for k, w in picked) for row in self.inverse]
        if any(sum(x * e for x, e in zip(small, row) if e) != w * self.den
               for row, w in zip(self.coords, want)):
            return None
        b = [ZERO] * self.doubled_size
        q = self.den * pv * pv
        for c, x in zip(self.pivots, small):
            if x:
                b[c] = x / q
        return b


def _hyperplane_functional(a: MultiMatrix, w: Subspace) -> tuple[_Products, list[Fraction]]:
    """The products of im A^t and a psi on its RREF basis with W = ker psi,
    once W is checked to be a hyperplane of im A^t."""
    if a.col_box is None:
        raise ValueError("A must carry a column box")
    u = a.row_space()
    if w.ambient_dim != u.ambient_dim or not u.contains_subspace(w):
        raise ValueError("W must be a subspace of im A^t")
    if w.dim != u.dim - 1:
        raise ValueError("W must have codimension one in im A^t")
    coords = Subspace(u.dim, [[row[c] for c in u.pivots] for row in w.basis])
    return _Products(a.col_box, u), list(annihilator(coords).basis[0])


def hyperplane_check(a: MultiMatrix, w: Subspace) -> HyperplaneReport:
    """Codimension of mu(W . im A^t) inside mu(im A^t . im A^t).

    For U = im A^t and W = ker psi, S^2 U / (W.U) = S^2(U/W) is a line, so the
    codimension is 1 (``hyperplane``) when sum kappa_ab psi_a psi_b = 0 for
    every kappa in ker(mu|S^2 U), and 0 (``full``) otherwise, never more.
    Which holds varies with W, so it is measured per instance, never assumed.
    """
    prods, psi = _hyperplane_functional(a, w)
    return prods.report(psi)


@dataclass
class ForwardOutcome:
    ok: bool
    kind: str  # "rank1" | "rank0" | "discrepancy"
    rank: int | None = None
    b: MultiVector | None = None
    factor: list[Fraction] | None = None
    membership: bool | None = None
    failure: str | None = None
    witness: dict = field(default_factory=dict)


@dataclass
class ReverseOutcome:
    ok: bool
    b: MultiVector | None = None
    failure: str | None = None


def _forward(r: Rep, y, gs: GenSeq, prods: _Products, psi, v) -> ForwardOutcome:
    """The forward direction for W = ker psi (psi on the RREF basis of im A^t)
    and a complement v, once hyperplane_check has found codimension 1."""
    b_data = prods.functional(psi, v)
    if b_data is None:
        return ForwardOutcome(
            ok=False, kind="discrepancy",
            failure="the forward functional failed its exact check on mu(im A^t . im A^t)",
            witness={"v": [format_scalar(e) for e in v]},
        )
    b = MultiVector(gs.box.doubled(), tuple(b_data))
    phi = _seq_data(r, y, gs).phi_of_coefficients(b_data)
    rk = rank(phi)
    if rk > 1:
        return ForwardOutcome(
            ok=False, kind="discrepancy", rank=rk, b=b,
            failure="phi_A(B) has rank above one for a constructed hyperplane functional",
            witness={"rank": rk},
        )
    if rk == 0:
        # the zero matrix has no projective factor: excluded from the
        # Veronese locus and logged by the caller
        return ForwardOutcome(ok=True, kind="rank0", rank=0, b=b)
    factor = rank_one_factor(phi)
    member = my_membership(r, y, factor)
    if not member:
        return ForwardOutcome(
            ok=False, kind="discrepancy", rank=1, b=b, factor=factor, membership=False,
            failure="rank-one factor fails membership",
            witness={"factor": [format_scalar(e) for e in factor]},
        )
    return ForwardOutcome(ok=True, kind="rank1", rank=1, b=b, factor=factor, membership=True)


def _reverse(r: Rep, y, gs: GenSeq, x) -> ReverseOutcome:
    if not my_membership(r, y, x):
        raise ValueError("reverse direction needs a point with x x^t in the orbit module")
    data = _seq_data(r, y, gs)
    b = data.solve_coefficients(_sparse(yy_coords(x)))
    if b is None:
        return ReverseOutcome(ok=False, failure="no catalecticant preimage: system inconsistent")
    bv = MultiVector(data.doubled, tuple(b))
    if data.phi_of_coefficients(b) != sym_square(list(map(QQ, x))):
        return ReverseOutcome(ok=False, b=bv, failure="preimage fails to reproduce x x^t")
    return ReverseOutcome(ok=True, b=bv)


def rank1_correspondence(r: Rep, y, gs: GenSeq, a: MultiMatrix, direction: str,
                         W: Subspace | None = None, v=None, x=None):
    """Forward (from a hyperplane W and complement v) or reverse (from x).

    Structural failures come back as outcome records with exact witnesses;
    only precondition violations raise.
    """
    if direction == "forward":
        if W is None or v is None:
            raise ValueError("forward direction needs W and v")
        prods, psi = _hyperplane_functional(a, W)
        hyp = prods.report(psi)
        if hyp.kind != "hyperplane":
            raise ValueError(f"forward direction needs a hyperplane W, got codimension {hyp.codim}")
        if not prods.u.contains(v) or W.contains(v):
            raise ValueError("v must span a complement of W in im A^t")
        return _forward(r, y, gs, prods, psi, v)
    if direction == "reverse":
        if x is None:
            raise ValueError("reverse direction needs x")
        return _reverse(r, y, gs, x)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# certification

@dataclass
class CertReport:
    """Structured outcome of one certification run."""

    rep_label: str
    dims: dict
    rank_A: int
    symbols: list[str]
    N: list[int]
    seed: int
    trials: int
    leibniz_trials: int = 0
    leibniz_passes: int = 0
    decompose_trials: int = 0
    decompose_passes: int = 0
    hyperplane_trials: int = 0
    hyperplane_good: int = 0
    hyperplane_bad: int = 0
    forward_trials: int = 0
    forward_passes: int = 0
    forward_rank0: int = 0
    reverse_trials: int = 0
    reverse_passes: int = 0
    trial_log: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    verdict: str = "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "rep": self.rep_label,
            "dims": self.dims,
            "rank_A": self.rank_A,
            "generator_sequence": {"symbols": self.symbols, "N": self.N},
            "seed": self.seed,
            "trials": self.trials,
            "checks": {
                "leibniz": {"trials": self.leibniz_trials, "passes": self.leibniz_passes},
                "decompose": {"trials": self.decompose_trials, "passes": self.decompose_passes},
                "hyperplane": {
                    "trials": self.hyperplane_trials,
                    "good": self.hyperplane_good,
                    "bad": self.hyperplane_bad,
                },
                "forward": {
                    "trials": self.forward_trials,
                    "passes": self.forward_passes,
                    "rank0": self.forward_rank0,
                },
                "reverse": {"trials": self.reverse_trials, "passes": self.reverse_passes},
            },
            "trial_log": self.trial_log,
            "witnesses": self.witnesses,
            "verdict": self.verdict,
        }


def _sample_functional(rng: random.Random, prods: _Products):
    """A random functional nonzero on im A^t, on its RREF basis, or None."""
    for _ in range(50):
        psi = prods.on_basis([rng.randint(-3, 3) for _ in range(prods.u.ambient_dim)])
        if psi is not None:
            return psi
    return None


def _evaluation(box: Box | None, point) -> list[Fraction]:
    """The functional f -> f(point) on multi-vectors over the box."""
    if box is None or len(point) != box.r:
        raise ValueError("point length must match the number of box axes")
    point = [QQ(t) for t in point]
    return [prod((t ** k for t, k in zip(point, idx)), start=QQ(1)) for idx in box.indices()]


def _orbit_sample(rng: random.Random, r: Rep, y) -> tuple[list[Fraction], list]:
    """A product of at most 4 nilpotent exponentials applied to y, with its recipe."""
    xy = r.algebra.xy_symbols()
    x = list(map(QQ, y))
    recipe = []
    for _ in range(rng.randint(1, 4)):
        sym = rng.choice(xy)
        t = QQ(rng.choice([-2, -1, 1, 2]))
        x = exp_act(r, sym, t, x)
        recipe.append([sym, format_scalar(t)])
    return x, recipe


def certify_irreducibility(r: Rep, y, trials: int = 25, seed: int = 0,
                           max_box: int | None = None) -> CertReport:
    """End-to-end seeded certification of one (module, vector) instance.

    Runs generator_sequence, build_A, the Leibniz identity over the doubled
    box (sampled when large), seeded decompositions, hyperplane checks,
    and both directions of the rank-one correspondence.  The verdict is
    ``consistent`` when every structural assertion held exactly,
    ``discrepancy`` (with witnesses) otherwise.  Deterministic given seed.
    """
    if vec_is_zero(y):
        raise ValueError("certification needs a nonzero vector")
    rng = random.Random(seed)
    gs = generator_sequence(r, y, max_box=max_box)
    data = _seq_data(r, y, gs)
    a = build_A(r, y, gs)
    module = orbit_module(r, y)
    ideal = quadric_ideal(r, y, module=module)
    s2dim = data.s2.dim
    report = CertReport(
        rep_label=r.label,
        dims={"V": r.dim, "S2V": s2dim, "module": module.dim, "ideal": ideal.dim},
        rank_A=rank(a),
        symbols=list(gs.symbols),
        N=list(gs.box.N),
        seed=seed,
        trials=trials,
    )

    ns = data.doubled.indices()
    if len(ns) > _LEIBNIZ_SAMPLE:
        ns = [ns[0]] + rng.sample(ns[1:], _LEIBNIZ_SAMPLE - 1)
    for n in ns:
        report.leibniz_trials += 1
        if data.leibniz(n):
            report.leibniz_passes += 1
        else:
            report.witnesses.append({"check": "leibniz", "n": list(n)})

    catalog = r.algebra.catalog
    for _ in range(trials):
        word = tuple(rng.choice(catalog) for _ in range(rng.randint(0, 4)))
        report.decompose_trials += 1
        try:
            decompose_Q(r, y, gs, word)
            report.decompose_passes += 1
            report.trial_log.append({"check": "decompose", "word": list(word),
                                     "ok": True})
        except StructuralError as exc:
            report.trial_log.append({"check": "decompose", "word": list(word),
                                     "ok": False})
            report.witnesses.append({"check": "decompose", "word": list(word),
                                     "detail": str(exc)})

    im_at = a.row_space()
    prods = _Products(gs.box, im_at)

    def process_hyperplane(psi, source):
        report.hyperplane_trials += 1
        hyp = prods.report(psi)
        if hyp.kind != "hyperplane":
            report.hyperplane_bad += 1
            report.trial_log.append({"check": "hyperplane", "source": source,
                                     "kind": hyp.kind, "codim": hyp.codim})
            return
        report.hyperplane_good += 1
        report.forward_trials += 1
        v = im_at.basis[next(k for k, c in enumerate(psi) if c)]
        out = _forward(r, y, gs, prods, psi, v)
        if out.kind == "rank0":
            report.forward_rank0 += 1
        report.trial_log.append({"check": "forward", "source": source,
                                 "kind": out.kind, "ok": out.ok})
        if out.ok and out.kind == "rank1":
            report.forward_passes += 1
        elif not out.ok:
            report.witnesses.append({"check": "forward", "detail": out.failure,
                                     **out.witness})

    # random functionals populate the good/bad ledger
    for _ in range(trials):
        psi = _sample_functional(rng, prods)
        if psi is not None:
            process_hyperplane(psi, "random")
    # evaluation-point hyperplanes top up the forward coverage, since random
    # functionals mostly miss the locus where the product span is a hyperplane
    attempts = 0
    while report.forward_trials < trials and attempts < 4 * trials:
        attempts += 1
        point = tuple(QQ(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                      for _ in range(gs.box.r))
        psi = prods.on_basis(_evaluation(gs.box, point))
        if psi is not None:
            process_hyperplane(psi, "evaluation")

    for _ in range(trials):
        x, recipe = _orbit_sample(rng, r, y)
        report.reverse_trials += 1
        if not my_membership(r, y, x):
            report.trial_log.append({"check": "reverse", "recipe": recipe, "ok": False})
            report.witnesses.append({"check": "reverse-membership", "recipe": recipe,
                                     "x": [format_scalar(e) for e in x]})
            continue
        out = _reverse(r, y, gs, x)
        report.trial_log.append({"check": "reverse", "recipe": recipe, "ok": out.ok})
        if out.ok:
            report.reverse_passes += 1
        else:
            report.witnesses.append({"check": "reverse", "recipe": recipe,
                                     "detail": out.failure})

    executed = (report.leibniz_trials + report.decompose_trials +
                report.hyperplane_trials + report.reverse_trials)
    if report.witnesses:
        report.verdict = "discrepancy"
    elif executed == 0:
        report.verdict = "inconclusive"
    else:
        report.verdict = "consistent"
    return report
