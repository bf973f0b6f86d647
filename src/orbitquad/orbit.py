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
    Coordinates,
    Mat,
    PivotedSpan,
    QQ,
    Subspace,
    annihilator,
    augmented_rref,
    format_scalar,
    integer_rows,
    sparse,
    sym_pairs,
    sym_rank_one,
    vec_is_zero,
    yy_coords,
)
from .multimatrix import Box, MultiMatrix, MultiVector, convolve
from .reps import ClosureResult, Rep, cyclic_closure, exp_act

MAX_BOX = 2 ** 20  # on the box, not on what is allocated: each functional draws per box index
MAX_SEQ_LEN = 40
_LEIBNIZ_SAMPLE = 200
_TOP3, _SEVENS = bytes(b >> 5 for b in range(256)), bytes(range(7 << 5, 256))  # for _draws


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

    ``dual_coords``, the annihilator of the module in symmetric coordinates,
    holds one RREF row per quadric: its entry c at the pair (k, l) is the
    term c x_k x_l.  ``basis``, built on first read, holds the trace-pairing
    matrices Phi (c on the diagonal, c/2 off it), so <Phi, M> = sum_ij
    Phi_ij M_ij and the quadric at x is x^t Phi x.
    """

    rep: Rep
    module: Subspace
    dual_coords: Subspace

    @property
    def dim(self) -> int:
        return self.dual_coords.dim

    @cached_property
    def _pairs(self) -> list[tuple[int, int]]:
        return sym_pairs(self.rep.dim)

    def terms(self, q: int) -> list[tuple[int, int, Fraction]]:
        """(k, l, c) for each term c x_k x_l of quadric q, k <= l."""
        pc = self.dual_coords.pivots[q]
        row = self.dual_coords._rows[pc]
        return [(*self._pairs[c], Fraction(x, row[pc])) for c, x in row.items()]

    def pairing(self, q: int) -> list[tuple[int, int, Fraction]]:
        """(k, l, Phi_kl) for the nonzero entries k <= l of quadric q's Phi."""
        return [(k, l, c if k == l else c / 2) for k, l, c in self.terms(q)]

    @cached_property
    def basis(self) -> list[Mat]:
        out = [Mat.zero(self.rep.dim, self.rep.dim) for _ in range(self.dim)]
        for q, phi in enumerate(out):
            for k, l, e in self.pairing(q):
                phi.data[k][l] = phi.data[l][k] = e
        return out

    def evaluate(self, k: int, x) -> Fraction:
        return sum((c * x[i] * x[j] for i, j, c in self.terms(k)), QQ(0))


def ideal_of_module(r: Rep, module: Subspace) -> QuadraticIdeal:
    """Annihilator of a submodule of S^2(V), one sparse dual row per quadric."""
    return QuadraticIdeal(r, module, annihilator(module))


def quadric_ideal(r: Rep, y) -> QuadraticIdeal:
    """Degree-two ideal of the orbit closure of y."""
    return ideal_of_module(r, orbit_module(r, y))


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

    The guarantee, which ``generator_sequence`` checks before it builds one:
    D^m y = 0 whenever any exponent exceeds its bound (with trailing
    exponents inside theirs), and the monomials D^n(yy) for n in the doubled
    box span the orbit module.  The symbols and the box are the whole value,
    so a sequence hashes by them.
    """

    symbols: tuple[str, ...]
    box: Box


def _nested_span(r: Rep, symbols, u) -> tuple[list[int], PivotedSpan]:
    """The nested suffix spans of u under the letters, with their bounds.

    T_r = span(u), and T_s = sum over k of D_s^k T_{s+1}, each letter applied
    to a basis of T_{s+1} until its frontier dies.  Each T_s contains
    T_{s+1}, so one span grows, and the cost follows the span.  Returns the
    bound N_s of each letter, the largest k with D_s^k T_{s+1} != 0, and the
    span T_1 of every monomial D^n u.
    """
    for s in symbols:
        if s.startswith("H"):
            raise ValueError(f"{s} is a coroot; the sequence needs nilpotent letters")
    span = PivotedSpan(r.dim)
    span.add(u)
    bounds = [0] * len(symbols)
    for s in range(len(symbols) - 1, -1, -1):
        frontier, k = span.rows, 0
        while frontier := [v for v in (r.act_sparse(symbols[s], v) for v in frontier) if v]:
            k += 1
            if k > r.dim:
                raise StructuralError(f"action of {symbols[s]} is not nilpotent")
            span.add_all(frontier)
        bounds[s] = k
    return bounds, span


def nilpotency_bound(r: Rep, symbols, u) -> Box:
    """Per-axis degree bounds after which the iterated action annihilates u.

    Recursive-maximum construction, from the last letter backwards: N_s is
    the largest exponent of D_s that leaves some already-bounded tail vector
    D_{s+1}^{i_{s+1}} ... D_r^{i_r} u alive.  D_s^k kills every tail vector
    exactly when it kills their span, so the bounds are read off the nested
    suffix spans of u (``_nested_span``).
    """
    return Box(_nested_span(r, symbols, u)[0])


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


def _nonzero_columns(r: Rep, symbols, box: Box, y: dict) -> dict[int, dict]:
    """The nonzero D^i y / i! by position, walked from position 0: the
    children of i (those with lexicographic parent i) are i + e_s for s up
    to i's first nonzero axis, and a zero column has only zero children."""
    memo, todo = {0: y}, [0]
    while todo:
        idx = box.index(pos := todo.pop())
        for s in range(next((k for k, e in enumerate(idx) if e), box.r - 1) + 1):
            child = idx[:s] + (idx[s] + 1,) + idx[s + 1:]
            if child[s] <= box.N[s] and _normalized(r, symbols, box, memo, child):
                todo.append(pos + box.strides[s])
    return {pos: v for pos, v in memo.items() if v}


def _validate_vanishing(r: Rep, symbols, box: Box, y) -> None:
    """Exact check that raising any single exponent past its bound kills y."""
    y = sparse(map(QQ, y))
    for j in range(len(symbols)):
        word = [sym for s, sym in enumerate(symbols)
                for _ in range(box.N[s] + (1 if s == j else 0))]
        if _word_image(r, word, y):
            raise StructuralError(
                f"nilpotency bound violated on axis {j}",
                {"symbols": list(symbols), "N": list(box.N)},
            )


_GENSEQ_CACHE: dict[tuple, GenSeq] = {}


def generator_sequence(r: Rep, y) -> GenSeq:
    """Find (D, N) whose monomials applied to yy span the whole orbit module;
    ``CapExceeded`` of kind ``box`` when the accepted box exceeds ``MAX_BOX``.
    The search is cached on what decides it, r and y.
    """
    if vec_is_zero(y):
        raise ValueError("generator sequence needs a nonzero vector")
    key = (r, tuple(map(QQ, y)))
    if key not in _GENSEQ_CACHE:
        _GENSEQ_CACHE[key] = _search_sequence(r, y)
    gs = _GENSEQ_CACHE[key]
    if gs.box.size > MAX_BOX:
        raise CapExceeded("box", f"multi-degree box exceeds cap {MAX_BOX}",
                          {"bounds": list(gs.box.N), "cap": MAX_BOX})
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
    contract was not checked.  Each check is one walk of nested suffix spans
    on (S^2 V, yy) (``_nested_span``), so it costs what the spans cost, never
    a walk over the box; the box is bounded once, for the accepted letters.

    No box is needed to check a candidate.  By Leibniz, D^n(yy) is the sum
    over alpha + beta = n of binom(n, alpha) (D^alpha y)(D^beta y).  Once
    some n_s > 2 N_s, every term has alpha_s > N_s or beta_s > N_s, so every
    term is 0.  So the walk on S^2 V, with each letter applied until its
    frontier dies, spans exactly the monomials over the doubled box.

    One pass is enough.  Let S' be S with some letters dropped, in the same
    order.  The monomials of S' are those of S with zero exponents on the
    dropped letters, so span(S') lies in span(S): a letter whose removal
    failed once still fails after later letters go.
    """
    s2 = r.sym_square()
    yy = yy_coords(y)
    closure = _closure(r, y)
    target = closure.subspace.dim
    # every closure word is a nonempty word in the X/Y letters
    words = chain(closure.words, ((sym,) for sym in r.algebra.xy_symbols()))
    symbols = list(r.algebra.y_symbols())
    while (span_dim := _nested_span(s2, symbols, yy)[1].dim) != target:
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
        if _nested_span(s2, candidate, yy)[1].dim == target:
            symbols = candidate
    box = nilpotency_bound(r, symbols, y)
    _validate_vanishing(r, symbols, box, y)
    return GenSeq(tuple(symbols), box)


def build_A(r: Rep, y, gs: GenSeq) -> MultiMatrix:
    """The dim(V) x box multi-matrix whose column at i is D^i y / i!."""
    data = _seq_data(r, y, gs)
    return MultiMatrix([[Fraction(data.columns.get(p, {}).get(k, 0), data.col_den)
                         for p in range(gs.box.size)] for k in range(r.dim)], None, gs.box)


class _SeqData:
    """Shared exact artifacts of a (rep, y, generator sequence) triple: the
    orbit module, A's nonzero columns as sparse integer rows over
    ``col_den`` by box position, and the pair sums over ``den`` = col_den^2
    as rows keyed by doubled position, held only where reached.  Solving
    reads the coordinates on the pair sums (``linalg.Coordinates``)."""

    def __init__(self, r: Rep, y, gs: GenSeq):
        self.rep = r
        self.s2 = r.sym_square()
        self.gs = gs
        self.module = _closure(r, y).subspace
        self.yy = sparse(yy_coords(y))
        self.doubled = gs.box.doubled()
        walked = sorted(_nonzero_columns(r, gs.symbols, gs.box, sparse(map(QQ, y))).items())
        rows, self.col_den = integer_rows([col for _, col in walked])
        self.columns = {pos: row for (pos, _), row in zip(walked, rows)}
        self.den = self.col_den ** 2
        self.dyy = {0: self.yy}  # D^n(yy)/n! by position, as ``leibniz`` reads them
        # position of n -> sum over i + j = n of the symmetric product of columns
        # i and j: each ordered pair (i, j) adds col_i[k] col_j[l] to slot k <= l
        sums: defaultdict[int, defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
        slot = {kl: t for t, kl in enumerate(sym_pairs(r.dim))}
        nonzero = [(self.doubled.position(gs.box.index(pos)), list(row.items()))
                   for pos, row in self.columns.items()]
        for o_i, col_i in nonzero:
            for o_j, col_j in nonzero:
                acc = sums[o_i + o_j]
                for k, x in col_i:
                    for l, z in col_j:
                        if k <= l:
                            acc[slot[k, l]] += x * z
        self._pair_sums = {p: {t: x for t, x in acc.items() if x} for p, acc in sums.items()}

    def image(self) -> Subspace:
        """im A^t, spanned by the rows of A's integer columns."""
        return Subspace(self.gs.box.size, ({p: col[k] for p, col in self.columns.items() if k in col}
                                           for k in range(self.rep.dim)))

    @cached_property
    def _solver(self) -> tuple[list[int], Coordinates]:
        """The reached positions in order and the coordinates on their pair
        sums; every pair sum is D^n(yy)/n!, in U(yy), so the elimination
        stops at its dimension."""
        positions = sorted(self._pair_sums)
        return positions, Coordinates((self._pair_sums[p] for p in positions),
                                      self.s2.dim, self.module.dim)

    def solve_coefficients(self, target: dict) -> dict[int, Fraction] | None:
        """One b with sum b_n C_n = target, free variables at zero, by
        position of its nonzero entries, or None: the pair sums hold den
        C_n, so b is the coordinates of den times the target on them."""
        positions, coords = self._solver
        x = coords.of({k: e * self.den for k, e in target.items()})
        return None if x is None else {positions[k]: e for k, e in x.items()}

    def phi_of_coefficients(self, b: dict) -> tuple[list[int], int]:
        """A B A^t for the catalecticant defined by b (by position), via sum
        b_n C_n: integer symmetric coordinates and their denominator."""
        (coeffs,), t = integer_rows([b])
        acc = [0] * self.s2.dim
        for p, c in coeffs.items():
            for k, e in self._pair_sums.get(p, {}).items():
                acc[k] += c * e
        return acc, t * self.den

    def leibniz(self, n) -> bool:
        """D^n(yy)/n! equals the pair sum at n exactly, on every coordinate:
        each nonzero entry matches, and the pair sum has no other nonzero
        entry (none at all where no pair reaches n)."""
        v = _normalized(self.s2, self.gs.symbols, self.doubled, self.dyy, n)
        want = self._pair_sums.get(self.doubled.position(n), {})
        return len(want) == len(v) and all(
            c.numerator * self.den == want.get(k, 0) * c.denominator for k, c in v.items())

    def decompose(self, word) -> dict[int, Fraction]:
        """Coefficients b by doubled position with Q(yy) = sum b_(i+j) A_i A_j,
        for Q the word; ``decompose_Q`` reads it."""
        b = self.solve_coefficients(_word_image(self.s2, word, self.yy))
        if b is None:
            raise StructuralError(
                "decomposition inconsistent: generator sequence span contract violated",
                {"word": list(word), "symbols": list(self.gs.symbols), "N": list(self.gs.box.N)},
            )
        return b


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
    return MultiVector.from_sparse(data.doubled, data.decompose(word))


# ---------------------------------------------------------------------------
# hyperplanes and the rank-one correspondence

@dataclass(frozen=True)
class HyperplaneReport:
    kind: str  # "hyperplane" | "full"
    codim: int


class _Products:
    """The products mu(e_a e_b), a <= b, of the RREF basis e of U = im A^t,
    each augmented by a unit column and reduced once (``augmented_rref``):
    the rows [p R | E] with p R = E . products give the RREF basis R of their
    image F, and the rest are ker mu, canonical as the RREF of a row space.
    They are convolved from U's primitive rows p_a e_a on the positions those
    rows reach, so hold p_a p_b mu(e_a e_b); the kernel and ``functional``
    undo p_a p_b."""

    def __init__(self, box: Box, u: Subspace):
        self.u = u
        self.rows = list(u._rows.values())
        self.scale = [row[c] for c, row in u._rows.items()]
        self.columns = sorted(set().union(*self.rows))  # the box positions U's rows reach
        doubled = box.doubled()
        offset = {c: doubled.position(box.index(c)) for c in self.columns}
        self.pairs = sym_pairs(len(self.rows))
        self.products = [convolve(self.rows[a], self.rows[b], offset) for a, b in self.pairs]
        n = doubled.size
        reduced = augmented_rref(self.products, n)
        self.kernel = [[(k * self.scale[a] * self.scale[b], a, b)
                        for c, k in row.items() for a, b in (self.pairs[c - n],)]
                       for pc, row in reduced.items() if pc >= n]
        self.f_rows = [(pc, row[pc], [(c - n, x) for c, x in row.items() if c >= n])
                      for pc, row in reduced.items() if pc < n]
        self.lcm = lcm(*(p for _, p, _ in self.f_rows))

    def on_basis(self, psi):
        """psi (a dict read on ``columns``) on U's RREF basis, or None when it vanishes there."""
        vals = [Fraction(sum(psi[c] * x for c, x in row.items()), p)
                for row, p in zip(self.rows, self.scale)]
        return vals if any(vals) else None

    def report(self, psi) -> HyperplaneReport:
        """Codimension of mu(W.U) in mu(U.U) for W = ker psi, psi on e."""
        for kappa in self.kernel:
            if sum(k * psi[a] * psi[b] for k, a, b in kappa):
                return HyperplaneReport("full", 0)
        return HyperplaneReport("hyperplane", 1)

    def functional(self, psi, v) -> dict[int, Fraction] | None:
        """The b supported on F's pivots with b(mu(e_a e_b)) = psi_a psi_b /
        psi(v)^2 for all a <= b, by position, checked exactly, or None; so b
        vanishes on mu(W.U) and b(mu(v.v)) = 1.  Scaling psi changes nothing,
        so psi is an integer row, and the scaled products ask for w /
        psi(v)^2, w_ab = p_a p_b psi_a psi_b: b_c = (E . w) L / p over L
        psi(v)^2, checked as product . b = w / psi(v)^2 on every product."""
        (psi,), _ = integer_rows([dict(enumerate(psi))])
        pv = QQ(sum(psi[a] * v[c] for a, c in enumerate(self.u.pivots)))
        want = [self.scale[a] * self.scale[b] * psi[a] * psi[b] for a, b in self.pairs]
        small = {c: sum(x * want[s] for s, x in e) * (self.lcm // p) for c, p, e in self.f_rows}
        if any(sum(x * small[o] for o, x in product.items() if o in small) != w * self.lcm
               for product, w in zip(self.products, want)):
            return None
        q = self.lcm * pv * pv
        return {c: x / q for c, x in small.items() if x}


def _hyperplane_functional(box: Box, u: Subspace, w: Subspace) -> tuple[_Products, list[Fraction]]:
    """The products of U = im A^t (on A's column box) and a psi on its RREF
    basis with W = ker psi, once W is checked to be a hyperplane of U."""
    if w.ambient_dim != u.ambient_dim or not u.contains_subspace(w):
        raise ValueError("W must be a subspace of im A^t")
    if w.dim != u.dim - 1:
        raise ValueError("W must have codimension one in im A^t")
    coords = Subspace(u.dim, [[row[c] for c in u.pivots] for row in w.basis])
    return _Products(box, u), list(annihilator(coords).basis[0])


def hyperplane_check(a: MultiMatrix, w: Subspace) -> HyperplaneReport:
    """Codimension of mu(W . im A^t) inside mu(im A^t . im A^t).

    For U = im A^t and W = ker psi, S^2 U / (W.U) = S^2(U/W) is a line, so the
    codimension is 1 (``hyperplane``) when sum kappa_ab psi_a psi_b = 0 for
    every kappa in ker(mu|S^2 U), and 0 (``full``) otherwise, never more.
    Which holds varies with W, so it is measured per instance, never assumed.
    """
    if a.col_box is None:
        raise ValueError("A must carry a column box")
    prods, psi = _hyperplane_functional(a.col_box, a.row_space(), w)
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


def _forward(data: _SeqData, prods: _Products, psi, v) -> ForwardOutcome:
    """The forward direction for W = ker psi (psi on the RREF basis of im A^t)
    and a complement v, once hyperplane_check has found codimension 1."""
    coeffs = prods.functional(psi, v)
    if coeffs is None:
        return ForwardOutcome(
            ok=False, kind="discrepancy",
            failure="the forward functional failed its exact check on mu(im A^t . im A^t)",
            witness={"v": [format_scalar(e) for e in v]},
        )
    b = MultiVector.from_sparse(data.doubled, coeffs)
    rk, factor = sym_rank_one(data.phi_of_coefficients(coeffs)[0], data.rep.dim)
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
    if not data.module.contains(yy_coords(factor)):
        return ForwardOutcome(
            ok=False, kind="discrepancy", rank=1, b=b, factor=factor, membership=False,
            failure="rank-one factor fails membership",
            witness={"factor": [format_scalar(e) for e in factor]},
        )
    return ForwardOutcome(ok=True, kind="rank1", rank=1, b=b, factor=factor, membership=True)


def _reverse(data: _SeqData, x) -> ReverseOutcome:
    """The reverse direction for a point x with x x^t in the orbit module."""
    xx = yy_coords(x)
    coeffs = data.solve_coefficients(sparse(xx))
    if coeffs is None:
        return ReverseOutcome(ok=False, failure="no catalecticant preimage: system inconsistent")
    b = MultiVector.from_sparse(data.doubled, coeffs)
    phi, q = data.phi_of_coefficients(coeffs)
    if any(c != q * e for c, e in zip(phi, xx)):
        return ReverseOutcome(ok=False, b=b, failure="preimage fails to reproduce x x^t")
    return ReverseOutcome(ok=True, b=b)


def forward_correspondence(r: Rep, y, gs: GenSeq, W: Subspace, v) -> ForwardOutcome:
    """The rank-one conjugate A B A^t from a hyperplane W of im A^t and a
    complement v, with A = build_A(r, y, gs).

    Structural failures come back as outcome records with exact witnesses;
    only precondition violations raise.
    """
    data = _seq_data(r, y, gs)
    prods, psi = _hyperplane_functional(gs.box, data.image(), W)
    hyp = prods.report(psi)
    if hyp.kind != "hyperplane":
        raise ValueError(f"forward direction needs a hyperplane W, got codimension {hyp.codim}")
    if not prods.u.contains(v) or W.contains(v):
        raise ValueError("v must span a complement of W in im A^t")
    return _forward(data, prods, psi, v)


def reverse_correspondence(r: Rep, y, gs: GenSeq, x) -> ReverseOutcome:
    """A catalecticant B with A B A^t = x x^t, for x x^t in the orbit module
    and A = build_A(r, y, gs).

    Structural failures come back as outcome records; only precondition
    violations raise.
    """
    if not my_membership(r, y, x):
        raise ValueError("reverse direction needs a point with x x^t in the orbit module")
    return _reverse(_seq_data(r, y, gs), x)


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


def _draws(rng: random.Random, n: int) -> bytes:
    """[rng.randint(-3, 3) + 3 for _ in range(n)], leaving rng as that would: each
    is the top 3 bits of a 32-bit word, redrawn at 7, and getrandbits(32 k) is k
    words, little-endian, giving at most k draws: no word past the n-th is read."""
    out = b""
    while len(out) < n:
        k = n - len(out)
        out += rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_TOP3, _SEVENS)
    return out


def _sample_functional(rng: random.Random, prods: _Products):
    """A random functional nonzero on im A^t, on its RREF basis, or None."""
    for _ in range(50):
        d = _draws(rng, prods.u.ambient_dim)
        psi = prods.on_basis({c: d[c] - 3 for c in prods.columns})
        if psi is not None:
            return psi
    return None


def _evaluation(box: Box | None, point, positions) -> dict[int, Fraction]:
    """The functional f -> f(point) on multi-vectors over the box, at the
    given positions."""
    if box is None or len(point) != box.r:
        raise ValueError("point length must match the number of box axes")
    point = [QQ(t) for t in point]
    return {p: prod((t ** k for t, k in zip(point, box.index(p))), start=QQ(1))
            for p in positions}


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


def certify_irreducibility(r: Rep, y, trials: int = 25, seed: int = 0) -> CertReport:
    """End-to-end seeded certification of one (module, vector) instance.

    Runs generator_sequence, im A^t from A's integer columns, the Leibniz
    identity over the doubled box (sampled when large, each sampled position
    decoded by mixed radix), seeded decompositions, hyperplane checks, and
    both directions of the rank-one correspondence.  The verdict is
    ``consistent`` when every structural assertion held exactly,
    ``discrepancy`` (with witnesses) otherwise.  Deterministic given seed.
    """
    if vec_is_zero(y):
        raise ValueError("certification needs a nonzero vector")
    rng = random.Random(seed)
    gs = generator_sequence(r, y)
    data = _seq_data(r, y, gs)
    im_at = data.image()
    module = data.module
    report = CertReport(
        rep_label=r.label,
        dims={"V": r.dim, "S2V": data.s2.dim, "module": module.dim,
              "ideal": data.s2.dim - module.dim},
        rank_A=im_at.dim,
        symbols=list(gs.symbols),
        N=list(gs.box.N),
        seed=seed,
        trials=trials,
    )

    # random.sample only indexes its population: the draws of the index list
    size = data.doubled.size
    positions = range(size)
    if size > _LEIBNIZ_SAMPLE:
        positions = [0] + rng.sample(range(1, size), _LEIBNIZ_SAMPLE - 1)
    for n in map(data.doubled.index, positions):
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
            data.decompose(word)
            report.decompose_passes += 1
            report.trial_log.append({"check": "decompose", "word": list(word),
                                     "ok": True})
        except StructuralError as exc:
            report.trial_log.append({"check": "decompose", "word": list(word),
                                     "ok": False})
            report.witnesses.append({"check": "decompose", "word": list(word),
                                     "detail": str(exc)})

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
        v = im_at.basis_row(next(k for k, c in enumerate(psi) if c))
        out = _forward(data, prods, psi, v)
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
        psi = prods.on_basis(_evaluation(gs.box, point, prods.columns))
        if psi is not None:
            process_hyperplane(psi, "evaluation")

    for _ in range(trials):
        x, recipe = _orbit_sample(rng, r, y)
        report.reverse_trials += 1
        if not module.contains(yy_coords(x)):
            report.trial_log.append({"check": "reverse", "recipe": recipe, "ok": False})
            report.witnesses.append({"check": "reverse-membership", "recipe": recipe,
                                     "x": [format_scalar(e) for e in x]})
            continue
        out = _reverse(data, x)
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
