"""Multi-pass generator-sequence search, used only by tests as a reference.

This is the search the library ran before its pruning became a single pass:
it closes yy itself, filters coroots out of the closure words, and re-scans
the whole sequence after every pass that dropped a letter, catching a box
cap on each candidate.  Its nilpotency bound lists every tail vector and its
span check walks the whole doubled box, as the library did before it moved
to nested spans, so it shares no search or span code with the library.
"""

from fractions import Fraction

from orbitquad.errors import CapExceeded, StructuralError
from orbitquad.linalg import PivotedSpan, vec_is_zero, yy_coords
from orbitquad.multimatrix import Box
from orbitquad.orbit import MAX_BOX, MAX_SEQ_LEN, GenSeq
from orbitquad.reps import cyclic_closure


def nilpotency_bound(r, symbols, u):
    """Per-axis bounds from the last letter backwards, over every tail vector."""
    for s in symbols:
        if s.startswith("H"):
            raise ValueError(f"{s} is a coroot; the sequence needs nilpotent letters")
    tails = [list(map(Fraction, u))]
    bounds = [0] * len(symbols)
    for s in range(len(symbols) - 1, -1, -1):
        frontier = [v for v in tails if not vec_is_zero(v)]
        grown = list(tails)
        k = 0
        while frontier:
            frontier = [r.act(symbols[s], v) for v in frontier]
            frontier = [v for v in frontier if not vec_is_zero(v)]
            if not frontier:
                break
            k += 1
            if k > r.dim:
                raise StructuralError(f"action of {symbols[s]} is not nilpotent")
            grown.extend(frontier)
        bounds[s] = k
        tails = grown
        size = 1
        for b in bounds[s:]:
            size *= b + 1
        if size > MAX_BOX:
            raise CapExceeded(
                "box",
                f"multi-degree box exceeds cap {MAX_BOX}",
                {"bounds": list(bounds), "cap": MAX_BOX},
            )
    return Box(bounds)


def monomials(r, symbols, box, v):
    """The D^n v / n! over the box, in lexicographic order."""
    table = {}
    for idx in box.indices():
        if not any(idx):
            table[idx] = list(map(Fraction, v))
        else:
            s = next(k for k, e in enumerate(idx) if e)
            prev = idx[:s] + (idx[s] - 1,) + idx[s + 1:]
            table[idx] = [e / idx[s] for e in r.act(symbols[s], table[prev])]
        yield table[idx]


def span_dim(s2, symbols, box, yy):
    """Dimension of the span of every D^n(yy) over the doubled box."""
    span = PivotedSpan(s2.dim)
    for v in monomials(s2, symbols, box.doubled(), yy):
        span.add(v)
    return span.dim


def multi_pass_sequence(r, y):
    """The generator sequence of y, searched with re-scans; a failed search
    raises ``CapExceeded`` with the full span dimension."""
    s2 = r.sym_square()
    yy = yy_coords(y)
    closure = cyclic_closure(s2, yy)
    target = closure.subspace.dim
    words = tuple(closure.words)
    symbols = list(r.algebra.y_symbols())
    next_word = 0
    while True:
        box = nilpotency_bound(r, symbols, y)
        if span_dim(s2, symbols, box, yy) == target:
            break
        while next_word < len(words):
            fresh = [s for s in words[next_word] if not s.startswith("H")]
            next_word += 1
            if fresh:
                break
        else:
            raise CapExceeded(
                "sequence",
                "sequence search exhausted: closure words did not close the span",
                {"span_dim": span_dim(s2, symbols, box, yy),
                 "target_dim": target, "symbols": list(symbols)},
            )
        if len(symbols) + len(fresh) > MAX_SEQ_LEN:
            raise CapExceeded(
                "sequence",
                f"sequence length would exceed cap {MAX_SEQ_LEN}",
                {"span_dim": span_dim(s2, symbols, box, yy),
                 "target_dim": target, "length": len(symbols) + len(fresh)},
            )
        symbols.extend(fresh)
    changed = True
    while changed and len(symbols) > 1:
        changed = False
        for i in range(len(symbols) - 1, -1, -1):
            if len(symbols) == 1:
                break
            candidate = symbols[:i] + symbols[i + 1:]
            try:
                cand_box = nilpotency_bound(r, candidate, y)
            except CapExceeded:
                continue
            if span_dim(s2, candidate, cand_box, yy) == target:
                symbols = candidate
                changed = True
    return GenSeq(tuple(symbols), nilpotency_bound(r, symbols, y))
