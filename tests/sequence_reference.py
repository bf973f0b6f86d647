"""Multi-pass generator-sequence search, used only by tests as a reference.

This is the search the library ran before its pruning became a single pass:
it closes yy itself, filters coroots out of the closure words, and re-scans
the whole sequence after every pass that dropped a letter, catching a box
cap on each candidate.  It shares ``nilpotency_bound`` and the monomial
table of the library, and nothing of its search.
"""

from orbitquad.errors import CapExceeded
from orbitquad.linalg import PivotedSpan, yy_coords
from orbitquad.orbit import MAX_SEQ_LEN, GenSeq, _normalized_entries, nilpotency_bound
from orbitquad.reps import cyclic_closure


def _span_dim(s2, symbols, box, yy):
    span = PivotedSpan(s2.dim)
    for _, v in _normalized_entries(s2, symbols, box.doubled(), yy):
        span.add(v)
    return span.dim


def multi_pass_sequence(r, y, max_box=None):
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
        box = nilpotency_bound(r, symbols, y, max_box=max_box)
        if _span_dim(s2, symbols, box, yy) == target:
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
                {"span_dim": _span_dim(s2, symbols, box, yy),
                 "target_dim": target, "symbols": list(symbols)},
            )
        if len(symbols) + len(fresh) > MAX_SEQ_LEN:
            raise CapExceeded(
                "sequence",
                f"sequence length would exceed cap {MAX_SEQ_LEN}",
                {"span_dim": _span_dim(s2, symbols, box, yy),
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
                cand_box = nilpotency_bound(r, candidate, y, max_box=max_box)
            except CapExceeded:
                continue
            if _span_dim(s2, candidate, cand_box, yy) == target:
                symbols = candidate
                changed = True
    return GenSeq(tuple(symbols), nilpotency_bound(r, symbols, y, max_box=max_box))
