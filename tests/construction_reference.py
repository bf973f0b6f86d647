"""Dense module constructions, used only by tests as a reference.

These are the constructions the library ran before it stored actions as
sparse columns: each fills a dense d x d grid of ``Fraction``s from the
parent module's dense ``action`` matrices and wraps it in a ``Mat``.  They
share nothing with the library's constructions but ``sym_pairs``, the
coordinate convention of the symmetric square.

``all_pairs_homomorphism_check`` is the homomorphism check on every pair of
catalog symbols, which the library ran before it checked the pairs with a
simple member, and then only the defining relations of sl(n).  The mutant
test holds the library's check to it.
"""

import itertools
from fractions import Fraction

from orbitquad.errors import StructuralError
from orbitquad.lie import bracket
from orbitquad.linalg import Mat, QQ, sym_pairs
from orbitquad.reps import Rep


def all_pairs_homomorphism_check(r: Rep) -> None:
    """rho([a,b]) = [rho(a), rho(b)] on dense matrices for every pair a before
    b in catalog order; raises StructuralError at the first that fails."""
    g, rho = r.algebra, r.action
    for i, a in enumerate(g.catalog):
        for b in g.catalog[i + 1:]:
            want = Mat.zero(r.dim, r.dim)
            for s, c in g.expand_in_catalog(bracket(g.generators[a], g.generators[b])).items():
                want = want + rho[s].scale(c)
            if rho[a] * rho[b] - rho[b] * rho[a] != want:
                raise StructuralError(f"action is not a Lie homomorphism on ({a}, {b})")


def sym_pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(sym_pairs(n))}


def _dual_action(r: Rep) -> dict[str, Mat]:
    return {s: m.transpose().scale(QQ(-1)) for s, m in r.action.items()}


def _wedge_action(r: Rep, k: int):
    basis = list(itertools.combinations(range(r.dim), k))
    index = {b: i for i, b in enumerate(basis)}
    action = {}
    for sym, rho in r.action.items():
        out = [[QQ(0)] * len(basis) for _ in range(len(basis))]
        for cidx, subset in enumerate(basis):
            for pos, s in enumerate(subset):
                for m in range(r.dim):
                    a = rho.data[m][s]
                    if not a:
                        continue
                    if m == s:
                        out[cidx][cidx] += a
                        continue
                    if m in subset:
                        continue
                    rest = subset[:pos] + subset[pos + 1:]
                    new = tuple(sorted(rest + (m,)))
                    sign = (-1) ** (pos - new.index(m))
                    out[index[new]][cidx] += sign * a
        action[sym] = Mat(out)
    labels = ["^".join(r.basis_labels[i] for i in b) for b in basis]
    return action, labels


def _sym_action(r: Rep, k: int):
    basis = list(itertools.combinations_with_replacement(range(r.dim), k))
    index = {b: i for i, b in enumerate(basis)}
    action = {}
    for sym, rho in r.action.items():
        out = [[QQ(0)] * len(basis) for _ in range(len(basis))]
        for cidx, mon in enumerate(basis):
            for s in set(mon):
                mult = mon.count(s)
                pos = mon.index(s)
                rest = mon[:pos] + mon[pos + 1:]
                for m in range(r.dim):
                    a = rho.data[m][s]
                    if a:
                        new = tuple(sorted(rest + (m,)))
                        out[index[new]][cidx] += mult * a
        action[sym] = Mat(out)
    labels = [".".join(r.basis_labels[i] for i in b) for b in basis]
    return action, labels


def _tensor_action(r1: Rep, r2: Rep):
    n1, n2 = r1.dim, r2.dim
    action = {}
    for sym in r1.algebra.catalog:
        a, b = r1.action[sym], r2.action[sym]
        out = [[QQ(0)] * (n1 * n2) for _ in range(n1 * n2)]
        for i in range(n1):
            for j in range(n2):
                col = i * n2 + j
                for m in range(n1):
                    if a.data[m][i]:
                        out[m * n2 + j][col] += a.data[m][i]
                for m in range(n2):
                    if b.data[m][j]:
                        out[i * n2 + m][col] += b.data[m][j]
        action[sym] = Mat(out)
    labels = [f"{x}(x){y}" for x in r1.basis_labels for y in r2.basis_labels]
    return action, labels


def _sym2_action(r: Rep):
    """Action on S^2(V) realized as symmetric matrices, M -> rho M + M rho^t."""
    n = r.dim
    pairs = sym_pairs(n)
    index = sym_pair_index(n)
    action = {}
    for sym, rho in r.action.items():
        out = [[QQ(0)] * len(pairs) for _ in range(len(pairs))]
        for cidx, (k, m) in enumerate(pairs):
            # C = rho . (E_km + E_mk); the result is C + C^t
            c_entries: dict[tuple[int, int], Fraction] = {}
            for a in range(n):
                v = rho.data[a][k]
                if v:
                    c_entries[(a, m)] = c_entries.get((a, m), QQ(0)) + v
                if k != m:
                    v = rho.data[a][m]
                    if v:
                        c_entries[(a, k)] = c_entries.get((a, k), QQ(0)) + v
            accum: dict[tuple[int, int], Fraction] = {}
            for (a, b), v in c_entries.items():
                if a == b:
                    # C and C^t both contribute on the diagonal
                    accum[(a, a)] = accum.get((a, a), QQ(0)) + 2 * v
                else:
                    key = (a, b) if a < b else (b, a)
                    accum[key] = accum.get(key, QQ(0)) + v
            for key, v in accum.items():
                out[index[key]][cidx] += v
        action[sym] = Mat(out)
    labels = [f"{r.basis_labels[k]}.{r.basis_labels[m]}" for k, m in pairs]
    return action, labels


def dense_construction(r: Rep, kind: str, k=None, other=None):
    """(action, basis labels) of ``derived_rep(r, kind, k, other)``, built densely."""
    if kind == "dual":
        return _dual_action(r), [f"{x}'" for x in r.basis_labels]
    if kind == "wedge":
        return _wedge_action(r, k)
    if kind == "sym":
        return _sym_action(r, k)
    if kind == "tensor":
        return _tensor_action(r, other)
    if kind == "sym2":
        return _sym2_action(r)
    raise ValueError(f"unknown construction {kind!r}")
