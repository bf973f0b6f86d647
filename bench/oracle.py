"""Answers the benchmark derives without orbitquad's closures.

Everything here is written from the module expression and from classical
facts, so it shares no code with the library's closure, decomposition or
ideal algorithms:

- weights of every basis vector, read off the expression in the library's
  basis order (standard basis, lexicographic subsets and multisets,
  row-major tensors, upper-triangle symmetric squares);
- multiplicities of irreducibles from the weight multiset, peeled with
  the Freudenthal recursion of ``tests/weyl_oracle.py`` (written for the
  tests on purpose apart from the closures), and their dimensions by the
  Weyl dimension formula there;
- group elements acting on a module, built functorially from an n x n
  matrix (minors for wedge powers, substitution for symmetric powers,
  Kronecker products, M -> g M g^t on symmetric squares);
- the classical invariants used to place the off-orbit points.

Weights of basis vectors are kept in epsilon coordinates (integer
n-tuples, read modulo the all-ones vector) and turned into Dynkin labels
before peeling and for comparison with the library.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path


def _load_weyl_oracle():
    """The tests' weight oracle (Freudenthal peeling, Weyl's formula), by path."""
    path = Path(__file__).resolve().parent.parent / "tests" / "weyl_oracle.py"
    spec = importlib.util.spec_from_file_location("weyl_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_weyl = _load_weyl_oracle()


# ---------------------------------------------------------------------------
# module expressions

def parse_expr(text: str):
    """Tree of std | dual(E) | wedge(k,E) | sym(k,E) | tensor(E,E) | sym2(E)."""
    text = text.replace(" ", "")
    tree, pos = _parse(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def _parse(text, pos):
    end = pos
    while end < len(text) and text[end].isalnum():
        end += 1
    name = text[pos:end]
    if name == "std":
        return ("std",), end
    if text[end:end + 1] != "(":
        raise ValueError(f"expected '(' after {name!r}")
    pos = end + 1
    if name in ("wedge", "sym"):
        comma = text.index(",", pos)
        k = int(text[pos:comma])
        inner, pos = _parse(text, comma + 1)
        node = (name, k, inner)
    elif name in ("dual", "sym2"):
        inner, pos = _parse(text, pos)
        node = (name, inner)
    elif name == "tensor":
        left, pos = _parse(text, pos)
        if text[pos:pos + 1] != ",":
            raise ValueError("tensor needs two factors")
        right, pos = _parse(text, pos + 1)
        node = (name, left, right)
    else:
        raise ValueError(f"unknown constructor {name!r}")
    if text[pos:pos + 1] != ")":
        raise ValueError(f"expected ')' at {pos}")
    return node, pos + 1


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def basis_weights(tree, n: int) -> list[tuple[int, ...]]:
    """Epsilon weight of each basis vector, in the library's basis order."""
    kind = tree[0]
    if kind == "std":
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if kind == "dual":
        return [tuple(-x for x in w) for w in basis_weights(tree[1], n)]
    if kind in ("wedge", "sym"):
        inner = basis_weights(tree[2], n)
        pick = itertools.combinations if kind == "wedge" else \
            itertools.combinations_with_replacement
        out = []
        for subset in pick(range(len(inner)), tree[1]):
            w = (0,) * n
            for i in subset:
                w = _add(w, inner[i])
            out.append(w)
        return out
    if kind == "tensor":
        left, right = basis_weights(tree[1], n), basis_weights(tree[2], n)
        return [_add(a, b) for a in left for b in right]
    if kind == "sym2":
        inner = basis_weights(tree[1], n)
        return [_add(inner[k], inner[m])
                for k in range(len(inner)) for m in range(k, len(inner))]
    raise ValueError(f"unknown node {tree!r}")


def dynkin(w) -> tuple[int, ...]:
    """Eigenvalues of the simple coroots E_ii - E_{i+1,i+1}."""
    return tuple(w[i] - w[i + 1] for i in range(len(w) - 1))


def weyl_dim(labels) -> int:
    """Weyl dimension formula for the sl(n) irreducible V(labels)."""
    return _weyl.weyl_dim(len(labels) + 1, tuple(labels))


@functools.lru_cache(maxsize=None)
def isotypic_expectation(expr: str, n: int):
    """Sorted (weight, multiplicity, dim) triples of the module's components."""
    weights = basis_weights(parse_expr(expr), n)
    multiset = Counter(dynkin(w) for w in weights)
    triples = sorted((lam, m, m * dim) for lam, m, dim in _weyl.peel(n, multiset))
    if sum(d for _, _, d in triples) != len(weights):
        raise AssertionError(f"oracle does not exhaust {expr}")
    return triples


def highest_weight_labels(expr: str, n: int, index: int) -> tuple[int, ...]:
    return dynkin(basis_weights(parse_expr(expr), n)[index])


# ---------------------------------------------------------------------------
# group elements acting on modules

def mat_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), F(0))
             for j in range(len(b[0]))] for row in a]


def mat_apply(m, v):
    return [sum((x * y for x, y in zip(row, v) if x), F(0)) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def det(rows) -> F:
    rows = [list(r) for r in rows]
    n = len(rows)
    out = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return out


def unipotent_word(rng: random.Random, n: int, length: int):
    """A seeded word of elementary unipotents (i, j, t): I + t E_ij, i != j."""
    word = []
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        word.append((i, j, F(rng.choice([-2, -1, 1, 2]))))
    return word


def lowering_word(rng: random.Random, n: int):
    """I + s E_{n,1}, and I + s' E_{n-1,1} when n > 2, with seeded signs.

    Every seed gives a translate with coefficients of the same size, so the
    cost of a job does not swing with the seed.
    """
    pairs = [(n - 1, 0)] + ([(n - 2, 0)] if n > 2 else [])
    return [(i, j, F(rng.choice((-1, 1)))) for i, j in pairs]


def inverse_word(word):
    return [(i, j, -t) for i, j, t in reversed(word)]


def module_matrix(tree, word, n: int):
    """Matrix of the group element prod (I + t E_ij) on the module."""
    kind = tree[0]
    if kind == "std":
        # the word is applied left to right as a product g = u_1 u_2 ... u_k
        g = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for i, j, t in reversed(word):
            g[i] = [a + t * b for a, b in zip(g[i], g[j])]
        return g
    if kind == "dual":
        return transpose(module_matrix(tree[1], inverse_word(word), n))
    if kind == "tensor":
        a, b = module_matrix(tree[1], word, n), module_matrix(tree[2], word, n)
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]
    if kind == "wedge":
        m = module_matrix(tree[2], word, n)
        subsets = list(itertools.combinations(range(len(m)), tree[1]))
        return [[det([[m[r][c] for c in cols] for r in rows]) for cols in subsets]
                for rows in subsets]
    if kind == "sym":
        m = module_matrix(tree[2], word, n)
        d = len(m)
        monos = list(itertools.combinations_with_replacement(range(d), tree[1]))
        index = {mono: i for i, mono in enumerate(monos)}
        out = [[F(0)] * len(monos) for _ in monos]
        for col, mono in enumerate(monos):
            poly = {(): F(1)}
            for s in mono:
                nxt: dict = {}
                for key, c in poly.items():
                    for r in range(d):
                        if m[r][s]:
                            k2 = tuple(sorted(key + (r,)))
                            nxt[k2] = nxt.get(k2, F(0)) + c * m[r][s]
                poly = nxt
            for key, c in poly.items():
                out[index[key]][col] += c
        return out
    if kind == "sym2":
        m = module_matrix(tree[1], word, n)
        d = len(m)
        pairs = [(k, l) for k in range(d) for l in range(k, d)]
        out = [[F(0)] * len(pairs) for _ in pairs]
        for col, (k, l) in enumerate(pairs):
            # image of the symmetric matrix E_kl + E_lk (or E_kk): g S g^t
            for row, (a, b) in enumerate(pairs):
                val = m[a][k] * m[b][l]
                if k != l:
                    val += m[a][l] * m[b][k]
                out[row][col] = val
        return out
    raise ValueError(f"unknown node {tree!r}")


# ---------------------------------------------------------------------------
# quadrics and invariants

def quadric_value(phi, x) -> F:
    """x^t phi x."""
    return sum((phi[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x))
                if phi[i][j]), F(0))


def parse_matrix(rows):
    return [[F(e) for e in row] for row in rows]


def cubic_discriminant(c) -> F:
    """Discriminant of c0 x^3 + c1 x^2 y + c2 x y^2 + c3 y^3."""
    a, b, cc, d = c
    return (b * b * cc * cc - 4 * a * cc ** 3 - 4 * b ** 3 * d
            + 18 * a * b * cc * d - 27 * a * a * d * d)


def _quartic_ij(c):
    # a x^4 + 4b x^3y + 6c x^2y^2 + 4d xy^3 + e y^4 in the monomial basis
    a, b, cc, d, e = c[0], F(c[1]) / 4, F(c[2]) / 6, F(c[3]) / 4, c[4]
    i = a * e - 4 * b * d + 3 * cc * cc
    j = a * cc * e + 2 * b * cc * d - a * d * d - b * b * e - cc ** 3
    return i, j


def quartic_invariant_i(c) -> F:
    """The degree-two invariant I of a binary quartic in monomial coordinates."""
    return _quartic_ij(c)[0]


def quartic_has_distinct_roots(c) -> bool:
    i, j = _quartic_ij(c)
    return i ** 3 != 27 * j * j and any(c)


def quartic_i_form():
    """Trace-pairing matrix of 12*I = 12 c0 c4 - 3 c1 c3 + c2^2."""
    phi = [[F(0)] * 5 for _ in range(5)]
    phi[0][4] = phi[4][0] = F(6)
    phi[1][3] = phi[3][1] = F(-3, 2)
    phi[2][2] = F(1)
    return phi


def ternary_quadric_det(c) -> F:
    """Determinant of the symmetric matrix of sum c_(ij) x_i x_j (i <= j)."""
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    q = [[F(0)] * 3 for _ in range(3)]
    for (i, j), v in zip(pairs, c):
        if i == j:
            q[i][i] = F(v)
        else:
            q[i][j] = q[j][i] = F(v) / 2
    return det(q)


def plucker(x) -> F:
    """p12 p34 - p13 p24 + p14 p23 in the lexicographic basis of wedge^2 QQ^4."""
    return x[0] * x[5] - x[1] * x[4] + x[2] * x[3]


def proportional(a, b) -> bool:
    """Whether two matrices are nonzero multiples of each other."""
    flat_a = [e for row in a for e in row]
    flat_b = [e for row in b for e in row]
    k = next((i for i, e in enumerate(flat_b) if e), None)
    if k is None or not flat_a[k]:
        return False
    ratio = flat_a[k] / flat_b[k]
    return all(x == ratio * y for x, y in zip(flat_a, flat_b))
