"""The special linear Lie algebra sl(n) with its Chevalley generator triples.

For every positive root beta = (i, j) with i < j the catalog holds
X_beta = E_ij and Y_beta = E_ji; the Cartan part is spanned by the simple
coroots H_i = E_ii - E_{i+1,i+1}.  Every module downstream consumes the
algebra only through this catalog and the bracket, so other simple types
could be added by supplying the same structure data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import DimensionMismatch
from .linalg import Mat, QQ


@dataclass(frozen=True, order=True)
class Root:
    """Positive root of type A_{n-1}, identified by 1 <= i < j <= n."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"not a positive root: ({self.i}, {self.j})")


def x_symbol(beta: Root) -> str:
    return f"X({beta.i},{beta.j})"


def y_symbol(beta: Root) -> str:
    return f"Y({beta.i},{beta.j})"


def h_symbol(i: int) -> str:
    return f"H({i})"


def _unit(n: int, i: int, j: int) -> Mat:
    m = Mat.zero(n, n)
    m.data[i - 1][j - 1] = QQ(1)
    return m


class LieAlgebra:
    """sl(n) with a fixed, ordered generator catalog.

    Catalog order: all X_beta in lexicographic root order, then all Y_beta,
    then the simple H_i.  The order is part of the interface: it makes every
    generator-sequence construction deterministic.

    The simple X_i, Y_i generate sl(n) (Humphreys, Lie Algebras, 18), so a
    linear rho is a homomorphism once rho[s,b] = [rho s, rho b] for simple s
    and every b: L = {a : rho[a,b] = [rho a, rho b] for all b} is a subspace,
    by Jacobi closed under the bracket, and holds every simple s.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
        self.n = n
        self.positive_roots = [Root(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        self.positive_roots.sort()
        self.generators: dict[str, Mat] = {}
        for beta in self.positive_roots:
            self.generators[x_symbol(beta)] = _unit(n, beta.i, beta.j)
        for beta in self.positive_roots:
            self.generators[y_symbol(beta)] = _unit(n, beta.j, beta.i)
        for i in range(1, n):
            h = Mat.zero(n, n)
            h.data[i - 1][i - 1] = QQ(1)
            h.data[i][i] = QQ(-1)
            self.generators[h_symbol(i)] = h
        self.catalog = list(self.generators)

    def __repr__(self) -> str:
        return f"sl({self.n})"

    def x_symbols(self) -> list[str]:
        return [x_symbol(b) for b in self.positive_roots]

    def y_symbols(self) -> list[str]:
        return [y_symbol(b) for b in self.positive_roots]

    def h_symbols(self) -> list[str]:
        return [h_symbol(i) for i in range(1, self.n)]

    def xy_symbols(self) -> list[str]:
        return self.x_symbols() + self.y_symbols()

    def coroot(self, beta: Root) -> Mat:
        """H_beta = E_ii - E_jj, so that [X_beta, Y_beta] = H_beta."""
        h = Mat.zero(self.n, self.n)
        h.data[beta.i - 1][beta.i - 1] = QQ(1)
        h.data[beta.j - 1][beta.j - 1] = QQ(-1)
        return h

    @cached_property
    def simple_structure_constants(self) -> dict[tuple[str, str], dict[str, Fraction]]:
        """[a, b] expanded in the catalog for each pair a before b in catalog
        order with a simple member; computed once, from the nonzero entries."""
        simple = {f(Root(i, i + 1)) for i in range(1, self.n) for f in (x_symbol, y_symbol)}
        nonzero = {s: [(i, j, e) for i, row in enumerate(m.data) for j, e in enumerate(row) if e]
                   for s, m in self.generators.items()}
        out = {}
        for ia, a in enumerate(self.catalog):
            for b in self.catalog[ia + 1:]:
                if a not in simple and b not in simple:
                    continue
                entries: dict[tuple[int, int], Fraction] = {}
                for sign, left, right in ((1, a, b), (-1, b, a)):
                    for i, k, e in nonzero[left]:
                        for k2, j, f in nonzero[right]:
                            if k == k2:
                                entries[i, j] = entries.get((i, j), 0) + sign * e * f
                out[a, b] = self._expand(entries)
        return out

    def expand_in_catalog(self, m: Mat) -> dict[str, Fraction]:
        """Write a traceless n x n matrix as a combination of catalog entries.

        Off-diagonal entries map to X/Y coefficients directly; the diagonal
        (which must sum to zero) maps to the simple coroots via partial sums.
        """
        if m.rows != self.n or m.cols != self.n:
            raise DimensionMismatch("matrix is not n x n")
        if m.trace() != 0:
            raise ValueError("matrix is not traceless, cannot lie in sl(n)")
        return self._expand({(i, j): e for i, row in enumerate(m.data)
                             for j, e in enumerate(row) if e})

    def _expand(self, entries: dict[tuple[int, int], Fraction]) -> dict[str, Fraction]:
        """``expand_in_catalog`` of the traceless matrix with these entries."""
        coeffs: dict[str, Fraction] = {}
        for beta in self.positive_roots:
            a = entries.get((beta.i - 1, beta.j - 1))
            if a:
                coeffs[x_symbol(beta)] = a
            b = entries.get((beta.j - 1, beta.i - 1))
            if b:
                coeffs[y_symbol(beta)] = b
        partial = QQ(0)
        for i in range(1, self.n):
            partial += entries.get((i - 1, i - 1), 0)
            if partial:
                coeffs[h_symbol(i)] = partial
        return coeffs


@cache
def make_sl(n: int) -> LieAlgebra:
    """sl(n), built once per n: n determines the algebra, which is read-only."""
    return LieAlgebra(n)


def bracket(a: Mat, b: Mat) -> Mat:
    """Lie bracket ab - ba of two square matrices of equal size."""
    if a.rows != a.cols or (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("bracket needs two square matrices of equal size")
    return a * b - b * a
