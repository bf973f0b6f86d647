"""The special linear Lie algebra sl(n) with its Chevalley generator triples.

For every positive root beta = (i, j) with i < j the catalog names X_beta
= E_ij and Y_beta = E_ji; the Cartan part is spanned by the simple coroots
H_i = E_ii - E_{i+1,i+1}.  The catalog is symbols, read off the root list;
the dense matrices are built only when ``LieAlgebra.generators`` is read.
A module needs only the Chevalley generators e_i = X(i,i+1), f_i =
Y(i,i+1) and h_i = H(i): the relations check them and build each other
root vector from one of lower height, so another simple type needs only
its catalog, Cartan matrix and those steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate

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
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
        self.n = n
        self.positive_roots = [Root(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        self.positive_roots.sort()
        self.catalog = [*self.x_symbols(), *self.y_symbols(), *self.h_symbols()]

    @cached_property
    def generators(self) -> dict[str, Mat]:
        """The catalog as dense n x n matrices, built on first read: X_beta =
        E_ij, Y_beta = E_ji, H_i = E_ii - E_{i+1,i+1}; treat as read-only."""
        n = self.n
        out = {x_symbol(b): _unit(n, b.i, b.j) for b in self.positive_roots}
        out |= {y_symbol(b): _unit(n, b.j, b.i) for b in self.positive_roots}
        for i in range(1, n):
            out[h_symbol(i)] = h = _unit(n, i, i)
            h.data[i][i] = QQ(-1)
        return out

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

    @cached_property
    def chevalley(self) -> list[str]:
        """e_1, ..., e_{n-1}, then f_1, ..., f_{n-1}, then h_1, ..., h_{n-1}:
        the generators of Serre's presentation (Humphreys, 18.1)."""
        simple = [Root(i, i + 1) for i in range(1, self.n)]
        return [*map(x_symbol, simple), *map(y_symbol, simple), *self.h_symbols()]

    @cached_property
    def relations(self) -> list[tuple[str, str, int, str]]:
        """The relations (a, b, c, s), each [a, b] = c s, that define sl(n): those
        of Humphreys, 18.1 on e_i = X(i,i+1), f_i = Y(i,i+1), h_i = H(i) but the
        cubic Serre ones, then the steps X(i,j) = [X(i,j-1), e_{j-1}] and
        Y(i,j) = [f_{j-1}, Y(i,j-1)], each after the step that builds the one it brackets."""
        r = range(1, self.n)
        e, f, h = (dict(zip(r, self.chevalley[k * (self.n - 1):])) for k in range(3))
        cartan = {(i, j): 2 if i == j else -int(abs(i - j) == 1) for i in r for j in r}
        out = [(h[i], h[j], 0, h[j]) for i, j in cartan if i < j]
        for (i, j), a in cartan.items():
            out += [(h[i], e[j], a, e[j]), (h[i], f[j], -a, f[j]), (e[i], f[j], int(i == j), h[i])]
        steps = [(Root(b.i, b.j - 1), b.j - 1, b) for b in self.positive_roots if b.j - b.i > 1]
        out += [(x_symbol(lower), e[k], 1, x_symbol(b)) for lower, k, b in steps]
        out += [(f[k], y_symbol(lower), 1, y_symbol(b)) for lower, k, b in steps]
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
        d = m.data
        # the catalog lists every X, then every Y, then H(1), ..., H(n-1)
        coeffs = [d[b.i - 1][b.j - 1] for b in self.positive_roots]
        coeffs += [d[b.j - 1][b.i - 1] for b in self.positive_roots]
        coeffs += accumulate(QQ(d[i][i]) for i in range(self.n - 1))
        return {s: c for s, c in zip(self.catalog, coeffs) if c}


@cache
def make_sl(n: int) -> LieAlgebra:
    """sl(n), built once per n: n determines the algebra, which is read-only."""
    return LieAlgebra(n)


def bracket(a: Mat, b: Mat) -> Mat:
    """Lie bracket ab - ba of two square matrices of equal size."""
    if a.rows != a.cols or (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("bracket needs two square matrices of equal size")
    return a * b - b * a
