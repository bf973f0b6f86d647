"""Restricted chordal varieties of Grassmannians and component bookkeeping.

The symmetric square of a wedge power splits into pairwise non-isomorphic
pieces Theta_0, Theta_2, ... (indexed here from the dominant end down).  The
p-restricted chordal variety is sampled by joining wedge vectors of two
k-planes meeting in dimension exactly max(k - 2p + 1, 0).  As the pieces are
pairwise non-isomorphic, a sample's orbit module is the sum of the pieces its
square projects onto: the degree-two ideal is read off these isotypic
supports and compared exactly with the tails of the decomposition.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import (CapExceeded, GenericVectorError, StructuralError,
                     UnsupportedExpression)
from .lie import make_sl
from .linalg import (QQ, Subspace, integer_rows, primitive, rank, sparse, vec_is_zero,
                     yy_coords)
from .orbit import QuadraticIdeal, ideal_of_module
from .reps import (
    IsotypicDecomposition,
    Rep,
    cyclic_module,
    derived_rep,
    isotypic_decomposition,
    standard_rep,
    weight_of,
)


def sperner_bound(s: int) -> int:
    """Largest family of pairwise-incomparable subsets of an s-element set."""
    if s < 1:
        raise ValueError("sperner_bound needs s >= 1")
    return comb(s, s // 2)


def lemma_suma_check(r: Rep, hw_selection) -> bool:
    """Whether the module generated by a sum of highest weight vectors of
    pairwise distinct weights is the direct sum of the pieces they generate."""
    weights = []
    for v in hw_selection:
        w = weight_of(r, v)
        for sym in r.algebra.chevalley[: r.algebra.n - 1]:
            if not vec_is_zero(r.act(sym, v)):
                raise ValueError("selection contains a non-highest-weight vector")
        if w in weights:
            raise ValueError(f"repeated weight {w} in selection")
        weights.append(w)
    total = [QQ(0)] * r.dim
    expected = 0
    for v in hw_selection:
        total = [a + QQ(b) for a, b in zip(total, v)]
        expected += cyclic_module(r, v).dim
    return cyclic_module(r, total).dim == expected


# ---------------------------------------------------------------------------
# chordal sampling

@dataclass(frozen=True)
class ChordalSpec:
    """Parameters of the p-restricted chordal variety of Gr(k) in QQ^n."""

    n: int
    k: int
    p: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.p < 1:
            raise ValueError("need p >= 1")
        # two k-planes meeting in meet_dim dimensions span 2k - meet_dim
        if 2 * self.k - self.meet_dim > self.n:
            raise ValueError("need 2k - meet_dim <= n")

    @property
    def meet_dim(self) -> int:
        """Generic intersection dimension of the two sampled planes."""
        return max(self.k - 2 * self.p + 1, 0)

    def wedge_rep(self) -> Rep:
        return derived_rep(standard_rep(make_sl(self.n)), "wedge", self.k)


def wedge_coordinates(vectors, n: int) -> list[Fraction]:
    """Coordinates of v_1 ^ ... ^ v_k in the lexicographic wedge basis.

    The vectors are scaled to integers over one common denominator D, so
    each coordinate is an integer k x k minor over D^k.  Each minor is
    expanded along v_1 over the minors of v_2, ..., v_k (Laplace), built up
    from v_k.
    """
    rows, den = integer_rows([dict(enumerate(v)) for v in vectors])
    minors = {(): 1}
    for m, v in enumerate(reversed(rows), start=1):
        minors = {
            s: sum((-1) ** t * v[j] * minors[s[:t] + s[t + 1:]]
                   for t, j in enumerate(s) if v[j])
            for s in itertools.combinations(range(n), m)
        }
    scale = den ** len(rows)
    return [Fraction(c, scale) for c in minors.values()]


def chordal_sample(spec: ChordalSpec, seed: int) -> list[Fraction]:
    """A point on a chord joining two planes meeting in dimension exactly
    max(k - 2p + 1, 0); deterministic per seed.  The planes are drawn as
    integer vectors, so their rank and wedges are computed in ints."""
    rng = random.Random(seed)
    n, k, d = spec.n, spec.k, spec.meet_dim

    def rand_vec():
        return [rng.randint(-3, 3) for _ in range(n)]

    for _ in range(200):
        shared = [rand_vec() for _ in range(d)]
        left = shared + [rand_vec() for _ in range(k - d)]
        right = shared + [rand_vec() for _ in range(k - d)]
        # left and right both lie in left + right[d:], so its full rank covers theirs
        if rank(left + right[d:]) != 2 * k - d:
            continue
        lam = QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        mu_ = QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        wl = wedge_coordinates(left, n)
        wr = wedge_coordinates(right, n)
        return [lam * a + mu_ * b for a, b in zip(wl, wr)]
    raise CapExceeded("chordal_resample", "could not sample planes with the "
                      f"required intersection dimension {d}", {"seed": seed})


@dataclass
class ChordalReport:
    """Outcome of the restricted-chordal ideal computation."""

    spec: ChordalSpec
    isotypic: IsotypicDecomposition
    ideal: QuadraticIdeal
    span_dim: int
    matched_tail: int | None
    samples_used: int
    seed: int

    @property
    def isotypic_dims(self) -> list[int]:
        return self.isotypic.dims()

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "k": self.spec.k,
            "p": self.spec.p,
            "meet_dim": self.spec.meet_dim,
            "isotypic": [
                {"index": i, "weight": list(c.weight), "dim": c.dim}
                for i, c in enumerate(self.isotypic.components)
            ],
            "span_dim": self.span_dim,
            "ideal_dim": self.ideal.dim,
            "matched_tail": self.matched_tail,
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


def chordal_ideal(spec: ChordalSpec, samples: int = 0, seed: int = 0) -> ChordalReport:
    """Degree-two ideal of the p-restricted chordal variety, by sampling.

    The span of the samples' orbit modules is the sum of the components
    their supports meet; sampling stops at the first sample after the first
    that meets no new one (its xx lies in the span).  ``matched_tail`` is m
    when the span is the sum of the first m components, else None.
    ``samples`` bounds the budget; 0 means four times dim S^2(V).
    """
    rep = spec.wedge_rep()
    s2 = rep.sym_square()
    decomp = isotypic_decomposition(s2)
    support = _projection_flags(decomp)
    budget = samples if samples > 0 else 4 * s2.dim
    rng = random.Random(seed)
    met: set[int] = set()
    for used in range(1, budget + 1):
        s = support(chordal_sample(spec, rng.randrange(1 << 30)))
        if used > 1 and s <= met:
            break
        met |= s
    else:
        raise CapExceeded(
            "stabilization",
            f"span still growing after {used} samples",
            {"samples": used, "span_dim": sum(decomp.components[i].dim for i in met)},
        )
    s_x = Subspace(s2.dim, [row for i in sorted(met)
                            for row in decomp.components[i].subspace._rows.values()])
    matched = len(met) if met == set(range(len(met))) else None
    return ChordalReport(spec, decomp, ideal_of_module(rep, s_x), s_x.dim, matched, used, seed)


# ---------------------------------------------------------------------------
# generic vectors and component analysis

def _projection_flags(decomp: IsotypicDecomposition):
    """The reader of the support of yy for a point y: the components onto
    which yy projects nonzero, the blocks of its nonzero coordinates on their
    rows (``IsotypicDecomposition.coordinates``, one elimination per
    decomposition).  The support is scale-invariant, so yy is read from the
    primitive integer multiple of y, in ints.  Multiplicity free, U(g).yy is
    then the sum of the components in the support; otherwise
    UnsupportedExpression."""
    if not decomp.multiplicity_free:
        raise UnsupportedExpression("symmetric square is not multiplicity free")
    coords = decomp.coordinates
    owner = [i for i, comp in enumerate(decomp.components) for _ in range(comp.dim)]

    def support(y) -> frozenset[int]:
        u = primitive(sparse(y)) or {}
        b = coords.of(yy_coords([u.get(j, 0) for j in range(len(y))]))
        if b is None:
            raise StructuralError("components do not span the symmetric square")
        return frozenset(owner[k] for k in b)
    return support


def generic_vector(r: Rep, sampler, decomp: IsotypicDecomposition,
                   tries: int = 60) -> list[Fraction]:
    """First sample whose symmetric square projects nonzero onto every component.

    ``sampler`` maps a trial index to a vector, deterministically.  When the
    sampler's locus misses some component the retry cap fires and the error
    carries the set of component indices that were reached.
    """
    projections = _projection_flags(decomp)
    reachable: set[int] = set()
    for t in range(tries):
        y = sampler(t)
        if vec_is_zero(y):
            continue
        support = projections(y)
        reachable |= support
        if len(support) == len(decomp.components):
            return list(map(QQ, y))
    raise GenericVectorError(frozenset(reachable), tries)


@dataclass
class ComponentReport:
    """Subset order of the isotypic supports of a family of points."""

    point_sets: list[frozenset[int]]
    merged: list[list[int]]  # groups of point indices with identical support
    containments: list[tuple[int, int]]  # (i, j) with M_{x_i} contained in M_{x_j}
    maximal_count: int
    free_indices: int
    bound: int
    bound_ok: bool
    details: dict = field(default_factory=dict)


def component_analysis(r: Rep, points) -> ComponentReport:
    """Containment order of the varieties M_{x_i} through isotypic supports.

    The support S_i of a point is the set of component indices with nonzero
    projection of x_i x_i^t; containment of varieties is reverse containment
    of ideals, i.e. S_i contained in S_j.  The number of maximal elements is
    checked against the antichain bound on the union of the supports.
    """
    if any(vec_is_zero(x) for x in points):
        raise ValueError("points must be nonzero")
    s2 = r.sym_square()
    decomp = isotypic_decomposition(s2)
    projections = _projection_flags(decomp)
    sets = [projections(x) for x in points]
    groups: dict[frozenset[int], list[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(s, []).append(i)
    containments = [
        (i, j)
        for i, si in enumerate(sets)
        for j, sj in enumerate(sets)
        if i != j and si <= sj
    ]
    distinct = list(groups)
    maximal = [s for s in distinct if not any(s < t for t in distinct)]
    union = frozenset().union(*sets) if sets else frozenset()
    free = len(union)
    bound = sperner_bound(free) if free else 1
    return ComponentReport(
        point_sets=sets,
        merged=sorted(groups.values()),
        containments=sorted(containments),
        maximal_count=len(maximal),
        free_indices=free,
        bound=bound,
        bound_ok=len(maximal) <= bound,
        details={"component_dims": decomp.dims()},
    )
