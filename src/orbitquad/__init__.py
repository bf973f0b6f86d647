"""orbitquad: exact rational laboratory for quadric ideals of orbit closures.

Everything is computed over QQ with no tolerances: sl(n) modules, orbit
modules inside symmetric squares, their degree-two ideals, catalecticant
multi-matrices, the rank-one correspondence, and per-instance certification.
"""

from .errors import (
    CapExceeded,
    DimensionMismatch,
    GenericVectorError,
    OrbitquadError,
    RankOneError,
    SpecParseError,
    StructuralError,
    UnsupportedExpression,
)
from .linalg import (
    Mat,
    PivotedSpan,
    Scalar,
    Subspace,
    annihilator,
    format_scalar,
    parse_scalar,
    rank,
    rref,
    solve,
    subspace_combine,
    sym_square,
)
from .lie import LieAlgebra, Root, bracket, make_sl
from .reps import (
    Rep,
    act_word,
    cyclic_module,
    derived_rep,
    exp_nilpotent,
    highest_weight_vectors,
    isotypic_decomposition,
    standard_rep,
    weight_decomposition,
    weights_multiset,
)
from .multimatrix import (
    Box,
    Catalecticant,
    MultiMatrix,
    MultiVector,
    catalecticant,
    dot_span,
    mm_algebra,
    mu,
    mu_kernel,
    phi_A,
    rank_one_factor,
)
from .orbit import (
    CertReport,
    GenSeq,
    QuadraticIdeal,
    build_A,
    certify_irreducibility,
    decompose_Q,
    generator_sequence,
    hyperplane_check,
    leibniz_check,
    my_membership,
    nilpotency_bound,
    orbit_module,
    quadric_ideal,
    rank1_correspondence,
)
from .chordal import (
    ChordalSpec,
    chordal_ideal,
    chordal_sample,
    component_analysis,
    generic_vector,
    lemma_suma_check,
    sperner_bound,
)

__version__ = "0.1.0"
