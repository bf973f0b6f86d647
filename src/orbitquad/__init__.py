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
    sym_square,
)
from .lie import LieAlgebra, Root, bracket, make_sl
from .reps import (
    Rep,
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
    MultiMatrix,
    MultiVector,
    catalecticant,
    catalecticant_to_vector,
    mu,
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
    forward_correspondence,
    generator_sequence,
    hyperplane_check,
    leibniz_check,
    my_membership,
    nilpotency_bound,
    orbit_module,
    quadric_ideal,
    reverse_correspondence,
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

__all__ = [
    "CapExceeded", "DimensionMismatch", "GenericVectorError", "OrbitquadError",
    "RankOneError", "SpecParseError", "StructuralError",
    "UnsupportedExpression", "Mat", "PivotedSpan", "Scalar", "Subspace",
    "annihilator", "format_scalar", "parse_scalar", "rank", "rref", "solve",
    "sym_square", "LieAlgebra", "Root", "bracket", "make_sl", "Rep",
    "cyclic_module", "derived_rep",
    "exp_nilpotent", "highest_weight_vectors", "isotypic_decomposition",
    "standard_rep", "weight_decomposition", "weights_multiset", "Box",
    "catalecticant_to_vector", "MultiMatrix", "MultiVector", "catalecticant",
    "mu", "phi_A", "rank_one_factor", "CertReport", "GenSeq",
    "QuadraticIdeal", "build_A", "certify_irreducibility", "decompose_Q",
    "forward_correspondence", "generator_sequence", "hyperplane_check",
    "leibniz_check", "my_membership", "nilpotency_bound", "orbit_module",
    "quadric_ideal", "reverse_correspondence", "ChordalSpec", "chordal_ideal",
    "chordal_sample", "component_analysis", "generic_vector",
    "lemma_suma_check", "sperner_bound",
]

__version__ = "0.1.0"
