"""Shared exception types.

Every structured failure mode of the library maps to one of these, so callers
(and the command line front end) can translate them into stable exit codes.
"""

from __future__ import annotations


class OrbitquadError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OrbitquadError):
    """Operands live in incompatible spaces (shape or ambient dimension)."""


class SpecParseError(OrbitquadError):
    """Malformed textual input: rational literal, vector, or expression."""


class UnsupportedExpression(OrbitquadError):
    """Syntactically valid input requesting something the library does not build."""


class CapExceeded(OrbitquadError):
    """A desk-scale guardrail was hit (box size, sequence length, retries).

    ``kind`` names the cap; ``details`` carries exact diagnostic data such as
    the partial dimension reached before giving up.
    """

    def __init__(self, kind: str, message: str, details: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.details = details or {}


class StructuralError(OrbitquadError):
    """An identity the theory guarantees failed to hold; carries a witness.

    Raising this means either the inputs violated a contract upstream or there
    is a bug; it is never swallowed silently.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class RankOneError(OrbitquadError):
    """A matrix had no projective rank-one factor u u^t.

    ``kind`` is ``"zero"`` for the zero matrix, ``"not rank one"`` when the
    rank is two or more, and ``"not symmetric"`` for a matrix that is not
    symmetric.
    """

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class GenericVectorError(CapExceeded):
    """Sampling never produced a vector with all isotypic projections nonzero.

    ``reachable`` is the set of component indices the sampler's locus did hit.
    """

    def __init__(self, reachable: frozenset[int], tries: int):
        super().__init__(
            "generic_vector_retries",
            f"no sample with all projections nonzero after {tries} tries",
            {"reachable": sorted(reachable), "tries": tries},
        )
        self.reachable = reachable
