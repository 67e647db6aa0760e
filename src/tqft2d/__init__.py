"""Tensor calculus for compact oriented surfaces with labelled boundary.

Surfaces are assigned dense tensors generated by a rank-1 disk tensor and a
fully symmetric rank-3 pair-of-pants tensor; gluing boundary circles is
index contraction.  The package checks the four classification relations,
verifies decomposition independence / functoriality / monoidality with
seeded suites, handles exact-rational and complex-float scalars, and ships a
CLI (``tqft2d``).
"""

from .errors import (
    BackendError,
    DimensionError,
    LabelError,
    OrientationError,
    ParseError,
    RelationError,
    TqftError,
)
from .functor import (
    Pants,
    PantsDecomposition,
    VerificationReport,
    annulus_tensor,
    apply_exchange,
    apply_gluing,
    apply_isomorphism,
    base_invariants,
    closed_invariant,
    exchange_moves,
    invariant,
    invariant_of_decomposition,
    pants_decomposition,
    random_glue_spec,
    random_rewrite,
    random_surface,
    verify_decomposition_invariance,
    verify_functoriality,
    verify_monoidal,
)
from .orientation import MINUS, PLUS, Orientation
from .surface import (
    BoundaryCircle,
    ConnectedSurface,
    GlueSpec,
    Surface,
    circle,
    circles,
    compose_glue,
    format_surface,
    parse_surface,
)
from .tensor import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    RATIONAL,
    LabeledTensor,
    SignedIndex,
    format_scalar,
    format_tensor,
    parse_scalar,
    parse_tensor,
)
from .tqft import (
    RelationReport,
    RelationResult,
    TqftData,
    check_relations,
    diagonal_family,
    format_tqft,
    grid_search_dim1,
    hermitian_check,
    parse_tqft,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError", "DimensionError", "LabelError", "OrientationError",
    "ParseError", "RelationError", "TqftError",
    "Orientation", "PLUS", "MINUS",
    "BoundaryCircle", "ConnectedSurface", "Surface", "GlueSpec",
    "circle", "circles", "compose_glue", "parse_surface", "format_surface",
    "LabeledTensor", "SignedIndex", "RATIONAL", "COMPLEX", "DEFAULT_TOLERANCE",
    "parse_tensor", "format_tensor", "parse_scalar", "format_scalar",
    "TqftData", "RelationReport", "RelationResult", "check_relations",
    "annulus_tensor", "base_invariants", "hermitian_check", "diagonal_family",
    "grid_search_dim1", "parse_tqft", "format_tqft",
    "Pants", "PantsDecomposition", "pants_decomposition", "exchange_moves",
    "apply_exchange", "random_rewrite", "invariant", "invariant_of_decomposition",
    "closed_invariant", "apply_gluing", "apply_isomorphism",
    "random_surface", "random_glue_spec", "VerificationReport",
    "verify_decomposition_invariance", "verify_functoriality", "verify_monoidal",
]
