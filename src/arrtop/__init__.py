"""Exact twisted Betti numbers of complexified-real hyperplane
arrangement complements, computed from the Salvetti model, plus a
theorem-derived verification harness over a reproducible corpus."""

from .fields import FieldSpec, parse_rational
from .geometry import (
    Arrangement,
    ArrangementError,
    GenericityError,
    Hyperplane,
    betti_numbers,
    characteristic_polynomial,
    decone,
    essentialize,
    generic_section,
    intersection_poset,
    localize,
    validate_arrangement,
    zero_flats,
)
from .realfaces import enumerate_faces, region_counts
from .localsys import (
    LocalSystem,
    LocalSystemError,
    build_local_system,
    decone_system,
    is_trivial,
    restrict,
    scalar_system,
    total_turn,
)
from .salvetti import (
    SalvettiComplex,
    build_salvetti,
    twisted_betti,
    twisted_complex,
    untwisted_homology,
)
from .exactla import ChainComplexError, FMatrixSparse, complex_dims, rank
from .harness import (
    CorpusSpec,
    PreconditionError,
    generate_corpus,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "ArrangementError", "ChainComplexError", "CorpusSpec",
    "FMatrixSparse", "FieldSpec", "GenericityError", "Hyperplane",
    "LocalSystem", "LocalSystemError", "PreconditionError", "SalvettiComplex",
    "betti_numbers", "build_local_system", "build_salvetti",
    "characteristic_polynomial", "complex_dims", "decone", "decone_system",
    "enumerate_faces", "essentialize", "generate_corpus", "generic_section",
    "intersection_poset", "is_trivial", "localize", "parse_rational", "rank",
    "region_counts", "restrict", "run_verification", "scalar_system",
    "total_turn", "twisted_betti", "twisted_complex", "untwisted_homology",
    "validate_arrangement", "zero_flats",
]
