"""tubeforge: inner tube volumes of self-similar sprays, two independent ways.

A spray is a disjoint union of scaled copies of a monophase generator,
one copy per word over a ratio list.  The package evaluates the inner
eps-tube volume exactly from the scaling sequence (the direct oracle) and
as a truncated residue sum over the complex dimensions (the Mellin-side
tube formula), and checks that the two agree.
"""

from .complexdims import (
    LatticeStructure,
    ZeroSet,
    count_zeros_rectangle,
    detect_lattice,
    find_complex_dimensions,
    lattice_zeros,
    refine_zero,
)
from .direct import (
    DirectExpansion,
    direct_tube_volume,
    factor_multiplicities,
    functional_equation_residual,
)
from .errors import (
    BoundaryProximityError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    PoleProximityError,
    ResourceLimitError,
    SprayValidationError,
    StripError,
    TubeforgeError,
    WindowError,
)
from .model import (
    MonophaseGenerator,
    RatioList,
    SprayModel,
    ValidationReport,
    generator_tube_volume,
    load_spray,
    spray_from_dict,
    total_spray_volume,
    validate_spray,
)
from .moran import SimilarityDimension, similarity_dimension
from .tubeformula import (
    ResidueExpansion,
    TubeEvaluation,
    compare,
    inverse_mellin_numeric,
    mellin_numerator,
    tube_volume_residues,
    window_for_pairs,
    zero_residue,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryProximityError",
    "ConfigError",
    "ConvergenceError",
    "DirectExpansion",
    "DivergenceError",
    "DomainError",
    "LatticeStructure",
    "MonophaseGenerator",
    "PoleProximityError",
    "RatioList",
    "ResidueExpansion",
    "ResourceLimitError",
    "SimilarityDimension",
    "SprayModel",
    "SprayValidationError",
    "StripError",
    "TubeEvaluation",
    "TubeforgeError",
    "ValidationReport",
    "WindowError",
    "ZeroSet",
    "compare",
    "count_zeros_rectangle",
    "detect_lattice",
    "direct_tube_volume",
    "factor_multiplicities",
    "find_complex_dimensions",
    "functional_equation_residual",
    "generator_tube_volume",
    "inverse_mellin_numeric",
    "lattice_zeros",
    "load_spray",
    "mellin_numerator",
    "refine_zero",
    "similarity_dimension",
    "spray_from_dict",
    "total_spray_volume",
    "tube_volume_residues",
    "validate_spray",
    "window_for_pairs",
    "zero_residue",
]
