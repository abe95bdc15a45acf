"""Exact toolkit for spectral sets and translational tilings in finite
abelian groups, the integer lattice, and Euclidean space."""

from .cyclotomic import CyclotomicInt, cyclotomic_polynomial
from .groups import GroupSpec
from .spectra import (
    SpectrumSearch,
    SpectrumVerification,
    find_spectrum,
    fourier_zero_set,
    fuglede_scan,
    is_spectrum,
)
from .tiling import (
    DivisibilityObstruction,
    TilingResult,
    divisibility_check,
    find_tiling,
    verify_tiling,
)
from .hadamard import (
    ButsonMatrix,
    descend,
    pad_dimension,
    paper_h6,
    paper_h12,
    spectrum_from_butson,
    verify_butson,
)
from .lattice import (
    FrequencySet,
    LatticeSet,
    build_lambda1,
    build_omega1,
    cell_count_check,
    density_check,
    torus_non_tiling,
    verify_ortho_lattice,
    window_count,
)
from .continuum import (
    CubeUnion,
    ExtendedFrequency,
    build_omega2,
    export_geometry,
    inner_product_is_zero,
    load_geometry,
    verify_spectrum_truncation,
)

__all__ = [
    "ButsonMatrix",
    "CubeUnion",
    "CyclotomicInt",
    "DivisibilityObstruction",
    "ExtendedFrequency",
    "FrequencySet",
    "GroupSpec",
    "LatticeSet",
    "SpectrumSearch",
    "SpectrumVerification",
    "TilingResult",
    "build_lambda1",
    "build_omega1",
    "build_omega2",
    "cell_count_check",
    "cyclotomic_polynomial",
    "density_check",
    "descend",
    "divisibility_check",
    "export_geometry",
    "find_spectrum",
    "find_tiling",
    "fourier_zero_set",
    "fuglede_scan",
    "inner_product_is_zero",
    "is_spectrum",
    "load_geometry",
    "pad_dimension",
    "paper_h6",
    "paper_h12",
    "spectrum_from_butson",
    "torus_non_tiling",
    "verify_butson",
    "verify_ortho_lattice",
    "verify_spectrum_truncation",
    "verify_tiling",
    "window_count",
]

__version__ = "0.1.0"
