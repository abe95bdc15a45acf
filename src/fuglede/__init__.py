"""Exact toolkit for spectral sets and translational tilings in finite
abelian groups, the integer lattice, and Euclidean space.

The public names are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is asked for, so `import fuglede.cli` and a
scan load none of `hadamard`, `lattice` or `continuum`.
"""

import importlib

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "cyclotomic": "CyclotomicInt cyclotomic_polynomial",
        "groups": "GroupSpec",
        "spectra": "SpectrumSearch SpectrumVerification find_spectrum"
        " fourier_zero_set fuglede_scan is_spectrum",
        "tiling": "DivisibilityObstruction TilingResult divisibility_check"
        " find_tiling",
        "hadamard": "ButsonMatrix descend paper_h6 paper_h12"
        " spectrum_from_butson verify_butson",
        "lattice": "FrequencySet LatticeSet build_lambda1 build_omega1"
        " cell_count_check density_check torus_non_tiling verify_ortho_lattice",
        "continuum": "CubeUnion ExtendedFrequency build_omega2 export_geometry"
        " inner_product_is_zero load_geometry verify_spectrum_truncation",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
