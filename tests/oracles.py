"""Reference routes that no command runs: the tests compare the package
against them, or use them to build inputs."""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator, Optional

from fuglede import tiling
from fuglede.cyclotomic import CyclotomicInt
from fuglede.groups import Element, GroupSpec
from fuglede.lattice import LatticeSet, Point, _window_counts
from fuglede.spectra import ScanRecord, _class_blocks, _record, find_spectrum


def to_complex(value: CyclotomicInt) -> complex:
    """Floating-point evaluation of an exact sum of roots of unity."""
    m = value.order
    return sum(
        c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(value.coeffs) if c
    )


def window_count(omega1: LatticeSet, t: Point, x0: Point, window: int) -> int:
    """#((t + omega1) on (x0 + [0,window)^n)), exact, from (base, M) alone."""
    corner = [[a - b] for a, b in zip(x0, t)]
    return int(_window_counts(omega1, corner, window).sum())


def pad_dimension(
    g: GroupSpec,
    T: Iterable[Element],
    L: Iterable[Element],
    new_dim: int,
) -> tuple[GroupSpec, frozenset[Element], frozenset[Element]]:
    """Zero-extend a spectral pair in Z_q^n to Z_q^{n'} for n' >= n."""
    q = g.moduli[0]
    if any(n != q for n in g.moduli):
        raise ValueError("padding needs a homogeneous group Z_q^n")
    if new_dim < g.ndim:
        raise ValueError(f"cannot pad {g.ndim} dimensions down to {new_dim}")
    extra = (0,) * (new_dim - g.ndim)
    g2 = GroupSpec.power(q, new_dim)
    T2 = frozenset(x + extra for x in T)
    L2 = frozenset(xi + extra for xi in L)
    return g2, T2, L2


def canonical_classes(
    g: GroupSpec, size_filter: Optional[int] = None
) -> Iterator[frozenset[Element]]:
    """Nonempty subsets up to translation, one representative per class.

    The representative is the minimum-mask translate containing 0, masks
    read over element ranks.  With a size filter only the masks of that
    popcount are walked, in the same increasing order.
    """
    for classes, _ in _class_blocks(g, size_filter):
        yield from map(frozenset, classes)


def scan_class(g: GroupSpec, T: frozenset[Element]) -> ScanRecord:
    """One class through both searches: the reference for scan_records."""
    elements = tuple(sorted(T))  # rank order is lexicographic order
    return _record(elements, find_spectrum(g, T), tiling.find_tiling(g, T))
