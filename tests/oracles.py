"""Reference routes that no command runs: the tests compare the package
against them, or use them to build inputs."""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator, Optional

import numpy as np

from fuglede import tiling
from fuglede.cyclotomic import CyclotomicInt
from fuglede.groups import Element, GroupSpec
from fuglede.lattice import LatticeSet, Point
from fuglede.spectra import ScanRecord, _class_blocks, _record, find_spectrum


def to_complex(value: CyclotomicInt) -> complex:
    """Floating-point evaluation of an exact sum of roots of unity."""
    m = value.order
    return sum(
        c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(value.coeffs) if c
    )


def _window_counts(omega1: LatticeSet, corners, window: int) -> np.ndarray:
    """Exact #(omega1 on (x0 + [0,window)^n)) for every corner x0 in the
    grid corners[0] x ... x corners[n-1], as an int64 array of that shape.

    Per axis, a (residue x start) table counts the cell indices k in [0,M)
    with start <= 3k + residue < start + window; a window count is the sum
    over base points of the product of their per-axis counts.
    """
    residue = np.arange(3)[:, None]
    tables = []
    for starts in corners:
        starts = np.asarray(starts, dtype=np.int64)
        lo = np.clip(-(-(starts - residue) // 3), 0, omega1.m)
        hi = np.clip(-(-(starts + window - residue) // 3), 0, omega1.m)
        tables.append(np.maximum(hi - lo, 0))
    total = 0
    for b in omega1.base:
        term = tables[0][b[0]]
        for table, c in zip(tables[1:], b[1:]):
            term = np.multiply.outer(term, table[c])
        total = total + term
    return total


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
