"""Reference routes that no command runs: the tests compare the package
against them, or use them to build inputs."""

from __future__ import annotations

import cmath
import itertools
from functools import reduce
from typing import Iterable, Iterator, Optional

import numpy as np

from fuglede import tiling
from fuglede.cyclotomic import CyclotomicInt, reduction_matrix
from fuglede.groups import Element, GroupSpec
from fuglede.lattice import FrequencySet, LatticeSet, Point
from fuglede.spectra import ScanRecord, _class_blocks, find_spectrum
from fuglede.spectra import fourier_zero_set

_EXACT = 1 << 24  # float32 holds every integer in [0, 2^24] exactly


def to_complex(value: CyclotomicInt) -> complex:
    """Floating-point evaluation of an exact sum of roots of unity."""
    m = value.order
    return sum(
        c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(value.coeffs) if c
    )


def vanishing_table(omega1: LatticeSet, denom: int) -> np.ndarray:
    """Whether the character sum over omega1.points vanishes at d, for every
    d in Z_denom^n, as a bool array indexed by the row-major code of d: the
    dense reference for `lattice`'s factorized certificate, which never
    reads the points.

    The sums are the n-dimensional DFT of the points' counts mod denom, taken
    exactly in Z[omega] = Z[x]/Phi_denom(x) in the basis 1, ..., omega^(phi-1)
    one axis at a time (the row-column scheme of I. J. Good, JRSS B 20, 1958):
    with R = `reduction_matrix(denom)`, an axis step is one float32 product
    with S[(x, f), (d, e)] = R[(f + d x) mod denom, e], exact as R's entries
    lie in {-1, 0, 1}, so every partial sum is at most phi #points < 2^24.
    One d_0 at a time, the x_0 axis takes the rows R[d_0 x mod denom], the
    others use two reused buffers; a sum vanishes iff all its phi terms do.
    """
    n = omega1.dimension
    r, points = reduction_matrix(denom), omega1.points
    if (phi := r.shape[1]) * len(points) >= _EXACT:
        raise ValueError(f"{len(points)} points: sums beyond float32's exact integers")
    m, size, x = denom, denom**n, np.arange(denom)
    rest, rows = size // m, size // m // m  # codes per d_0 block; rows per step
    step = r[(np.arange(phi)[:, None] + np.outer(x, x)[:, None]) % m].astype(np.float32)
    counts = np.zeros(size, dtype=np.float32)  # exact: each count < 2^24
    np.add.at(counts, np.ravel_multi_index((points % m).T, (m,) * n), 1)
    counts = counts.reshape(m, rest).T  # [x_1..x_{n-1}, x_0]
    a, b = np.empty(rest * phi, dtype=np.float32), np.empty(rest * phi, dtype=np.float32)
    out = np.empty((m, rest), dtype=bool)
    for d0 in range(m):
        np.matmul(counts, step[:, 0, d0], out=a.reshape(rest, phi))
        for _ in range(n - 1):  # a is [x_k, ..., x_{n-1}, d_1, ..., d_{k-1}, e]
            np.copyto(b.reshape(rows, m, phi), a.reshape(m, rows, phi).transpose(1, 0, 2))
            np.matmul(b.reshape(rows, -1), step.reshape(m * phi, -1), out=a.reshape(rows, -1))
        out[d0] = ~a.reshape(rest, phi).any(axis=1)
    return out.reshape(size)


def table_pair_verdicts(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Every pair's verdict in itertools.combinations order, gathered from
    `vanishing_table` at the pair's difference."""
    denom, nums = lambda1.denominator, lambda1.rows(omega1.dimension)
    i, j = np.triu_indices(len(nums), 1)
    if not len(i):
        return np.zeros(0, dtype=bool)
    shape = (denom,) * nums.shape[1]
    codes = np.ravel_multi_index((nums[j] - nums[i]).T, shape, mode="wrap")
    return vanishing_table(omega1, denom)[codes]


def pair_verdicts_factored(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Every pair's verdict in itertools.combinations order, one pair at a
    time from the factorization: the geometric sum over the cell index
    vanishes whenever the l parts differ; otherwise xi - xi' decides, by
    membership in the Fourier zero set of the base in Z_3^n."""
    m_scale, n = omega1.m, omega1.dimension
    zero_set = fourier_zero_set(GroupSpec.power(3, n), omega1.base)
    out = []
    for ni, nj in itertools.combinations(lambda1.rows(n).tolist(), 2):
        if any((vj - vi) % m_scale for vi, vj in zip(ni, nj)):  # l parts differ
            out.append(True)
        else:
            dxi = tuple((vj // m_scale - vi // m_scale) % 3 for vi, vj in zip(ni, nj))
            out.append(dxi in zero_set)
    return np.array(out, dtype=bool)


def counted_cells(omega1: LatticeSet) -> bool:
    """Whether every aligned cell 3k + {0,1,2}^n, k in [0,M)^n, holds exactly
    #base of omega1.points, counted one axis at a time: the reference for
    `lattice.cell_count_check`, which decides from (base, M)."""
    pts, m = omega1.points, omega1.m
    if pts.min() < 0 or pts.max() >= 3 * m:
        return False
    cells = reduce(lambda index, column: index * m + column // 3, pts.T, 0)
    per_cell = np.bincount(cells, minlength=m**omega1.dimension)
    return bool((per_cell == len(omega1.base)).all())


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
    elements = list(map(tuple, g.coords.tolist()))
    for member in _class_blocks(g, size_filter):
        for row in member.tolist():
            yield frozenset(itertools.compress(elements, row))


def scan_class(g: GroupSpec, T: frozenset[Element]) -> ScanRecord:
    """One class through both searches: the reference for scan_records."""
    spec, tile = find_spectrum(g, T), tiling.find_tiling(g, T)
    elements = tuple(sorted(T))  # rank order is lexicographic order
    return ScanRecord(
        elements, spec.spectral, tile.tiles,
        spec.spectrum, tile.complement, tile.obstruction,
    )
