"""Lifting the finite-group counterexample to a finite subset of Z^n.

The lifted set is the union over k in [0,M)^n of 3k + base, where the base
points live in {0,1,2}^n and are carried into Z^n coordinatewise (the
identification is deliberately not a homomorphism: no reduction mod 3 ever
happens on lattice points).  Its candidate spectrum consists of rational
frequencies (l + M*xi)/(3M) mod 1.  Orthogonality of every frequency pair
is decided exactly with order-3M cyclotomic integers; a factorized fast
path (the geometric sum over k kills every pair with distinct l parts) is
available as an independent route to the same verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, prod
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .cyclotomic import _EXACT, MAX_ORDER, _root_counts, reduction_matrix
from .groups import GroupSpec
from .spectra import fourier_zero_set
from .tiling import DivisibilityObstruction

Point = tuple[int, ...]
TABLE_BUDGET = 1 << 28  # bytes for the verdict table; admits the lifts up to M = 8


@dataclass(frozen=True)
class LatticeSet:
    """The lifted set: the union over cells k in [0,M)^n of 3k + base."""

    base: tuple[Point, ...]
    m: int

    @property
    def dimension(self) -> int:
        return len(self.base[0])

    @cached_property
    def points(self) -> np.ndarray:
        """All #base * M^n points as one read-only (#base * M^n, n) int64
        array in cell-major order; built on first read and cached."""
        pts = _lift(np.array(self.base, dtype=np.int64), self.m, 3)
        pts.flags.writeable = False
        return pts


def int64_rows(rows, what: str) -> np.ndarray:
    """A read-only 2-D int64 copy of rows, (0, 0) if empty; ValueError unless
    every entry is an integer that int64 holds exactly."""
    out = np.array(rows) if len(rows) else np.zeros((0, 0), dtype=np.int64)
    if out.ndim != 2 or out.size and not np.can_cast(out.dtype, np.int64):
        raise ValueError(f"{what} must be rows of integers")
    out = out.astype(np.int64, copy=False)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FrequencySet:
    """Rational frequency vectors mod 1 with a common denominator; the
    numerators are a read-only (count, n) int64 array, one row each."""

    denominator: int
    numerators: np.ndarray

    def __post_init__(self) -> None:
        nums, denom = int64_rows(self.numerators, "numerators"), self.denominator
        if type(denom) is not int or ((nums < 0) | (nums >= denom)).any():
            raise ValueError("numerators must be reduced mod an integer denominator")
        object.__setattr__(self, "numerators", nums)

    def rows(self, n: int) -> np.ndarray:
        """The numerators, checked to have n coordinates unless empty."""
        if len(self.numerators) and self.numerators.shape[1] != n:
            raise ValueError(f"frequencies must have {n} coordinates")
        return self.numerators


class OrthoResult(NamedTuple):
    valid: bool
    witness: Optional[tuple[Point, Point]] = None
    pairs: int = 0


def _checked_base(base: Iterable[Point], what: str) -> tuple[Point, ...]:
    """Sorted distinct points of a nonempty subset of {0,1,2}^n."""
    base = tuple(sorted(set(base)))
    if not base:
        raise ValueError(f"{what} must be nonempty")
    if any(not all(0 <= c <= 2 for c in b) for b in base):
        raise ValueError(f"{what} coordinates must lie in {{0,1,2}}")
    return base


def _lift(base: np.ndarray, m_scale: int, step: int) -> np.ndarray:
    """Rows step*k + b for k in [0,M)^n (outer, lexicographic) and b in
    base (inner)."""
    n = base.shape[1]
    cells = np.indices((m_scale,) * n).reshape(n, -1).T
    return (step * cells[:, None, :] + base).reshape(-1, n)


def build_omega1(base: Iterable[Point], m_scale: int) -> LatticeSet:
    """Union over k in [0,M)^n of 3k + base, inside [0,3M)^n."""
    return LatticeSet(_checked_base(base, "base set"), m_scale)


def build_lambda1(base_spec: Iterable[Point], m_scale: int) -> FrequencySet:
    """Frequencies (l + M*xi)/(3M) mod 1 for l in [0,M)^n, xi in the base
    spectrum; all share denominator 3M.  Distinct (l, xi) give distinct
    numerators, since l = v mod M and xi = v // M."""
    xi = np.array(_checked_base(base_spec, "base spectrum"), dtype=np.int64)
    nums = _lift(m_scale * xi, m_scale, 1)
    return FrequencySet(3 * m_scale, nums[np.lexsort(nums.T[::-1])])


def check_table_budget(denom: int, n: int) -> None:
    """ValueError unless the zero test has order denom and the table over
    Z_denom^n fits TABLE_BUDGET: 32 bytes per code bound its counts, verdicts
    and block buffers of phi <= denom terms, plus 4 denom^4 for the (denom phi)^2 matrix."""
    if not 1 <= denom <= MAX_ORDER:
        raise ValueError(f"unsupported root order {denom}")
    if (need := 32 * denom**n + 4 * denom**4) > TABLE_BUDGET:
        raise ValueError(
            f"verdict table over Z_{denom}^{n} needs about {need >> 20} MiB, "
            f"beyond its {TABLE_BUDGET >> 20} MiB budget"
        )


def _vanishing_table(omega1: LatticeSet, denom: int) -> np.ndarray:
    """Whether the character sum over omega1.points vanishes at d, for every
    d in Z_denom^n, as a bool array indexed by the code of d (`_codes`).

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
    check_table_budget(denom, n)
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


def _codes(rows: np.ndarray, denom: int) -> np.ndarray:
    """The table code of each integer row mod denom (row-major digits)."""
    return np.ravel_multi_index(rows.T, (denom,) * rows.shape[1], mode="wrap")


def pair_verdicts_direct(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """The verdict of every frequency pair, in itertools.combinations order,
    gathered from the table; for the cross-check with the factored route."""
    denom, nums = lambda1.denominator, lambda1.rows(omega1.dimension)
    table = _vanishing_table(omega1, denom)
    i, j = np.triu_indices(len(nums), 1)
    return table[_codes(nums[j] - nums[i], denom)] if len(i) else np.zeros(0, bool)


def pair_verdicts_factored(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Same verdicts via the factorization: the geometric sum over the cell
    index vanishes whenever the l parts differ; otherwise xi - xi' decides,
    by membership in the Fourier zero set of the base in Z_3^n."""
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


def verify_ortho_lattice(omega1: LatticeSet, lambda1: FrequencySet) -> OrthoResult:
    """Valid iff every distinct frequency pair has vanishing character sum
    over omega1, read off the table of all differences.  The nonvanishing
    codes B are closed under d -> -d, so a row is in a failing pair iff its
    numerator plus some b in B is another row's (|B| x count lookups); the
    first such row holds the witness, the first failing pair in
    combinations order, and only it is read.  For |B| >= count / 2 the rows
    are walked from the first.  The tests check the verdicts against
    `pair_verdicts_factored`."""
    denom, nums = lambda1.denominator, lambda1.rows(omega1.dimension)
    table, count = _vanishing_table(omega1, denom), len(nums)
    rows: Iterable[int] = range(count - 1)
    if 2 * len(bad := np.flatnonzero(~table)) < count:
        present = np.bincount(_codes(nums, denom), minlength=len(table))
        hit = np.zeros(count, dtype=bool)
        digits = np.column_stack(np.unravel_index(bad, (denom,) * nums.shape[1]))
        for code, b in zip(bad, digits):
            hit |= present[_codes(nums + b, denom)] > (code == 0)  # 0: a repeat
        rows = np.flatnonzero(hit)[:1]
    for i in rows:
        row = table[_codes(nums[i + 1 :] - nums[i], denom)]
        if not row.all():
            witness = nums[[i, i + 1 + int(np.argmin(row))]].tolist()
            return OrthoResult(False, tuple(map(tuple, witness)), comb(count, 2))
    return OrthoResult(True, pairs=comb(count, 2))


def character_sum_lattice(omega1: LatticeSet, deltas, denom: int) -> np.ndarray:
    """sum over x in omega1 of omega_denom ** (d . x) for each row d of the
    (k, n) integer array deltas, exactly: the (k, denom) int64 root
    multiplicities that `vanishing` decides, stacked from `_root_counts`."""
    counts = list(_root_counts(omega1.points, deltas, denom))
    return np.concatenate(counts) if counts else np.zeros((0, denom), dtype=np.int64)


def cell_count_check(omega1: LatticeSet) -> bool:
    """Every aligned cell 3k + {0,1,2}^n, k in [0,M)^n, must hold exactly
    #base points, counted from the points one axis at a time (no full copy)."""
    pts, m = omega1.points, omega1.m
    if pts.min() < 0 or pts.max() >= 3 * m:
        return False
    cells = reduce(lambda index, column: index * m + column // 3, pts.T, 0)
    per_cell = np.bincount(cells, minlength=m**omega1.dimension)
    return bool((per_cell == len(omega1.base)).all())


class DensityReport(NamedTuple):
    windows: int
    nonzero_windows: int
    min_density: Fraction
    max_density: Fraction
    tolerance: Fraction
    target: Fraction
    ok: bool

    def to_json(self) -> dict:
        """Every field, with the Fractions as strings."""
        fields = self._asdict().items()
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in fields}


def density_check(
    omega1: LatticeSet, window: int, stride: int = 1
) -> DensityReport:
    """Densities of the windows of side `window` with corners on the stride
    grid inside the support box [0,3M)^n, every one checked against 6/3^n
    (generally #base/3^n) within 12/window; counts are exact integers, and
    only the extreme densities become Fractions."""
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    n = omega1.dimension
    span = 3 * omega1.m
    if window > span:
        raise ValueError("window larger than the support box")
    target = Fraction(len(omega1.base), 3**n)
    tolerance = Fraction(12, window)
    positions = range(0, span - window + 1, stride)
    # The lift is 3-periodic inside its box, so a window's count depends only
    # on its corner's residues mod 3: [s, s + window) holds per[c][r] integers
    # = r (mod 3) whenever s = c (mod 3). window >= 3 makes every per[c][r] >= 1,
    # so every window holds at least #base points and none is empty.
    per = [[(window - (r - c) % 3 + 2) // 3 for r in range(3)] for c in range(3)]
    residues = {p % 3 for p in positions[:3]}
    counts = [
        sum(prod(per[c][r] for c, r in zip(corner, b)) for b in omega1.base)
        for corner in itertools.product(residues, repeat=n)
    ]
    lo = Fraction(min(counts), window**n)
    hi = Fraction(max(counts), window**n)
    # Every density lies in [lo, hi], so testing both ends suffices.
    ok = abs(lo - target) <= tolerance and abs(hi - target) <= tolerance
    windows = len(positions) ** n
    return DensityReport(windows, windows, lo, hi, tolerance, target, ok)


def torus_non_tiling(omega1: LatticeSet) -> Optional[DivisibilityObstruction]:
    """Divisibility certificate that omega1 cannot tile the torus
    (Z/3MZ)^n; weaker than non-tiling of Z^n, and documented as such."""
    n = omega1.dimension
    torus_order = (3 * omega1.m) ** n
    size = len(omega1.base) * omega1.m**n
    if torus_order % size != 0:
        return DivisibilityObstruction(size, torus_order)
    return None
