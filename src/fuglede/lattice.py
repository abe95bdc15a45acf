"""Lifting the finite-group counterexample to a finite subset of Z^n.

The lifted set is the union over k in [0,M)^n of 3k + base, where the base
points live in {0,1,2}^n and are carried into Z^n coordinatewise (the
identification is deliberately not a homomorphism: no reduction mod 3 ever
happens on lattice points).  Its candidate spectrum consists of rational
frequencies (l + M*xi)/(3M) mod 1.  The character sum of the lift at a
difference d is a product: one geometric sum over the cell index per axis,
times the sum over the base cell.  So the differences where it does not
vanish lie in {0, M, 2M}^n for the denominator 3M, one exact order-3M zero
test over the base points decides them, and the certificate looks every
frequency pair up against that set without building a lattice point.  The
per-pair `pair_verdicts_factored` (the Fourier zero set of the base in
Z_3^n) is an independent route to the same verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, prod
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .cyclotomic import MAX_ORDER, _root_counts, vanishing_sums
from .groups import GroupSpec
from .spectra import fourier_zero_set
from .tiling import DivisibilityObstruction

Point = tuple[int, ...]
TABLE_BUDGET = 1 << 28  # bytes for the certificate's rows and membership table


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
    nums = nums[np.lexsort(nums.T[::-1])]  # frees the unsorted rows
    return FrequencySet(3 * m_scale, nums)


def _geometric_zeros(denom: int, m_scale: int) -> np.ndarray:
    """Per residue r mod denom, whether sum_{j<M} w^(3rj), w = exp(2 pi i /
    denom), vanishes: iff w^(3r) != 1 = w^(3rM)."""
    r = np.arange(denom)
    return (3 * r % denom != 0) & (3 * r * m_scale % denom == 0)


def _nonvanishing_codes(omega1: LatticeSet, denom: int) -> np.ndarray:
    """Sorted codes (`_codes`) of the set B of d in Z_denom^n where the sum
    over omega1 does not vanish, d = 0 (#points) first.  The sum is the
    product of one geometric sum over the cell index per axis and the sum
    C(d) over the base, so B is the d in L^n, L the residues of no geometric
    zero, with C(d) != 0: one `vanishing_sums` call over the base, on the
    3^n candidates {0, M, 2M}^n when denom = 3M.  ValueError for an order
    the kernel refuses, or if two int64 copies of the candidates and
    `_paired_rows`' table over Z_denom^n pass TABLE_BUDGET."""
    if not 1 <= denom <= MAX_ORDER:
        raise ValueError(f"unsupported root order {denom}")
    n, live = omega1.dimension, np.flatnonzero(~_geometric_zeros(denom, omega1.m))
    if (need := denom**n + 16 * n * len(live) ** n) > TABLE_BUDGET:
        raise ValueError(f"Z_{denom}^{n} needs {need >> 20} MiB, beyond the budget")
    candidates = live[np.indices((len(live),) * n).reshape(n, -1).T]
    keep = ~vanishing_sums(np.array(omega1.base), candidates, denom)
    return _codes(candidates[keep], denom)


def _codes(rows: np.ndarray, denom: int) -> np.ndarray:
    """The code of each integer row mod denom (row-major digits)."""
    return np.ravel_multi_index(rows.T, (denom,) * rows.shape[1], mode="wrap")


def pair_verdicts_direct(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """The verdict of every frequency pair, in itertools.combinations order:
    whether its difference lies outside B; for the tests' cross-checks."""
    denom, nums = lambda1.denominator, lambda1.rows(omega1.dimension)
    bad, (i, j) = _nonvanishing_codes(omega1, denom), np.triu_indices(len(nums), 1)
    codes = _codes(nums[j] - nums[i], denom) if len(i) else i  # (0, 0): no pairs
    return ~np.isin(codes, bad)


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
    over omega1, i.e. no difference lies in B (`_nonvanishing_codes`).  B
    is closed under d -> -d, so a row is in a failing pair iff it repeats
    another row or its numerator plus some b != 0 in B is another row's
    (`_paired_rows`); the first such row holds the witness, the first
    failing pair in combinations order, and only it is read.  For
    |B| >= count / 2 the rows are walked from the first.  The tests check
    the verdicts against `pair_verdicts_factored` and a dense table."""
    denom, nums = lambda1.denominator, lambda1.rows(omega1.dimension)
    bad, count = _nonvanishing_codes(omega1, denom), len(nums)
    rows: Iterable[int] = range(count - 1)
    if 2 * len(bad) < count:
        rows = np.flatnonzero(_paired_rows(nums, bad, denom))[:1]
    for i in rows:
        codes = _codes(nums[i + 1 :] - nums[i], denom)
        row = bad.take(np.searchsorted(bad, codes), mode="clip") == codes
        if row.any():
            witness = nums[[i, i + 1 + int(np.argmax(row))]].tolist()
            return OrthoResult(False, tuple(map(tuple, witness)), comb(count, 2))
    return OrthoResult(True, pairs=comb(count, 2))


def _paired_rows(nums: np.ndarray, bad: np.ndarray, denom: int) -> np.ndarray:
    """Per row x, whether x + b is a row for some b in B (sorted, so b = 0
    first): for b = 0 the first of two equal sorted codes, else a gather
    from a bool membership table over Z_denom^n.  The code of x + b is
    T_b[hi(x)] + U_b[lo(x)]: hi and lo are the first h = n // 2 digits of
    x's code and the rest, and T_b, U_b the codes of all such digits plus
    b's, outer sums of one wrapped stride table per axis."""
    codes, n, h = _codes(nums, denom), nums.shape[1], nums.shape[1] // 2
    present = np.zeros(denom**n, dtype=bool)
    present[codes] = True
    order = np.argsort(codes, kind="stable")
    hit = np.zeros(len(nums), dtype=bool)
    hit[order[:-1][codes[order[1:]] == codes[order[:-1]]]] = True
    high, low = np.divmod(codes, denom ** (n - h))
    del codes, order
    wrapped = np.arange(2 * denom) % denom * denom ** np.arange(n - 1, -1, -1)[:, None]
    for b in np.column_stack(np.unravel_index(bad[1:], (denom,) * n)):
        parts = [wrapped[k, b[k] : b[k] + denom] for k in range(n)]
        t, u = (np.ravel(reduce(np.add.outer, s, 0)) for s in (parts[:h], parts[h:]))
        hit |= present[t[high] + u[low]]
    return hit


def character_sum_lattice(omega1: LatticeSet, deltas, denom: int) -> np.ndarray:
    """sum over x in omega1 of omega_denom ** (d . x) for each row d of the
    (k, n) integer array deltas, exactly: the (k, denom) int64 root
    multiplicities that `vanishing` decides, from `_root_counts`."""
    return _root_counts(omega1.points, deltas, denom)


def cell_count_check(omega1: LatticeSet) -> bool:
    """Every aligned cell 3k + {0,1,2}^n, k in [0,M)^n, must hold exactly
    #base points.  The lift puts 3k + b in cell k for b in {0,1,2}^n, and a
    point b outside that range out of the box on some axis, so this holds
    iff the base points are distinct and lie in {0,1,2}^n."""
    base = omega1.base
    return len(set(base)) == len(base) and all(0 <= c <= 2 for b in base for c in b)


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
