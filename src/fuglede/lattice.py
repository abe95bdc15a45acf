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
from math import gcd
from typing import Iterable, Optional

import numpy as np

from .cyclotomic import MAX_ORDER, CyclotomicInt, vanishing_sums
from .groups import GroupSpec
from .spectra import fourier_zero_set
from .tiling import DivisibilityObstruction

Point = tuple[int, ...]


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


@dataclass(frozen=True)
class OrthoResult:
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


def pair_verdicts_direct(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Exact zero/nonzero verdict of the character sum over omega1 for every
    unordered frequency pair, by direct summation.

    A verdict depends only on d = (nu_j - nu_i) mod denom.  For u prime to
    denom, omega -> omega^u is an automorphism of Q(omega_denom), so the sum
    at d vanishes iff the sum at u*d mod denom does (Washington, GTM 83,
    ch. 2).  Pass 1 marks the distinct d row by row in a dense denom^n
    table; one representative per Galois orbit (the least code of u*d) is
    summed over all points by the batched kernel `vanishing_sums`, and the
    verdicts are copied back through the table; pass 2 recomputes each
    row's codes and reads its verdicts off the table.
    """
    denom, n, count = lambda1.denominator, omega1.dimension, len(lambda1.numerators)
    if not 1 <= denom <= MAX_ORDER:  # before the denom^n table is allocated
        raise ValueError(f"unsupported root order {denom}")
    nums, shape = lambda1.rows(n), (denom,) * n
    # The code of d is sum_k d_k * denom^(n-1-k), its index in the table.
    # terms[k][a, j] is the axis-k term of the code of (nums[j] - a) mod denom,
    # so a row's codes are n slices added, with no per-row modulo.
    values, place = np.arange(denom)[:, None], denom ** np.arange(n - 1, -1, -1)
    terms = [(column - values) % denom * w for column, w in zip(nums.T, place)]

    def row_codes(i: int) -> np.ndarray:
        return sum(term[a, i + 1 :] for term, a in zip(terms, nums[i]))

    table = np.zeros(denom**n, dtype=bool)
    for i in range(count - 1):
        table[row_codes(i)] = True
    codes = np.flatnonzero(table)
    digits = np.stack(np.unravel_index(codes, shape))
    rep = codes.copy()
    for u in range(2, denom):
        if gcd(u, denom) == 1:
            np.minimum(rep, np.ravel_multi_index(digits * u % denom, shape), out=rep)
    del digits
    verdict = np.zeros(denom**n, dtype=bool)
    verdict[rep] = True
    # Orbit representatives as small-int rows in code order, that of verdict[verdict].
    reps = np.argwhere(verdict.reshape(shape)).astype(np.min_scalar_type(denom))
    verdict[verdict] = vanishing_sums(omega1.points, reps, denom)
    table[table] = verdict[rep]
    out = np.empty(count * (count - 1) // 2, dtype=bool)
    for i in range(count - 1):
        start = i * (2 * count - i - 1) // 2  # rows 0..i-1 hold this many pairs
        out[start : start + count - 1 - i] = table[row_codes(i)]
    return out


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
    over omega1, by the direct exact summation; the tests check its verdicts
    against the independent route `pair_verdicts_factored`."""
    verdicts = pair_verdicts_direct(omega1, lambda1)
    if bool(verdicts.all()):
        return OrthoResult(True, pairs=len(verdicts))
    # Verdicts are in itertools.combinations order: (0,1), (0,2), ..., (1,2), ...
    pairs = itertools.combinations(lambda1.numerators.tolist(), 2)
    witness = next(itertools.islice(pairs, int(np.argmin(verdicts)), None))
    return OrthoResult(False, tuple(map(tuple, witness)), len(verdicts))


def character_sum_lattice(
    omega1: LatticeSet, delta: Point, denom: int
) -> CyclotomicInt:
    """sum over x in omega1 of omega_denom ** (delta . x), exactly."""
    exps = omega1.points @ np.asarray(delta, dtype=np.int64) % denom
    return CyclotomicInt(denom, tuple(np.bincount(exps, minlength=denom).tolist()))


def cell_count_check(omega1: LatticeSet) -> bool:
    """Every aligned cell 3k + {0,1,2}^n, k in [0,M)^n, must hold exactly
    #base points, counted from the points one axis at a time (no full copy)."""
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


@dataclass(frozen=True)
class DensityReport:
    windows: int
    nonzero_windows: int
    min_density: Fraction
    max_density: Fraction
    tolerance: Fraction
    target: Fraction
    ok: bool

    def to_json(self) -> dict:
        return {
            "windows": self.windows,
            "nonzero_windows": self.nonzero_windows,
            "min_density": str(self.min_density),
            "max_density": str(self.max_density),
            "tolerance": str(self.tolerance),
            "target": str(self.target),
            "ok": self.ok,
        }


def density_check(
    omega1: LatticeSet, window: int, stride: int = 1
) -> DensityReport:
    """Exhaust windows of side `window` inside the support box [0,3M)^n and
    check every nonzero density against 6/3^n (generally #base/3^n) within
    12/window; counts are exact integers, and only the extreme densities
    become Fractions."""
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    n = omega1.dimension
    span = 3 * omega1.m
    if window > span:
        raise ValueError("window larger than the support box")
    target = Fraction(len(omega1.base), 3**n)
    tolerance = Fraction(12, window)
    positions = range(0, span - window + 1, stride)
    # One first-axis coordinate at a time keeps P^(n-1) counts in memory.
    # Every window of side >= 3 in the box meets each residue class on each
    # axis, so some window is nonzero and lows is never empty.
    nonzero, lows, highs = 0, [], []
    for a in positions:
        counts = _window_counts(omega1, [[a]] + [positions] * (n - 1), window)
        hit = counts[counts > 0]
        if hit.size:
            nonzero += hit.size
            lows.append(int(hit.min()))
            highs.append(int(hit.max()))
    lo = Fraction(min(lows), window**n)
    hi = Fraction(max(highs), window**n)
    # Every nonzero density lies in [lo, hi], so testing both ends suffices.
    ok = abs(lo - target) <= tolerance and abs(hi - target) <= tolerance
    windows = len(positions) ** n
    return DensityReport(windows, nonzero, lo, hi, tolerance, target, ok)


def torus_non_tiling(omega1: LatticeSet) -> Optional[DivisibilityObstruction]:
    """Divisibility certificate that omega1 cannot tile the torus
    (Z/3MZ)^n; weaker than non-tiling of Z^n, and documented as such."""
    n = omega1.dimension
    torus_order = (3 * omega1.m) ** n
    size = len(omega1.base) * omega1.m**n
    if torus_order % size != 0:
        return DivisibilityObstruction(size, torus_order)
    return None
