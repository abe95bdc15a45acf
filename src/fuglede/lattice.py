"""Lifting the finite-group counterexample to a finite subset of Z^n.

The lifted set is the union over k in [0,M)^n of 3k + base, where the base
points live in {0,1,2}^n and are carried into Z^n coordinatewise (the
identification is deliberately not a homomorphism: no reduction mod 3 ever
happens on lattice points).  Its candidate spectrum consists of rational
frequencies (l + M*xi)/(3M) mod 1, and the certificates accept no other
denominator.  The character sum of the lift at a difference d is a
product: one geometric sum over the cell index per axis, times the sum
over the base cell.  So the set B of differences where it does not vanish
is M times the codes of Z_3^n where the base sum does not vanish, one
order-3 zero test each, and two frequencies can fail only inside one cell
class l, where xi - xi' decides: the certificate walks each class, reading
that table, without building a lattice point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, prod
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .cyclotomic import _root_counts, vanishing_sums
from .groups import GroupSpec
from .tiling import DivisibilityObstruction

Point = tuple[int, ...]
TABLE_BUDGET = 1 << 28  # bytes for a lift's rows and codes, or export's copies


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
    they have one length and each entry is an integer, no bool, that int64 holds."""
    try:
        out = np.array(rows) if len(rows) else np.zeros((0, 0), dtype=np.int64)
    except ValueError:  # rows of different lengths
        out = np.zeros(0)
    exact = out.dtype != bool and np.can_cast(out.dtype, np.int64)
    if out.ndim != 2 or out.size and not exact:
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
        """The numerators as a (count, n) array, checked to have n
        coordinates unless empty."""
        if len(self.numerators) and self.numerators.shape[1] != n:
            raise ValueError(f"frequencies must have {n} coordinates")
        return self.numerators.reshape(len(self.numerators), n)


class OrthoResult(NamedTuple):
    valid: bool
    witness: Optional[tuple[Point, Point]] = None
    pairs: int = 0


def _checked_base(base: Iterable[Point], what: str) -> tuple[Point, ...]:
    """Sorted distinct points of a nonempty subset of {0,1,2}^n."""
    rows = int64_rows(list(base), what)
    if not len(rows):
        raise ValueError(f"{what} must be nonempty")
    if ((rows < 0) | (rows > 2)).any():
        raise ValueError(f"{what} coordinates must lie in {{0,1,2}}")
    return tuple(sorted(set(map(tuple, rows.tolist()))))


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


def _lifted_rows(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """lambda1's (count, n) rows, refused first (ValueError) unless D = 3M."""
    if (denom := lambda1.denominator) != 3 * omega1.m:
        raise ValueError(f"denominator {denom} is not the lift's 3M = {3 * omega1.m}")
    return lambda1.rows(omega1.dimension)


def _nonvanishing_table(omega1: LatticeSet) -> np.ndarray:
    """Per code of Z_3^n (`_codes`), whether the base sum there does not
    vanish, 0 among them; ValueError from n = 13, past `GroupSpec.coords`."""
    n = omega1.dimension
    return ~vanishing_sums(np.array(omega1.base), GroupSpec.power(3, n).coords, 3)


def _codes(rows: np.ndarray, denom: int) -> np.ndarray:
    """The code of each integer row mod denom (row-major digits)."""
    return np.ravel_multi_index(rows.T, (denom,) * rows.shape[1], mode="wrap")


def _in_b(diffs: np.ndarray, m_scale: int, table: np.ndarray) -> np.ndarray:
    """Whether each row d of numerator differences over 3M lies in B: every
    digit is a multiple of M and the table holds at d // M in Z_3^n."""
    return ~(diffs % m_scale).any(axis=1) & table[_codes(diffs // m_scale, 3)]


def pair_verdicts_direct(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """The verdict of every frequency pair, in itertools.combinations order:
    whether its difference lies outside B; for the tests' cross-checks."""
    nums, table = _lifted_rows(omega1, lambda1), _nonvanishing_table(omega1)
    i, j = np.triu_indices(len(nums), 1)
    return ~_in_b(nums[j] - nums[i], omega1.m, table)


def _distinct_rows(nums: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Each distinct row once, in (x mod M, x // M) key order: its first
    index, whether it repeats, its class code and its xi = x // M digits."""
    digits, n = nums.astype(np.min_scalar_type(3 * m)), nums.shape[1]
    key = np.ravel_multi_index((*(digits % m).T, *(digits // m).T), (m,) * n + (3,) * n)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0  # keys are >= 0
    first, hit = order[new], (np.diff(key, append=-1) == 0)[new]
    return first, hit, key[new] // 3**n, (digits[first] // m).astype(np.int8)


def verify_ortho_lattice(omega1: LatticeSet, lambda1: FrequencySet) -> OrthoResult:
    """Valid iff every distinct frequency pair has vanishing character sum
    over omega1, i.e. no difference lies in B (`_in_b`); ValueError unless
    the denominator is 3M.  A failing pair lies in one cell class x mod M.

    Each distinct row is kept once (`_distinct_rows`): a repeated row fails,
    as 0 is in B, and a class then holds at most 3^n rows.  For offsets
    t = 1, 2, ..., while some kept row shares its class with the one t
    places on, both rows are marked where the table holds at their xi
    difference.  B is closed under d -> -d, so the first row whose kept row
    is marked is the first row of a failing pair; its row search gives the
    witness, the first failing pair in combinations order."""
    nums, table = _lifted_rows(omega1, lambda1), _nonvanishing_table(omega1)
    first, hit, cell, xi = _distinct_rows(nums, omega1.m)
    t, pairs = 1, comb(len(nums), 2)
    while len(p := np.flatnonzero(cell[t:] == cell[:-t])):
        p = p[table[_codes(xi[p + t] - xi[p], 3)]]
        hit[p] = hit[p + t] = True
        t += 1
    if hit.any():
        i = int(first[hit].min())
        row = _in_b(nums[i + 1 :] - nums[i], omega1.m, table)
        witness = nums[[i, i + 1 + int(np.argmax(row))]].tolist()
        return OrthoResult(False, tuple(map(tuple, witness)), pairs)
    return OrthoResult(True, pairs=pairs)


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
