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
from typing import Iterable, Optional

import numpy as np

from .cyclotomic import CyclotomicInt, vanishing
from .groups import Element, GroupSpec
from .tiling import DivisibilityObstruction

Point = tuple[int, ...]


@dataclass(frozen=True)
class LatticeSet:
    """A finite set of integer vectors, optionally carrying the cell
    structure (base, M) it was built from."""

    points: tuple[Point, ...]
    base: Optional[tuple[Point, ...]] = None
    m: Optional[int] = None

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def structured(self) -> bool:
        return self.base is not None and self.m is not None

    def without_point(self, p: Point) -> LatticeSet:
        pts = tuple(x for x in self.points if x != p)
        if len(pts) == len(self.points):
            raise ValueError(f"{p} not in the set")
        return LatticeSet(pts)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.points]


@dataclass(frozen=True)
class FrequencySet:
    """Rational frequency vectors mod 1 with a common denominator."""

    denominator: int
    numerators: tuple[Point, ...]

    def __post_init__(self) -> None:
        if any(
            not all(0 <= v < self.denominator for v in num)
            for num in self.numerators
        ):
            raise ValueError("numerators must be reduced mod the denominator")

    def to_json(self) -> dict:
        return {
            "denominator": self.denominator,
            "numerators": [list(n) for n in self.numerators],
        }

    @classmethod
    def from_json(cls, obj: dict) -> FrequencySet:
        return cls(
            int(obj["denominator"]),
            tuple(tuple(int(v) for v in n) for n in obj["numerators"]),
        )


@dataclass(frozen=True)
class OrthoResult:
    valid: bool
    witness: Optional[tuple[Point, Point]] = None
    pairs: int = 0


def build_omega1(base: Iterable[Element], m_scale: int) -> LatticeSet:
    """Union over k in [0,M)^n of 3k + base, inside [0,3M)^n."""
    base = tuple(sorted(set(base)))
    if not base:
        raise ValueError("base set must be nonempty")
    n = len(base[0])
    if any(not all(0 <= c <= 2 for c in b) for b in base):
        raise ValueError("base points must lie in {0,1,2}^n")
    points = []
    for k in itertools.product(range(m_scale), repeat=n):
        for b in base:
            points.append(tuple(3 * kj + bj for kj, bj in zip(k, b)))
    points = tuple(sorted(points))
    assert len(points) == len(base) * m_scale**n
    return LatticeSet(points, base=base, m=m_scale)


def build_lambda1(base_spec: Iterable[Element], m_scale: int) -> FrequencySet:
    """Frequencies (l + M*xi)/(3M) mod 1 for l in [0,M)^n, xi in the base
    spectrum; all share denominator 3M."""
    base_spec = tuple(sorted(set(base_spec)))
    if not base_spec:
        raise ValueError("base spectrum must be nonempty")
    n = len(base_spec[0])
    if any(not all(0 <= c <= 2 for c in xi) for xi in base_spec):
        raise ValueError("base spectrum coordinates must lie in {0,1,2}")
    nums = []
    for l in itertools.product(range(m_scale), repeat=n):
        for xi in base_spec:
            nums.append(
                tuple(lj + m_scale * xj for lj, xj in zip(l, xi))
            )
    nums = tuple(sorted(nums))
    if len(set(nums)) != len(base_spec) * m_scale**n:
        raise ValueError("frequency collision in the lifted spectrum")
    return FrequencySet(3 * m_scale, nums)


def pair_verdicts_direct(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Exact zero/nonzero verdict of the character sum over omega1 for every
    unordered frequency pair, by direct summation.

    Integer-only: for each frequency, the exponents against all later
    frequencies are counted per residue with one bincount (row r in bins
    [r*denom, (r+1)*denom)) and the counts go through the cyclotomic kernel;
    no floats anywhere.
    """
    denom = lambda1.denominator
    pts = np.asarray(omega1.points, dtype=np.int64)
    nums = np.asarray(lambda1.numerators, dtype=np.int64)
    verdicts = [np.zeros(0, dtype=bool)]
    for i in range(len(nums) - 1):
        exps = (nums[i + 1 :] - nums[i]) @ pts.T  # (count - i - 1, #points)
        exps %= denom
        rows = len(exps)
        exps += np.arange(0, rows * denom, denom)[:, None]
        counts = np.bincount(exps.ravel(), minlength=rows * denom)
        verdicts.append(vanishing(counts.reshape(rows, denom)))
    return np.concatenate(verdicts)


def pair_verdicts_factored(omega1: LatticeSet, lambda1: FrequencySet) -> np.ndarray:
    """Same verdicts via the factorization: the geometric sum over the cell
    index vanishes whenever the l parts differ; otherwise the base
    character sum at xi - xi' (order 3) decides."""
    if not omega1.structured:
        raise ValueError("factorized path needs a structured lattice set")
    m_scale = omega1.m
    base = omega1.base
    g3 = GroupSpec.power(3, omega1.dimension)
    nums = lambda1.numerators
    cache: dict[Element, bool] = {}

    def base_zero(dxi: Element) -> bool:
        if dxi not in cache:
            cache[dxi] = g3.character_sum(base, dxi).is_zero()
        return cache[dxi]

    out = np.zeros(len(nums) * (len(nums) - 1) // 2, dtype=bool)
    for pos, (ni, nj) in enumerate(itertools.combinations(nums, 2)):
        li = tuple(v % m_scale for v in ni)
        lj = tuple(v % m_scale for v in nj)
        if li != lj:
            out[pos] = True
        else:
            dxi = tuple(
                (vj // m_scale - vi // m_scale) % 3 for vi, vj in zip(ni, nj)
            )
            out[pos] = base_zero(dxi)
    return out


def verify_ortho_lattice(
    omega1: LatticeSet,
    lambda1: FrequencySet,
    method: str = "direct",
) -> OrthoResult:
    """Valid iff every distinct frequency pair has vanishing character sum
    over omega1; the direct exact summation is the reference route."""
    if method == "direct":
        verdicts = pair_verdicts_direct(omega1, lambda1)
    elif method == "factored":
        verdicts = pair_verdicts_factored(omega1, lambda1)
    else:
        raise ValueError(f"unknown method {method!r}")
    if bool(verdicts.all()):
        return OrthoResult(True, pairs=len(verdicts))
    # Pairs are in row order: row i holds (i, i+1), ..., (i, count-1).
    bad = int(np.argmin(verdicts))
    count = len(lambda1.numerators)
    i = 0
    while bad >= count - 1 - i:
        bad -= count - 1 - i
        i += 1
    return OrthoResult(
        False,
        witness=(lambda1.numerators[i], lambda1.numerators[i + 1 + bad]),
        pairs=len(verdicts),
    )


def character_sum_lattice(
    omega1: LatticeSet, delta: Point, denom: int
) -> CyclotomicInt:
    """sum over x in omega1 of omega_denom ** (delta . x), exactly."""
    counts = [0] * denom
    for x in omega1.points:
        counts[sum(d * c for d, c in zip(delta, x)) % denom] += 1
    return CyclotomicInt(denom, tuple(counts))


def cell_count_check(omega1: LatticeSet) -> bool:
    """Every aligned cell 3k + {0,1,2}^n, k in [0,M)^n, must contain exactly
    #base points; counted from the actual point set."""
    if not omega1.structured:
        raise ValueError("cell check needs a structured lattice set")
    per_cell: dict[Point, int] = {}
    for p in omega1.points:
        if any(c < 0 or c >= 3 * omega1.m for c in p):
            return False
        per_cell[tuple(c // 3 for c in p)] = (
            per_cell.get(tuple(c // 3 for c in p), 0) + 1
        )
    expected = len(omega1.base)
    n = omega1.dimension
    if len(per_cell) != omega1.m**n:
        return False
    return all(v == expected for v in per_cell.values())


def window_count(
    omega1: LatticeSet, t: Point, x0: Point, window: int
) -> int:
    """#((t + omega1) on (x0 + [0,window)^n)), exact.

    For structured sets the count factors per axis and per base point, so
    large scales stay cheap; otherwise the points are counted directly.
    """
    n = omega1.dimension
    lo = tuple(a - b for a, b in zip(x0, t))
    if omega1.structured:
        total = 0
        for b in omega1.base:
            prod = 1
            for j in range(n):
                prod *= _axis_count(lo[j], lo[j] + window, b[j], omega1.m)
                if prod == 0:
                    break
            total += prod
        return total
    return sum(
        all(lo[j] <= p[j] < lo[j] + window for j in range(n))
        for p in omega1.points
    )


def _axis_count(lo: int, hi: int, residue: int, m_scale: int) -> int:
    """#{k in [0,M) : lo <= 3k + residue < hi}."""
    lo_k = max(0, -(-(lo - residue) // 3))
    hi_k = min(m_scale, -(-(hi - residue) // 3))
    return max(0, hi_k - lo_k)


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
    12/window; all arithmetic in exact rationals."""
    if not omega1.structured:
        raise ValueError("density check needs a structured lattice set")
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    n = omega1.dimension
    span = 3 * omega1.m
    if window > span:
        raise ValueError("window larger than the support box")
    target = Fraction(len(omega1.base), 3**n)
    tolerance = Fraction(12, window)
    positions = range(0, span - window + 1, stride)

    # Per-axis counts are shared across windows and base points.
    axis = {
        (a, c): _axis_count(a, a + window, c, omega1.m)
        for a in positions
        for c in (0, 1, 2)
    }
    volume = window**n
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    windows = 0
    nonzero = 0
    ok = True
    for x0 in itertools.product(positions, repeat=n):
        windows += 1
        f = 0
        for b in omega1.base:
            prod = 1
            for j in range(n):
                prod *= axis[(x0[j], b[j])]
                if prod == 0:
                    break
            f += prod
        if f == 0:
            continue
        nonzero += 1
        density = Fraction(f, volume)
        if lo is None or density < lo:
            lo = density
        if hi is None or density > hi:
            hi = density
        if abs(density - target) > tolerance:
            ok = False
    if lo is None:
        raise ValueError("no nonzero window found in the support box")
    return DensityReport(windows, nonzero, lo, hi, tolerance, target, ok)


def torus_non_tiling(omega1: LatticeSet) -> Optional[DivisibilityObstruction]:
    """Divisibility certificate that omega1 cannot tile the torus
    (Z/3MZ)^n; weaker than non-tiling of Z^n, and documented as such."""
    if not omega1.structured:
        raise ValueError("torus certificate needs a structured lattice set")
    n = omega1.dimension
    torus_order = (3 * omega1.m) ** n
    size = len(omega1.points)
    if torus_order % size != 0:
        return DivisibilityObstruction(size, torus_order)
    return None
