"""Thickening the lattice counterexample into a union of unit cubes.

Omega2 = Omega1 + [0,1)^n.  Against a frequency eta the inner product over
Omega2 factors into the lattice character sum times per-axis cube factors
c(eta_j); c vanishes exactly at nonzero integers, so the zero decision
needs no numeric evaluation at all: either some coordinate of eta is a
nonzero integer, or the verdict is the exact lattice test on the
fractional part.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .groups import integer_rows
from .lattice import FrequencySet, LatticeSet, Point, character_sum_lattice, int64_rows

Pairs = Iterator[tuple[np.ndarray, np.ndarray]]  # blocks of index pairs (i, j)
_BLOCK = 1 << 12  # pairs decided per numpy block


@dataclass(frozen=True)
class CubeUnion:
    """A finite union of unit cubes corner + [0,1)^n, disjoint by
    integrality of the corners: a read-only (count, n) int64 array of
    distinct rows in lexicographic order."""

    corners: np.ndarray

    def __post_init__(self) -> None:
        corners = int64_rows(self.corners, "cube corners")
        if not len(corners):
            raise ValueError("cube union must be nonempty")
        corners = corners[np.lexsort(corners.T[::-1])]
        # Sorted rows repeat only next to each other; np.unique(axis=0) is slower.
        corners = corners[np.r_[True, (corners[1:] != corners[:-1]).any(axis=1)]]
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)

    @property
    def dimension(self) -> int:
        return self.corners.shape[1]

    @property
    def measure(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class ExtendedFrequency:
    """A real frequency base/denominator + integer shift."""

    base: Point
    denominator: int
    shift: Point


@dataclass(frozen=True)
class TruncationResult:
    valid: bool
    witness: Optional[tuple[ExtendedFrequency, ExtendedFrequency]] = None
    pairs_checked: int = 0
    sampled: bool = False


def build_omega2(omega1: LatticeSet) -> CubeUnion:
    return CubeUnion(omega1.points)


def inner_product_is_zero(
    omega1: LatticeSet,
    delta: Point,
    denominator: int,
    shift: Point,
) -> bool:
    """Exact zero test of the Omega2 inner product at eta with
    eta_j = delta_j/denominator + shift_j (delta reduced mod denominator).

    Rules: a nonzero-integer coordinate kills its cube factor; otherwise no
    cube factor vanishes and the lattice character sum at delta decides.
    """
    delta = tuple(v % denominator for v in delta)
    if all(d == 0 for d in delta) and all(s == 0 for s in shift):
        raise ValueError("eta = 0: the self inner product is the measure")
    if any(d == 0 and s != 0 for d, s in zip(delta, shift)):
        return True
    return character_sum_lattice(omega1, delta, denominator).is_zero()


def verify_spectrum_truncation(
    omega1: LatticeSet,
    lambda1: FrequencySet,
    k_radius: int,
    pair_budget: int = 1_000_000,
    seed: int = 0,
) -> TruncationResult:
    """Check orthogonality over the truncated spectrum
    {lambda + k : lambda in lambda1, |k|_inf <= k_radius}.

    A full quadratic pass when the pair count fits the budget, otherwise a
    deterministic seeded sample of pair indices.  Completeness of the full
    spectrum is not finitely checkable; this certifies orthogonality only.

    Frequency f is numerator f // S plus shift f % S (S shifts).  Blocks of
    pairs are decided by the rules of `inner_product_is_zero`, one lattice
    sum per distinct delta; a repeated frequency (eta = 0) fails that sum.
    """
    if k_radius < 0:
        raise ValueError("k_radius must be >= 0")
    denom, n = lambda1.denominator, omega1.dimension
    nums = lambda1.rows(n)
    side = 2 * k_radius + 1  # shifts in lexicographic order
    shifts = np.indices((side,) * n).reshape(n, -1).T - k_radius
    per = len(shifts)
    count = len(nums) * per
    sampled = count * (count - 1) // 2 > pair_budget
    blocks = _sampled_pairs(count, pair_budget, seed) if sampled else _all_pairs(count)
    verdicts: dict[int, bool] = {}  # code of delta -> lattice sum vanishes
    checked = 0
    for i, j in blocks:
        # Drawn pairs are unordered; the difference is taken from the lower index.
        (num_a, num_b), (shift_a, shift_b) = np.divmod(np.sort([i, j], axis=0), per)
        delta = (nums[num_a] - nums[num_b]) % denom
        # A cube factor vanishes where delta_k = 0 and the shifts differ (the
        # numerators are reduced, so no carry reaches such a coordinate).
        ok = ((delta == 0) & (shifts[shift_a] != shifts[shift_b])).any(axis=1)
        live = np.flatnonzero(~ok)
        code = np.ravel_multi_index(delta[live].T, (denom,) * n)
        codes, index, inverse = np.unique(code, return_index=True, return_inverse=True)
        for c, row in zip(codes.tolist(), delta[live[index]]):
            if c not in verdicts:
                verdicts[c] = character_sum_lattice(omega1, row, denom).is_zero()
        ok[live] = np.array([verdicts[c] for c in codes.tolist()], dtype=bool)[inverse]
        if not ok.all():
            first = int(np.argmin(ok))
            num, shift = np.divmod([i[first], j[first]], per)
            ends = zip(*[map(tuple, x.tolist()) for x in (nums[num], shifts[shift])])
            witness = tuple(ExtendedFrequency(v, denom, k) for v, k in ends)
            return TruncationResult(False, witness, checked + first + 1, sampled)
        checked += len(ok)
    return TruncationResult(True, None, checked, sampled)


def _all_pairs(count: int) -> Pairs:
    """Every pair (i, j > i), row by row, in blocks of _BLOCK pairs."""
    rows = np.arange(count)
    starts = rows * (2 * count - rows - 1) // 2  # pairs in the rows above
    total = count * (count - 1) // 2
    for lo in range(0, total, _BLOCK):
        p = np.arange(lo, min(lo + _BLOCK, total))
        i = np.searchsorted(starts, p, side="right") - 1
        yield i, p - starts[i] + i + 1


def _sampled_pairs(count: int, budget: int, seed: int) -> Pairs:
    """`budget` seeded draws of i, then j != i, in blocks of _BLOCK pairs."""
    randrange = random.Random(seed).randrange
    for lo in range(0, budget, _BLOCK):
        size = min(_BLOCK, budget - lo)
        draws = [randrange(c) for _ in range(size) for c in (count, count - 1)]
        i, j = np.array(draws, dtype=np.int64).reshape(-1, 2).T
        yield i, j + (j >= i)


def export_geometry(
    omega2: CubeUnion, lambda1: FrequencySet, path: str | Path
) -> None:
    """Byte-stable JSON export: lexicographic corners, sorted keys."""
    nums = lambda1.numerators.tolist()
    payload = {
        "dimension": omega2.dimension,
        "cube_corners": omega2.corners.tolist(),
        "spectrum": {"denominator": lambda1.denominator, "numerators": nums},
        "measure": omega2.measure,
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


def load_geometry(path: str | Path) -> tuple[CubeUnion, FrequencySet]:
    """The export read back; ValueError for any entry that is no integer."""
    payload = json.loads(Path(path).read_text())
    nums = integer_rows(payload["spectrum"]["numerators"], "numerators")
    omega2 = CubeUnion(integer_rows(payload["cube_corners"], "cube corners"))
    return omega2, FrequencySet(payload["spectrum"]["denominator"], nums)
