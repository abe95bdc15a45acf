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
from typing import Optional

from .lattice import FrequencySet, LatticeSet, character_sum_lattice

Point = tuple[int, ...]


@dataclass(frozen=True)
class CubeUnion:
    """A finite union of unit cubes corner + [0,1)^n, disjoint by
    integrality of the corners."""

    corners: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.corners:
            raise ValueError("cube union must be nonempty")
        object.__setattr__(self, "corners", tuple(sorted(set(self.corners))))

    @property
    def dimension(self) -> int:
        return len(self.corners[0])

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
    return CubeUnion(tuple(map(tuple, omega1.points.tolist())))


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


def _frequency_difference(
    a: ExtendedFrequency, b: ExtendedFrequency
) -> tuple[Point, Point]:
    """delta (reduced) and shift of a - b, folding numerator carries into
    the integer part."""
    denom = a.denominator
    delta = []
    shift = []
    for va, vb, ka, kb in zip(a.base, b.base, a.shift, b.shift):
        raw = va - vb
        d = raw % denom
        delta.append(d)
        shift.append(ka - kb + (raw - d) // denom)
    return tuple(delta), tuple(shift)


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
    """
    if k_radius < 0:
        raise ValueError("k_radius must be >= 0")
    denom = lambda1.denominator
    shifts = _cube_shifts(omega1.dimension, k_radius)
    freqs = [
        ExtendedFrequency(base, denom, k)
        for base in lambda1.numerators
        for k in shifts
    ]
    count = len(freqs)
    total_pairs = count * (count - 1) // 2
    verdict_cache: dict[tuple[Point, Point], bool] = {}

    def check(i: int, j: int) -> bool:
        delta, shift = _frequency_difference(freqs[i], freqs[j])
        shift_sig = tuple(
            0 if (d != 0 or s == 0) else 1 for d, s in zip(delta, shift)
        )
        key = (delta, shift_sig)
        if key not in verdict_cache:
            verdict_cache[key] = inner_product_is_zero(
                omega1, delta, denom, shift
            )
        return verdict_cache[key]

    if total_pairs <= pair_budget:
        checked = 0
        for i in range(count):
            for j in range(i + 1, count):
                checked += 1
                if not check(i, j):
                    return TruncationResult(
                        False, (freqs[i], freqs[j]), checked, False
                    )
        return TruncationResult(True, None, checked, False)

    rng = random.Random(seed)
    checked = 0
    for _ in range(pair_budget):
        i = rng.randrange(count)
        j = rng.randrange(count - 1)
        if j >= i:
            j += 1
        checked += 1
        if not check(min(i, j), max(i, j)):
            return TruncationResult(False, (freqs[i], freqs[j]), checked, True)
    return TruncationResult(True, None, checked, True)


def _cube_shifts(dimension: int, radius: int) -> list[Point]:
    import itertools

    return sorted(
        itertools.product(range(-radius, radius + 1), repeat=dimension)
    )


def export_geometry(
    omega2: CubeUnion, lambda1: FrequencySet, path: str | Path
) -> None:
    """Byte-stable JSON export: lexicographic corners, sorted keys."""
    payload = {
        "dimension": omega2.dimension,
        "cube_corners": [list(c) for c in omega2.corners],
        "spectrum": lambda1.to_json(),
        "measure": omega2.measure,
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


def load_geometry(path: str | Path) -> tuple[CubeUnion, FrequencySet]:
    payload = json.loads(Path(path).read_text())
    omega2 = CubeUnion(tuple(tuple(c) for c in payload["cube_corners"]))
    lambda1 = FrequencySet.from_json(payload["spectrum"])
    return omega2, lambda1
