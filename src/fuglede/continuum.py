"""Thickening the lattice counterexample into a union of unit cubes.

Omega2 = Omega1 + [0,1)^n with Omega1 = 3[0,M)^n + base.  Against a
frequency eta = delta/denominator + shift the inner product over Omega2
factors three ways: per-axis cube factors c(eta_j), per-axis geometric sums
over the cell index, and the character sum over the base cell.  c vanishes
exactly at nonzero integers and a geometric sum exactly where its ratio is
a nontrivial root of unity of order dividing M, so no numeric evaluation is
needed: an axis settles the pair, or the exact test of the #base-term cell
sum, at delta/M in Z_3^n, does.  Pairs are decided, and exported rows
written, in numpy blocks of _BLOCK: no list of every pair or row is built."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, TextIO

import numpy as np

from .cyclotomic import vanishing
from .groups import integer_rows
from .lattice import FrequencySet, LatticeSet, Point, _codes, _lifted_rows
from .lattice import character_sum_lattice, int64_rows

Pairs = Iterator[tuple[np.ndarray, np.ndarray]]  # blocks of index pairs (i, j)
_BLOCK = 1 << 12  # pairs decided per numpy block, rows per export block
DEFAULT_PAIR_BUDGET = 1_000_000  # pairs checked before the check samples


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


class ExtendedFrequency(NamedTuple):
    """A real frequency base/denominator + integer shift."""

    base: Point
    denominator: int
    shift: Point


class TruncationResult(NamedTuple):
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
    return bool(vanishing(character_sum_lattice(omega1, [delta], denominator))[0])


def verify_spectrum_truncation(
    omega1: LatticeSet,
    lambda1: FrequencySet,
    k_radius: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> TruncationResult:
    """Check orthogonality over the truncated spectrum
    {lambda + k : lambda in lambda1, |k|_inf <= k_radius}.

    A full quadratic pass when the pair count fits the budget, otherwise a
    sample of int64 pair indices from seed 0, two 64-bit words per pair (so
    at most 2^63 - 1 frequencies).  Orthogonality only: completeness follows
    from the lattice certificate and |Lambda_1| = #Omega_1, unchecked here.

    Frequency f is numerator f // S plus shift f % S, n digits base 2K+1 that
    are the coordinates plus K.  ValueError unless the denominator is 3M:
    then numerators that differ mod M on an axis (different keys) meet a
    geometric zero, and where the keys agree delta = M d with d in Z_3^n.  Of
    those, a pair with a vanishing cube factor is orthogonal; the rest take one
    batched cell sum over Z_3 per block, at d, symmetric in the pair (at -d it
    is the conjugate).  A repeated frequency (eta = 0) fails that sum.
    """
    if k_radius < 0:
        raise ValueError("k_radius must be >= 0")
    nums, denom, m = _lifted_rows(omega1, lambda1), lambda1.denominator, omega1.m
    side = (2 * k_radius + 1,) * omega1.dimension
    count = len(nums) * (per := side[0] ** omega1.dimension)
    sampled = count * (count - 1) // 2 > pair_budget
    blocks = _sampled_pairs(count, pair_budget, 0) if sampled else _all_pairs(count)
    key = _codes(nums, m)
    cell, checked = LatticeSet(omega1.base, 1), 0
    for i, j in blocks:
        ok = key[i // per] != key[j // per]  # an axis differs mod M: a zero
        same = np.flatnonzero(~ok)
        (num_a, num_b), shift = np.divmod([i[same], j[same]], per)
        delta = (nums[num_a] - nums[num_b]) % denom
        # A cube factor vanishes where delta_k = 0 and the shifts differ (the
        # numerators are reduced, so no carry reaches such a coordinate).
        moved = [a != b for a, b in np.unravel_index(shift, side)]  # per axis
        ok[same] = ((delta.T == 0) & moved).any(axis=0)
        dead = ~ok[same]
        ok[same[dead]] = vanishing(character_sum_lattice(cell, delta[dead] // m, 3))
        if not ok.all():
            first = int(np.argmin(ok))
            num, shift = np.divmod([i[first], j[first]], per)
            shifts = np.transpose(np.unravel_index(shift, side)) - k_radius
            ends = zip(*[map(tuple, x.tolist()) for x in (nums[num], shifts)])
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
    """`budget` seeded ordered pairs i != j in blocks of _BLOCK pairs: from
    two 64-bit words w0, w1 of `random.Random(seed)`, i = w0 mod count and
    j = (i + 1 + w1 mod (count - 1)) mod count, uniform to within count/2^64.
    A block makes one fetch, `getrandbits(128 * need)`, whose little-endian
    uint64 words are successive `getrandbits(64)` values; the sum is taken
    in uint64, which cannot overflow below count = 2^63."""
    if count.bit_length() > 63:
        raise ValueError(f"cannot sample among {count} frequencies: at most 2^63 - 1")
    getrandbits = random.Random(seed).getrandbits
    n, rest = np.uint64(count), np.uint64(count - 1)  # uint64 scalars: no float
    for lo in range(0, budget, _BLOCK):
        need = min(_BLOCK, budget - lo)
        words = getrandbits(128 * need).to_bytes(16 * need, "little")
        w0, w1 = np.frombuffer(words, "<u8").reshape(-1, 2).T
        i = w0 % n
        yield i.astype(np.int64), ((i + 1 + w1 % rest) % n).astype(np.int64)


def export_geometry(
    omega2: CubeUnion, lambda1: FrequencySet, path: str | Path
) -> None:
    """Byte-stable JSON export, lexicographic corners: the bytes of
    json.dumps(payload, sort_keys=True, separators=(",", ":")) + newline,
    written key by key in sorted order and each row array in blocks."""
    with open(path, "w") as out:
        out.write('{"cube_corners":')
        _write_rows(out, omega2.corners)
        out.write(f',"dimension":{omega2.dimension},"measure":{omega2.measure},')
        out.write(f'"spectrum":{{"denominator":{lambda1.denominator},"numerators":')
        _write_rows(out, lambda1.numerators)
        out.write("}}\n")


def _write_rows(out: TextIO, rows: np.ndarray) -> None:
    """rows as one JSON list of lists, written _BLOCK rows at a time."""
    out.write("[")
    for lo in range(0, len(rows), _BLOCK):
        block = json.dumps(rows[lo : lo + _BLOCK].tolist(), separators=(",", ":"))
        out.write(("," if lo else "") + block[1:-1])
    out.write("]")


def load_geometry(path: str | Path) -> tuple[CubeUnion, FrequencySet]:
    """The export read back; ValueError for any entry that is no integer."""
    payload = json.loads(Path(path).read_text())
    nums = integer_rows(payload["spectrum"]["numerators"], "numerators")
    omega2 = CubeUnion(integer_rows(payload["cube_corners"], "cube corners"))
    return omega2, FrequencySet(payload["spectrum"]["denominator"], nums)
