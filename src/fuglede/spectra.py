"""Spectra of subsets of finite abelian groups.

A set T is spectral when some L with #L = #T has all pairwise differences
in the Fourier zero set Z(T).  Searching for L is a clique search in the
Cayley graph on the group with connection set Z(T); 0 can always be taken
as a clique vertex because spectra are translation-invariant.  The search
and the scan work on element ranks; tuples appear only in results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .cyclotomic import first_nonvanishing_pair, vanishing_sums
from .groups import Element, GroupSpec
from . import tiling

MAX_SPECTRUM_SIZE = 64
# canonical_classes walks 2^(order - 1) masks: 2^23 at this limit.
SCAN_ORDER_LIMIT = 24


class SearchBudgetExceeded(RuntimeError):
    """Search node budget exhausted before a definite verdict."""


@dataclass(frozen=True)
class SpectrumVerification:
    valid: bool
    witness: Optional[tuple[Element, Element]] = None
    reason: str = ""


@dataclass(frozen=True)
class SpectrumSearch:
    spectral: bool
    spectrum: Optional[tuple[Element, ...]] = None
    nodes: int = 0


def fourier_zero_set(g: GroupSpec, T: Iterable[Element]) -> frozenset[Element]:
    """Z(T): the nonzero d where the character sum over T vanishes."""
    T = frozenset(T)
    if not T:
        raise ValueError("empty set has no Fourier zero set")
    # The sum at d = 0 is #T, so the identity never lands in Z(T).
    zero = vanishing_sums(g.pairing_points(T), g.coords, g.exponent)
    return frozenset(map(tuple, g.coords[zero].tolist()))


def is_spectrum(
    g: GroupSpec, T: Iterable[Element], L: Iterable[Element]
) -> SpectrumVerification:
    """Verify that L is a spectrum of T: equal sizes and pairwise
    orthogonal exponentials; on failure, return the first bad pair."""
    T = frozenset(T)
    L = frozenset(L)
    if not T or not L:
        raise ValueError("T and L must be nonempty")
    if len(L) != len(T):
        return SpectrumVerification(False, None, "cardinality mismatch")
    freqs = sorted(L, key=g.rank)
    bad = first_nonvanishing_pair(g.pairing_points(T), freqs, g.exponent)
    if bad is None:
        return SpectrumVerification(True)
    witness = (freqs[bad[0]], freqs[bad[1]])
    return SpectrumVerification(False, witness, "non-orthogonal pair")


def find_spectrum(g: GroupSpec, T: Iterable[Element]) -> SpectrumSearch:
    """Branch-and-bound search for a spectrum of T, deterministic.

    Vertices are the elements of Z(T) (the neighbors of 0); a spectrum of
    size #T exists iff some (#T - 1)-clique lives among them with all
    pairwise differences in Z(T).
    """
    T = frozenset(T)
    if not T:
        raise ValueError("T must be nonempty")
    if len(T) > MAX_SPECTRUM_SIZE:
        raise ValueError(f"set of size {len(T)} beyond search limit")
    budget = tiling.resolve_node_budget()
    need = len(T) - 1  # clique size besides 0
    if need == 0:
        return SpectrumSearch(True, (g.identity(),), 0)

    zero = vanishing_sums(g.pairing_points(T), g.coords, g.exponent)  # Z(T) by rank
    zset = np.flatnonzero(zero)
    if len(zset) < need:
        return SpectrumSearch(False, None, 0)
    # adj[i, j]: zset[j] - zset[i] lies in Z(T); the diagonal is False.
    points = g.coords[zset]
    diffs = (points - points[:, None]) % g.moduli
    adj = zero[g.ranks(diffs.reshape(-1, g.ndim)).reshape(len(zset), -1)]
    # Descending degree, rank tie-break: effective pruning, reproducible.
    order = np.argsort(-adj.sum(axis=1), kind="stable")
    vertices = zset[order].tolist()
    # Neighbours of vertex i as a bitmask over positions in that order.
    packed = np.packbits(adj[np.ix_(order, order)], axis=1, bitorder="little")
    neighbours = [int.from_bytes(row.tobytes(), "little") for row in packed]

    nodes = 0
    clique: list[int] = []

    def extend(candidates: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"clique search exceeded {budget} nodes")
        if len(clique) == need:
            return True
        # Lowest position first; a tried candidate leaves the pool.
        while len(clique) + candidates.bit_count() >= need:
            v = (candidates & -candidates).bit_length() - 1
            candidates ^= 1 << v
            clique.append(v)
            if extend(candidates & neighbours[v]):
                return True
            clique.pop()
        return False

    if extend((1 << len(vertices)) - 1):
        ranks = sorted([0] + [vertices[v] for v in clique])
        spectrum = tuple(map(tuple, g.coords[ranks].tolist()))
        return SpectrumSearch(True, spectrum, nodes)
    return SpectrumSearch(False, None, nodes)


# -- exhaustive scanning ----------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    elements: tuple[Element, ...]
    spectral: bool
    tiles: bool
    spectrum: Optional[tuple[Element, ...]] = None
    complement: Optional[tuple[Element, ...]] = None
    obstruction: Optional[tiling.DivisibilityObstruction] = None

    def to_json(self) -> dict:
        rec: dict = {
            "set": [list(x) for x in self.elements],
            "spectral": self.spectral,
            "tiles": self.tiles,
        }
        if self.spectrum is not None:
            rec["spectrum"] = [list(x) for x in self.spectrum]
        if self.complement is not None:
            rec["complement"] = [list(x) for x in self.complement]
        if self.obstruction is not None:
            rec["obstruction"] = self.obstruction.to_json()
        return rec


@dataclass
class ScanSummary:
    classes: int = 0
    spectral_non_tiles: list[tuple[Element, ...]] = field(default_factory=list)
    tiles_non_spectral: list[tuple[Element, ...]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "classes": self.classes,
            "spectral_non_tiles": [
                [list(x) for x in s] for s in self.spectral_non_tiles
            ],
            "tiles_non_spectral": [
                [list(x) for x in s] for s in self.tiles_non_spectral
            ],
        }


def canonical_classes(
    g: GroupSpec, size_filter: Optional[int] = None
) -> Iterator[frozenset[Element]]:
    """Nonempty subsets up to translation, one representative per class.

    The representative is the minimum-mask translate containing 0, masks
    read over element ranks.  With a size filter only the masks of that
    popcount are walked, in the same increasing order.
    """
    n = g.order
    if n > SCAN_ORDER_LIMIT:
        raise ValueError(
            f"group of order {n} beyond subset enumeration (limit {SCAN_ORDER_LIMIT})"
        )
    coords = g.coords
    elements = list(map(tuple, coords.tolist()))  # shared by all classes
    # sub_table[x][r] = rank of (element r) - (element x)
    diffs = (coords - coords[:, None]) % g.moduli
    sub_table = g.ranks(diffs.reshape(-1, g.ndim)).reshape(n, n).tolist()
    if size_filter is None:
        bodies: Iterable[int] = range(1 << (n - 1))
    else:
        bodies = _masks_with_popcount(n - 1, size_filter - 1)
    for body in bodies:
        mask = (body << 1) | 1  # subsets containing 0
        bits = [r for r in range(n) if mask >> r & 1]
        canonical = mask
        for x in bits[1:]:
            row = sub_table[x]
            shifted = 0
            for r in bits:
                shifted |= 1 << row[r]
            if shifted < canonical:
                canonical = shifted
                break
        if canonical == mask:
            yield frozenset(elements[r] for r in bits)


def _masks_with_popcount(width: int, ones: int) -> Iterator[int]:
    """Masks below 2^width with `ones` bits set, increasing (Gosper's hack)."""
    mask = (1 << ones) - 1 if 0 <= ones <= width else 1 << width
    while mask < 1 << width:
        yield mask
        low = mask & -mask
        if not low:  # the one mask with no bits set
            return
        mask = (((mask + low) ^ mask) >> 2) // low | (mask + low)


def scan_class(g: GroupSpec, T: frozenset[Element]) -> ScanRecord:
    spec = find_spectrum(g, T)
    tile = tiling.find_tiling(g, T)
    return ScanRecord(
        elements=tuple(sorted(T)),  # rank order is lexicographic order
        spectral=spec.spectral,
        tiles=tile.tiles,
        spectrum=spec.spectrum,
        complement=tile.complement,
        obstruction=tile.obstruction,
    )


def fuglede_scan(
    g: GroupSpec, size_filter: Optional[int] = None
) -> tuple[list[ScanRecord], ScanSummary]:
    """Test both directions of the spectral/tiling correspondence over all
    subset classes and collect counterexamples."""
    records = []
    summary = ScanSummary()
    for T in canonical_classes(g, size_filter):
        rec = scan_class(g, T)
        records.append(rec)
        summary.classes += 1
        if rec.spectral and not rec.tiles:
            summary.spectral_non_tiles.append(rec.elements)
        if rec.tiles and not rec.spectral:
            summary.tiles_non_spectral.append(rec.elements)
    return records, summary
