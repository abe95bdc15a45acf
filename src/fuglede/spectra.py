"""Spectra of subsets of finite abelian groups.

A set T is spectral when some L with #L = #T has all pairwise differences
in the Fourier zero set Z(T).  Searching for L is a clique search in the
Cayley graph on the group with connection set Z(T); 0 can always be taken
as a clique vertex because spectra are translation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .cyclotomic import first_nonvanishing_pair, vanishing_sums
from .groups import EXHAUSTIVE_ORDER_LIMIT, Element, GroupSpec
from . import tiling

MAX_SPECTRUM_SIZE = 64
SCAN_ORDER_LIMIT = 1 << 14


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
    if g.order > EXHAUSTIVE_ORDER_LIMIT:
        raise ValueError(f"group of order {g.order} too large for Z(T)")
    elems = np.indices(g.moduli).reshape(g.ndim, -1).T
    # The sum at d = 0 is #T, so the identity never lands in Z(T).
    zero = vanishing_sums(g.pairing_points(T), elems, g.exponent)
    return frozenset(map(tuple, elems[zero].tolist()))


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


def find_spectrum(
    g: GroupSpec,
    T: Iterable[Element],
    node_budget: Optional[int] = None,
) -> SpectrumSearch:
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
    budget = tiling.resolve_node_budget(node_budget)
    target = len(T)
    zero = g.identity()
    if target == 1:
        return SpectrumSearch(True, (zero,), 0)

    zset = fourier_zero_set(g, T)
    if len(zset) < target - 1:
        return SpectrumSearch(False, None, 0)
    ranks = {v: g.rank(v) for v in zset}
    adj = {
        v: frozenset(u for u in zset if u != v and g.sub(u, v) in zset)
        for v in zset
    }
    # Descending degree, rank tie-break: effective pruning, reproducible.
    order = sorted(zset, key=lambda v: (-len(adj[v]), ranks[v]))

    nodes = 0
    found: list[Element] = []

    def extend(clique: list[Element], candidates: list[Element]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"clique search exceeded {budget} nodes"
            )
        if len(clique) == target - 1:
            found.extend(clique)
            return True
        if len(clique) + len(candidates) < target - 1:
            return False
        for i, v in enumerate(candidates):
            if len(clique) + len(candidates) - i < target - 1:
                return False
            rest = [u for u in candidates[i + 1 :] if u in adj[v]]
            clique.append(v)
            if extend(clique, rest):
                return True
            clique.pop()
        return False

    if extend([], order):
        spectrum = tuple(sorted([zero] + found, key=g.rank))
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

    @property
    def spectral_non_tile(self) -> bool:
        return self.spectral and not self.tiles

    @property
    def tile_non_spectral(self) -> bool:
        return self.tiles and not self.spectral

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
    read over element ranks.
    """
    n = g.order
    if n > SCAN_ORDER_LIMIT:
        raise ValueError(f"group of order {n} beyond subset enumeration")
    elems = [g.unrank(r) for r in range(n)]
    # sub_table[x_rank][r] = rank(unrank(r) - unrank(x_rank))
    sub_table = [
        [g.rank(g.sub(elems[r], elems[x])) for r in range(n)] for x in range(n)
    ]
    for body in range(1 << (n - 1)):
        mask = (body << 1) | 1  # subsets containing 0
        bits = [r for r in range(n) if mask >> r & 1]
        if size_filter is not None and len(bits) != size_filter:
            continue
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
            yield frozenset(elems[r] for r in bits)


def scan_class(
    g: GroupSpec,
    T: frozenset[Element],
    node_budget: Optional[int] = None,
) -> ScanRecord:
    spec = find_spectrum(g, T, node_budget)
    tile = tiling.find_tiling(g, T, node_budget)
    return ScanRecord(
        elements=tuple(sorted(T, key=g.rank)),
        spectral=spec.spectral,
        tiles=tile.tiles,
        spectrum=spec.spectrum,
        complement=tile.complement,
        obstruction=tile.obstruction,
    )


def fuglede_scan(
    g: GroupSpec,
    size_filter: Optional[int] = None,
    subsets: Optional[Iterable[frozenset[Element]]] = None,
    node_budget: Optional[int] = None,
) -> tuple[list[ScanRecord], ScanSummary]:
    """Test both directions of the spectral/tiling correspondence over all
    subset classes (or the given subsets) and collect counterexamples."""
    if subsets is None:
        subsets = canonical_classes(g, size_filter)
    records = []
    summary = ScanSummary()
    for T in subsets:
        rec = scan_class(g, frozenset(T), node_budget)
        records.append(rec)
        summary.classes += 1
        if rec.spectral_non_tile:
            summary.spectral_non_tiles.append(rec.elements)
        if rec.tile_non_spectral:
            summary.tiles_non_spectral.append(rec.elements)
    return records, summary
