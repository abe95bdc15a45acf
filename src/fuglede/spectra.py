"""Spectra of subsets of finite abelian groups.

A set T is spectral when some L with #L = #T has all pairwise differences
in the Fourier zero set Z(T).  Searching for L is a clique search in the
Cayley graph on the group with connection set Z(T); 0 can always be taken
as a clique vertex because spectra are translation-invariant.  The search
and the scan work on element ranks; tuples appear only in results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .cyclotomic import first_nonvanishing_pair, reduction_matrix, vanishing_sums
from .groups import Element, GroupSpec
from . import tiling

MAX_SPECTRUM_SIZE = 64
# _class_blocks walks 2^(order - 1) masks: 2^23 at this limit.  Its masks
# stay below 2^24, so its float32 products of powers of two are exact.
SCAN_ORDER_LIMIT = 24
_MASK_BLOCK = 1 << 10  # masks per canonical test in _class_blocks
# Classes per membership block and zero-row product: one product per mask block
# wakes OpenBLAS's threads (60 % more CPU time, no less wall) and peaks higher.
_CLASS_BLOCK = 128


class SpectrumVerification(NamedTuple):
    valid: bool
    witness: Optional[tuple[Element, Element]] = None
    reason: str = ""


class SpectrumSearch(NamedTuple):
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


def find_spectrum(
    g: GroupSpec, T: Iterable[Element], zero: Optional[np.ndarray] = None
) -> SpectrumSearch:
    """Branch-and-bound search for a spectrum of T, deterministic.

    Vertices are the elements of Z(T) (the neighbors of 0); a spectrum of
    size #T exists iff some (#T - 1)-clique lives among them with all
    pairwise differences in Z(T).  zero is Z(T) as a bool row over ranks,
    computed here when the caller does not already have it.
    """
    T = frozenset(T)
    if not T:
        raise ValueError("T must be nonempty")
    if len(T) > MAX_SPECTRUM_SIZE:
        raise ValueError(f"set of size {len(T)} beyond search limit")
    budget = tiling.NODE_BUDGET
    need = len(T) - 1  # clique size besides 0
    if need == 0:
        return SpectrumSearch(True, (g.identity(),), 0)

    if zero is None:
        zero = vanishing_sums(g.pairing_points(T), g.coords, g.exponent)
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
    neighbours = tiling.rank_masks(adj[np.ix_(order, order)])

    nodes = 0
    clique: list[int] = []

    def extend(candidates: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise tiling.BudgetExceeded("clique", budget)
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


class ScanRecord(NamedTuple):
    elements: tuple[Element, ...]
    spectral: bool
    tiles: bool
    spectrum: Optional[tuple[Element, ...]] = None
    complement: Optional[tuple[Element, ...]] = None
    obstruction: Optional[tiling.DivisibilityObstruction] = None


@dataclass
class ScanSummary:
    classes: int = 0
    spectral_non_tiles: list[tuple[Element, ...]] = field(default_factory=list)
    tiles_non_spectral: list[tuple[Element, ...]] = field(default_factory=list)

    def add(self, rec: ScanRecord) -> None:
        self.classes += 1
        if rec.spectral and not rec.tiles:
            self.spectral_non_tiles.append(rec.elements)
        if rec.tiles and not rec.spectral:
            self.tiles_non_spectral.append(rec.elements)

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


def scan_order(g: GroupSpec) -> int:
    """The order of g, or ValueError above SCAN_ORDER_LIMIT.  The product
    stops there, so 2^200000 fails at once and its order is never named."""
    order = 1
    for k, n in enumerate(g.moduli, 1):
        if (order := order * n) > SCAN_ORDER_LIMIT:
            named = order if k == g.ndim else f"above {SCAN_ORDER_LIMIT}"
            raise ValueError(
                f"group of order {named} beyond subset enumeration"
                f" (limit {SCAN_ORDER_LIMIT})"
            )
    return order


def _class_blocks(
    g: GroupSpec, size_filter: Optional[int]
) -> Iterator[tuple[list[tuple[Element, ...]], np.ndarray]]:
    """The canonical classes in increasing mask order, at most _CLASS_BLOCK
    per block, as element tuples in rank order, with their bool membership
    rows over ranks.

    A mask containing 0 is canonical when no translate by -x, x in the
    mask, has a smaller mask.  With weight[r, x] = 2^rank(r - x), row c of
    member @ weight holds the masks of class c translated by every -x.
    Each is a sum of distinct powers of two below 2^order <= 2^24, so the
    float32 product is exact in any summation order (float32 holds every
    integer up to 2^24).  The zero rows are float32 too: one BLAS routine.
    """
    n = scan_order(g)
    elements = list(map(tuple, g.coords.tolist()))  # shared by all classes
    diffs = (g.coords[:, None] - g.coords) % g.moduli
    weight = np.ldexp(np.float32(1), g.ranks(diffs.reshape(-1, g.ndim)).reshape(n, n))
    if size_filter is None:
        bodies: Iterator[int] = iter(range(1 << (n - 1)))
    else:
        bodies = _masks_with_popcount(n - 1, size_filter - 1)
    ranks = np.arange(n)
    while len(block := np.fromiter(islice(bodies, _MASK_BLOCK), dtype=np.int64)):
        masks = (block << 1) | 1  # subsets containing 0
        member = (masks[:, None] >> ranks & 1).astype(bool)
        # Only translates by -x for x in the mask count; x = 0 changes nothing.
        smaller = member @ weight < masks[:, None].astype(np.float32)
        member = member[~(member & smaller).any(axis=1)]
        for lo in range(0, len(member), _CLASS_BLOCK):
            chunk = member[lo : lo + _CLASS_BLOCK]
            # Through a list, so each tuple is made at its final size: tuples
            # resized while built would pile up in CPython's tuple free lists.
            classes = [tuple(list(compress(elements, row))) for row in chunk.tolist()]
            yield classes, chunk


def _masks_with_popcount(width: int, ones: int) -> Iterator[int]:
    """Masks below 2^width with `ones` bits set, increasing (Gosper's hack)."""
    mask = (1 << ones) - 1 if 0 <= ones <= width else 1 << width
    while mask < 1 << width:
        yield mask
        low = mask & -mask
        if not low:  # the one mask with no bits set
            return
        mask = (((mask + low) ^ mask) >> 2) // low | (mask + low)


def _record(elements, spec: SpectrumSearch, tile: tiling.TilingResult) -> ScanRecord:
    return ScanRecord(
        elements, spec.spectral, tile.tiles,
        spec.spectrum, tile.complement, tile.obstruction,
    )


def scan_records(
    g: GroupSpec, size_filter: Optional[int] = None
) -> Iterator[ScanRecord]:
    """The record of every subset class, in canonical order, each made
    when it is asked for.  Only a class with #T > 1 and at least #T - 1
    Fourier zeros reaches find_spectrum, and only one whose #T divides the
    order and whose cover search outlives its first node reaches
    find_tiling; the rest get those functions' own results.
    """
    order, m = scan_order(g), g.exponent
    # add[x, y]: the rank of (element x) + (element y); T's columns translate T.
    sums = (g.coords[:, None] + g.coords) % g.moduli
    add = g.ranks(sums.reshape(-1, g.ndim)).reshape(order, order)
    sub = add[:, add.argmin(axis=0)]  # sub[x, y]: the rank of x - y
    # chars[x, (d, e)]: coefficient e of omega_m ** pairing(d, x) mod Phi_m, in
    # {-1, 0, 1}; member @ chars sums at most order <= 24 of them: exact.
    pairing = g.pairing_points(g.coords) @ g.coords.T % m
    chars = reduction_matrix(m)[pairing].reshape(order, -1).astype(np.float32)
    # The results of find_spectrum and find_tiling that end by node 1, by #T.
    alone, not_spectral = SpectrumSearch(True, (g.identity(),)), SpectrumSearch(False)
    ended = {
        k: tiling.TilingResult(False, None, tiling.DivisibilityObstruction(k, order))
        if order % k else tiling.TilingResult(False, exhausted=True, nodes=1)
        for k in range(1, order + 1)
    }
    for classes, member in _class_blocks(g, size_filter):
        # Z(T) of the block: the sums whose remainders vanish; the sum at 0 is #T.
        zeros = ~(member @ chars).reshape(len(member), order, -1).any(axis=2)
        sizes = member.sum(axis=1)
        search = (zeros.sum(axis=1) >= sizes - 1) & (sizes > 1)
        # The cover search dies at node 1 when some c outside T has c - T in
        # T - T: every translate covering c then meets T (cf. Coven-Meyerowitz,
        # (A - A) & (B - B) = {0}).
        diffs = (member[:, add] & member[:, None]).any(axis=2)  # T - T
        dead = ((diffs[:, sub] | ~member[:, None]).all(axis=2) > member).any(axis=1)
        cover = (order % sizes == 0) & ~dead
        rows = zip(classes, member, zeros, *(a.tolist() for a in (sizes, search, cover)))
        for T, row, zero, size, searched, covered in rows:
            if searched:
                spec = find_spectrum(g, T, zero)
            else:
                spec = alone if size == 1 else not_spectral
            tile = tiling.find_tiling(g, T, add[:, row]) if covered else ended[size]
            yield _record(T, spec, tile)


def fuglede_scan(
    g: GroupSpec, size_filter: Optional[int] = None
) -> tuple[list[ScanRecord], ScanSummary]:
    """Test both directions of the spectral/tiling correspondence over all
    subset classes and collect counterexamples."""
    records = list(scan_records(g, size_filter))
    summary = ScanSummary()
    for rec in records:
        summary.add(rec)
    return records, summary
