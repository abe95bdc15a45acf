"""Translational tiling of a finite abelian group by a subset.

Decision route: a divisibility pre-check (#T must divide #G), then exact
cover by translates, Algorithm X on bitmasks over ranks.  A positive answer
carries the complement set; a negative one carries either the divisibility
obstruction or the fact that the cover search was exhausted.  Translates are
arrays of element ranks; tuples appear only in results.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .groups import Element, GroupSpec

NODE_BUDGET = 10_000_000  # nodes per clique or cover search
COVER_ORDER_LIMIT = 1 << 12  # the incidence matrix takes order^2 bytes


class BudgetExceeded(RuntimeError):
    """The clique or cover search ran past `budget` nodes before a verdict."""

    def __init__(self, search: str, budget: int):
        super().__init__(f"{search} search exceeded {budget} nodes")
        self.budget = budget


class DivisibilityObstruction(NamedTuple):
    set_size: int
    group_order: int

    def __str__(self) -> str:
        return f"{self.set_size} does not divide {self.group_order}"

    def to_json(self) -> dict:
        return {"set_size": self.set_size, "group_order": self.group_order}


class TilingResult(NamedTuple):
    tiles: bool
    complement: Optional[tuple[Element, ...]] = None
    obstruction: Optional[DivisibilityObstruction] = None
    exhausted: bool = False
    nodes: int = 0


def divisibility_check(
    g: GroupSpec, T: Iterable[Element]
) -> Optional[DivisibilityObstruction]:
    size = len(frozenset(T))
    if size == 0:
        raise ValueError("T must be nonempty")
    if g.order % size != 0:
        return DivisibilityObstruction(size, g.order)
    return None


def cover_defect(
    g: GroupSpec, T: Iterable[Element], sigma: Iterable[Element]
) -> Optional[Element]:
    """The lowest-rank element that the translates {t + T : t in sigma} cover
    twice or more, else the lowest-rank one they miss; None if neither."""
    shifts = g.ranks(list(frozenset(sigma)))
    covered = np.bincount(_translates(g, T, shifts).ravel(), minlength=g.order)
    defects = np.flatnonzero(covered > 1)
    if not defects.size:
        defects = np.flatnonzero(covered == 0)
    return tuple(g.coords[defects[0]].tolist()) if defects.size else None


def rank_masks(bits: np.ndarray) -> list[int]:
    """Row i of a 2-D bool array as one Python int: bit j is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _translates(g: GroupSpec, T: Iterable[Element], shifts: np.ndarray) -> np.ndarray:
    """Row i: the ranks of the translate (element shifts[i]) + T."""
    points = g.coords[g.ranks(list(frozenset(T)))]
    sums = (g.coords[shifts][:, None] + points) % g.moduli
    return g.ranks(sums.reshape(-1, g.ndim)).reshape(len(shifts), len(points))


def find_tiling(
    g: GroupSpec, T: Iterable[Element], translates: Optional[np.ndarray] = None
) -> TilingResult:
    """Decide whether T tiles G, with a certificate either way.

    The translate at 0 is forced into the complement first (tilings are
    translation-invariant), then exact cover runs over the remaining
    translates in rank order.  A search state is two masks, the live
    translates and the uncovered columns; being ints, they need no undo.
    translates, row t the ranks of (element t) + T, is built if not given.
    """
    T = frozenset(T)
    obstruction = divisibility_check(g, T)
    if obstruction is not None:
        return TilingResult(False, obstruction=obstruction)
    if g.order > COVER_ORDER_LIMIT:
        raise ValueError(f"group of order {g.order} beyond cover search")
    budget = NODE_BUDGET

    if translates is None:
        translates = _translates(g, T, np.arange(g.order))
    # Translate t covers the ranks cols[t]; column c is covered by the
    # translates in the mask colrows[c].
    incidence = np.zeros((g.order, g.order), dtype=bool)
    incidence[np.arange(g.order)[:, None], translates] = True
    colrows = rank_masks(incidence.T)
    cols = translates.tolist()
    # Depth first on an explicit stack, so Python's recursion limit does not
    # bound the depth.  solution[k] is the row taken at depth k; frame k holds
    # the untried rows of the column chosen at depth k and the state (live,
    # uncovered) they are tried in.
    nodes, solution, stack = 0, [0], []
    live = uncovered = (1 << g.order) - 1
    while True:
        # Take the last row of solution: its columns are covered, and every
        # translate meeting them dies.
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("cover", budget)
        for c in cols[solution[-1]]:
            live &= ~colrows[c]
            uncovered &= ~(1 << c)
        if not uncovered:
            sigma = tuple(map(tuple, g.coords[sorted(solution)].tolist()))
            return TilingResult(True, complement=sigma, nodes=nodes)
        # Fewest live candidates, smallest column rank on ties.
        _, col = min(((colrows[c] & live).bit_count(), c) for c in _bits(uncovered))
        stack.append((_bits(colrows[col] & live), live, uncovered))
        while stack and (row := next(stack[-1][0], None)) is None:
            stack.pop()
        if not stack:
            return TilingResult(False, exhausted=True, nodes=nodes)
        _, live, uncovered = stack[-1]
        solution[len(stack) :] = [row]
