"""Translational tiling of a finite abelian group by a subset.

Decision route: a divisibility pre-check (#T must divide #G), then exact
cover by translates, Algorithm X style.  A positive answer carries the
complement set; a negative one carries either the divisibility obstruction
or the fact that the cover search was exhausted.  Translates are arrays of
element ranks; tuples appear only in results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .groups import Element, GroupSpec

DEFAULT_NODE_BUDGET = 10_000_000
COVER_ORDER_LIMIT = 1 << 16


class CoverBudgetExceeded(RuntimeError):
    """Exact-cover node budget exhausted before a definite verdict."""


def resolve_node_budget() -> int:
    """The search node budget: FUGLEDE_BUDGET if set, else the default."""
    return int(os.environ.get("FUGLEDE_BUDGET", DEFAULT_NODE_BUDGET))


@dataclass(frozen=True)
class DivisibilityObstruction:
    set_size: int
    group_order: int

    def __str__(self) -> str:
        return f"{self.set_size} does not divide {self.group_order}"

    def to_json(self) -> dict:
        return {"set_size": self.set_size, "group_order": self.group_order}


@dataclass(frozen=True)
class TilingResult:
    tiles: bool
    complement: Optional[tuple[Element, ...]] = None
    obstruction: Optional[DivisibilityObstruction] = None
    exhausted: bool = False


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


def verify_tiling(
    g: GroupSpec, T: Iterable[Element], sigma: Iterable[Element]
) -> bool:
    """True iff the translates {t + T : t in sigma} cover G exactly once."""
    return cover_defect(g, T, sigma) is None


def _translates(g: GroupSpec, T: Iterable[Element], shifts: np.ndarray) -> np.ndarray:
    """Row i: the ranks of the translate (element shifts[i]) + T."""
    points = g.coords[g.ranks(list(frozenset(T)))]
    sums = (g.coords[shifts][:, None] + points) % g.moduli
    return g.ranks(sums.reshape(-1, g.ndim)).reshape(len(shifts), len(points))


def _cover(X, Y, row):
    removed = []
    for col in Y[row]:
        rows = X.pop(col)
        removed.append((col, rows))
        for other in rows:
            if other != row:
                for c2 in Y[other]:
                    if c2 != col and c2 in X:
                        X[c2].discard(other)
    return removed


def _uncover(X, Y, row, removed):
    for col, rows in reversed(removed):
        X[col] = rows
        for other in rows:
            if other != row:
                for c2 in Y[other]:
                    if c2 != col and c2 in X:
                        X[c2].add(other)


def find_tiling(g: GroupSpec, T: Iterable[Element]) -> TilingResult:
    """Decide whether T tiles G, with a certificate either way.

    The translate at 0 is forced into the complement first (tilings are
    translation-invariant), then exact cover runs over the remaining
    translates in rank order.
    """
    T = frozenset(T)
    obstruction = divisibility_check(g, T)
    if obstruction is not None:
        return TilingResult(False, obstruction=obstruction)
    if g.order > COVER_ORDER_LIMIT:
        raise ValueError(f"group of order {g.order} beyond cover search")
    budget = resolve_node_budget()

    # Row t covers the ranks Y[t] of t + T; column c is covered by the rows
    # X[c], #T of them, found by sorting the flattened Y.
    rows = np.sort(_translates(g, T, np.arange(g.order)), axis=1)
    by_col = np.argsort(rows.ravel(), kind="stable").reshape(g.order, -1)
    X = {c: set(rs) for c, rs in enumerate((by_col // len(T)).tolist())}
    Y = rows.tolist()
    nodes = 0
    solution = [0]

    def solve() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CoverBudgetExceeded(f"cover search exceeded {budget} nodes")
        if not X:
            return True
        # Minimum remaining candidates, smallest column rank on ties.
        col = min(X, key=lambda c: (len(X[c]), c))
        for row in sorted(X[col]):
            solution.append(row)
            removed = _cover(X, Y, row)
            if solve():
                return True
            _uncover(X, Y, row, removed)
            solution.pop()
        return False

    _cover(X, Y, 0)
    if solve():
        sigma = tuple(map(tuple, g.coords[sorted(solution)].tolist()))
        return TilingResult(True, complement=sigma)
    return TilingResult(False, exhausted=True)
