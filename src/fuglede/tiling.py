"""Translational tiling of a finite abelian group by a subset.

Decision route: a divisibility pre-check (#T must divide #G), then exact
cover by translates, Algorithm X style.  A positive answer carries the
complement set; a negative one carries either the divisibility obstruction
or the fact that the cover search was exhausted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional

from .groups import Element, GroupSpec

DEFAULT_NODE_BUDGET = 10_000_000
COVER_ORDER_LIMIT = 1 << 16


class CoverBudgetExceeded(RuntimeError):
    """Exact-cover node budget exhausted before a definite verdict."""


def resolve_node_budget(node_budget: Optional[int]) -> int:
    """The search node budget: an explicit value wins, then the
    FUGLEDE_BUDGET environment variable, then the default."""
    if node_budget is not None:
        return node_budget
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
    T = frozenset(T)
    covered = [0] * g.order
    for t in frozenset(sigma):
        for x in T:
            covered[g.rank(g.add(x, t))] += 1
    # Over-covered elements first, then uncovered ones, each by rank.
    rank = min(range(g.order), key=lambda r: (covered[r] < 2, covered[r] > 0, r))
    return None if covered[rank] == 1 else g.unrank(rank)


def verify_tiling(
    g: GroupSpec, T: Iterable[Element], sigma: Iterable[Element]
) -> bool:
    """True iff the translates {t + T : t in sigma} cover G exactly once."""
    return cover_defect(g, T, sigma) is None


def _solve_cover(
    X: dict[int, set[int]],
    Y: dict[int, list[int]],
    solution: list[int],
    state: dict,
) -> bool:
    state["nodes"] += 1
    if state["nodes"] > state["budget"]:
        raise CoverBudgetExceeded(f"cover search exceeded {state['budget']} nodes")
    if not X:
        return True
    # Minimum remaining candidates, smallest column rank on ties.
    col = min(X, key=lambda c: (len(X[c]), c))
    for row in sorted(X[col]):
        solution.append(row)
        removed = _cover(X, Y, row)
        if _solve_cover(X, Y, solution, state):
            return True
        _uncover(X, Y, row, removed)
        solution.pop()
    return False


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


def find_tiling(
    g: GroupSpec,
    T: Iterable[Element],
    node_budget: Optional[int] = None,
) -> TilingResult:
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
    budget = resolve_node_budget(node_budget)

    n = g.order
    elems = [g.unrank(r) for r in range(n)]
    Y = {
        t: sorted(g.rank(g.add(elems[t], x)) for x in T) for t in range(n)
    }
    X: dict[int, set[int]] = {c: set() for c in range(n)}
    for row, cols in Y.items():
        for c in cols:
            X[c].add(row)

    solution = [0]
    _cover(X, Y, 0)
    state = {"nodes": 0, "budget": budget}
    if _solve_cover(X, Y, solution, state):
        sigma = tuple(elems[r] for r in sorted(solution))
        return TilingResult(True, complement=sigma)
    return TilingResult(False, exhausted=True)
