import itertools
import random

import pytest

from fuglede import tiling
from fuglede.groups import GroupSpec
from fuglede.tiling import (
    COVER_ORDER_LIMIT,
    DivisibilityObstruction,
    cover_defect,
    divisibility_check,
    find_tiling,
)
from oracles import canonical_classes

Z4 = GroupSpec.cyclic(4)
Z6 = GroupSpec.cyclic(6)


def translate(g, T, t):
    return frozenset(g.add(x, t) for x in T)


def test_divisibility_obstructions():
    g12 = GroupSpec.power(2, 12)
    T = frozenset(g12.standard_basis(j) for j in range(1, 13))
    obs = divisibility_check(g12, T)
    assert obs is not None and (obs.set_size, obs.group_order) == (12, 4096)

    g5 = GroupSpec.power(3, 5)
    T6 = frozenset(g5.unrank(r) for r in range(6))
    obs = divisibility_check(g5, T6)
    assert obs is not None and (obs.set_size, obs.group_order) == (6, 243)

    assert divisibility_check(Z4, {(0,), (1,)}) is None


def test_find_tiling_z4():
    result = find_tiling(Z4, {(0,), (1,)})
    assert result.tiles and set(result.complement) == {(0,), (2,)}


def test_find_tiling_z6():
    result = find_tiling(Z6, {(0,), (1,), (2,)})
    assert result.tiles and set(result.complement) == {(0,), (3,)}


def test_find_tiling_obstruction_z2_12():
    g = GroupSpec.power(2, 12)
    T = frozenset(g.standard_basis(j) for j in range(1, 13))
    result = find_tiling(g, T)
    assert not result.tiles and result.obstruction is not None


def test_find_tiling_exhausted_cover():
    # size divides but no tiling exists: {0,1,3} in Z_6
    result = find_tiling(Z6, {(0,), (1,), (3,)})
    assert not result.tiles and result.exhausted and result.obstruction is None


def test_verify_tiling():
    assert cover_defect(Z4, {(0,), (1,)}, {(0,), (2,)}) is None
    assert cover_defect(Z4, {(0,), (1,)}, {(0,), (1,)}) is not None
    g = GroupSpec((3, 2))
    everything = frozenset(g.unrank(r) for r in range(g.order))
    assert cover_defect(g, everything, {g.identity()}) is None


def test_roundtrip_and_translation_invariance():
    g = GroupSpec((2, 2, 2))
    rng = random.Random(2)
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(30):
        T = frozenset(rng.sample(elems, rng.choice([1, 2, 4])))
        result = find_tiling(g, T)
        if result.tiles:
            assert cover_defect(g, T, result.complement) is None
        t = rng.choice(elems)
        shifted = find_tiling(g, translate(g, T, t))
        assert shifted.tiles == result.tiles
        if result.tiles:
            sigma = frozenset(result.complement)
            moved = frozenset(g.sub(s, t) for s in sigma)
            assert cover_defect(g, translate(g, T, t), moved) is None


def brute_force_tiles(g, T):
    """Oracle: enumerate complements containing 0, checking coverage by
    counting; independent of the exact-cover machinery."""
    size = len(T)
    if g.order % size:
        return False
    k = g.order // size
    elems = [g.unrank(r) for r in range(g.order)]
    zero = g.identity()
    for rest in itertools.combinations([e for e in elems if e != zero], k - 1):
        covered = set()
        ok = True
        for t in (zero,) + rest:
            for x in T:
                y = g.add(x, t)
                if y in covered:
                    ok = False
                    break
                covered.add(y)
            if not ok:
                break
        if ok and len(covered) == g.order:
            return True
    return False


@pytest.mark.parametrize("moduli", [(8,), (2, 4), (2, 2, 2), (9,)])
def test_find_tiling_agrees_with_brute_force(moduli):
    g = GroupSpec(moduli)
    rng = random.Random(sum(moduli))
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(25):
        T = frozenset(rng.sample(elems, rng.randrange(1, g.order + 1)))
        assert find_tiling(g, T).tiles == brute_force_tiles(g, T)


def test_budget_exceeded_is_distinct(monkeypatch):
    monkeypatch.setattr(tiling, "NODE_BUDGET", 0)
    g = GroupSpec.cyclic(12)
    T = frozenset({(0,), (1,), (2,), (3,)})
    with pytest.raises(tiling.BudgetExceeded, match="cover"):
        find_tiling(g, T)


@pytest.mark.parametrize(
    "descriptor,nodes",
    [("12", 233), ("15", 342), ("2^4", 1807), ("3x3", 46), ("2x4", 49)],
)
def test_cover_search_node_totals_are_pinned(descriptor, nodes):
    """Total exact-cover nodes over all subset classes: a change to the
    column choice or to the row order shows here before it shows in a
    verdict."""
    g = GroupSpec.from_descriptor(descriptor)
    assert sum(find_tiling(g, T).nodes for T in canonical_classes(g)) == nodes


@pytest.mark.parametrize(
    "descriptor,ranks,nodes", [("2^10", [0], 1024), ("24", [0, 7, 13, 18], 9)]
)
def test_cover_search_depth_and_backtracking(descriptor, ranks, nodes):
    """{0} tiles Z_2^10 only with every translate, a path of 1,024 nodes,
    deeper than Python's default recursion limit.  {0,7,13,18} tiles Z_24
    with 6 translates after backing out of 3 nodes, whose rows must not
    stay in the complement."""
    g = GroupSpec.from_descriptor(descriptor)
    T = frozenset(g.unrank(r) for r in ranks)
    result = find_tiling(g, T)
    assert result.tiles and result.nodes == nodes
    assert len(result.complement) == g.order // len(T)
    assert cover_defect(g, T, result.complement) is None


def test_cover_order_limit():
    g = GroupSpec.power(2, 13)
    assert g.order > COVER_ORDER_LIMIT
    pair = frozenset({g.identity(), g.standard_basis(1)})
    with pytest.raises(ValueError, match="order 8192 beyond cover search"):
        find_tiling(g, pair)
    # Divisibility decides before the limit is read.
    triple = pair | {g.standard_basis(2)}
    result = find_tiling(g, triple)
    assert not result.tiles
    assert result.obstruction == DivisibilityObstruction(3, 8192)


def test_budget_bounds_the_node_count(monkeypatch):
    g = GroupSpec.cyclic(12)
    T = frozenset({(0,), (1,), (2,), (3,)})
    nodes = find_tiling(g, T).nodes
    assert nodes == 3  # the translates at 0, 4 and 8
    monkeypatch.setattr(tiling, "NODE_BUDGET", nodes)
    assert find_tiling(g, T).tiles
    monkeypatch.setattr(tiling, "NODE_BUDGET", nodes - 1)
    message = f"cover search exceeded {nodes - 1} nodes"
    with pytest.raises(tiling.BudgetExceeded, match=message):
        find_tiling(g, T)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        divisibility_check(Z4, frozenset())


@pytest.mark.parametrize(
    "g,T,sigma,defect",
    [
        # An over-covered element wins over a lower-rank uncovered one.
        (Z6, {(0,), (1,)}, {(2,), (3,)}, (3,)),
        (Z4, {(0,), (1,)}, {(0,)}, (2,)),
        (Z4, {(0,), (1,)}, {(0,), (1,)}, (1,)),
        (Z4, {(0,), (1,)}, {(0,), (2,)}, None),
    ],
)
def test_cover_defect(g, T, sigma, defect):
    assert cover_defect(g, T, sigma) == defect
