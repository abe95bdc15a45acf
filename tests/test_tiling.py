import itertools
import random

import pytest

from fuglede.groups import GroupSpec
from fuglede.tiling import (
    CoverBudgetExceeded,
    cover_defect,
    divisibility_check,
    find_tiling,
    verify_tiling,
)

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
    assert verify_tiling(Z4, {(0,), (1,)}, {(0,), (2,)})
    assert not verify_tiling(Z4, {(0,), (1,)}, {(0,), (1,)})
    g = GroupSpec((3, 2))
    everything = frozenset(g.unrank(r) for r in range(g.order))
    assert verify_tiling(g, everything, {g.identity()})


def test_roundtrip_and_translation_invariance():
    g = GroupSpec((2, 2, 2))
    rng = random.Random(2)
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(30):
        T = frozenset(rng.sample(elems, rng.choice([1, 2, 4])))
        result = find_tiling(g, T)
        if result.tiles:
            assert verify_tiling(g, T, result.complement)
        t = rng.choice(elems)
        shifted = find_tiling(g, translate(g, T, t))
        assert shifted.tiles == result.tiles
        if result.tiles:
            sigma = frozenset(result.complement)
            assert verify_tiling(
                g, translate(g, T, t), frozenset(g.sub(s, t) for s in sigma)
            )


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
    monkeypatch.setenv("FUGLEDE_BUDGET", "0")
    g = GroupSpec.cyclic(12)
    T = frozenset({(0,), (1,), (2,), (3,)})
    with pytest.raises(CoverBudgetExceeded):
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
    assert verify_tiling(g, T, sigma) == (defect is None)
