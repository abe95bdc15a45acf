import itertools
import math
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fuglede.groups import GroupSpec
from fuglede.hadamard import descend, paper_h6, paper_h12, spectrum_from_butson
from fuglede.spectra import (
    SearchBudgetExceeded,
    canonical_classes,
    find_spectrum,
    fourier_zero_set,
    fuglede_scan,
    is_spectrum,
    scan_class,
)

Z4 = GroupSpec.cyclic(4)


def translate(g, T, t):
    return frozenset(g.add(x, t) for x in T)


def test_zero_set_z4():
    assert fourier_zero_set(Z4, {(0,), (1,)}) == frozenset({(2,)})


def test_zero_set_singleton_empty():
    g = GroupSpec((3, 4))
    assert fourier_zero_set(g, {(1, 2)}) == frozenset()


def test_zero_set_closed_under_negation():
    g = GroupSpec((3, 3))
    rng = random.Random(5)
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(10):
        T = frozenset(rng.sample(elems, rng.randrange(1, 7)))
        z = fourier_zero_set(g, T)
        assert z == frozenset(g.sub(g.identity(), d) for d in z)


def test_zero_set_translation_invariant():
    g = GroupSpec((4, 2))
    rng = random.Random(9)
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(10):
        T = frozenset(rng.sample(elems, 3))
        t = rng.choice(elems)
        assert fourier_zero_set(g, T) == fourier_zero_set(g, translate(g, T, t))


def test_is_spectrum_z2_12():
    g, T, L = spectrum_from_butson(paper_h12())
    assert is_spectrum(g, T, L).valid


def test_full_group_is_its_own_spectrum():
    g = GroupSpec((2, 3))
    all_elems = frozenset(map(tuple, g.coords.tolist()))
    assert is_spectrum(g, all_elems, all_elems).valid


def test_is_spectrum_invalid_with_witness():
    result = is_spectrum(Z4, {(0,), (1,), (2,)}, {(0,), (1,), (2,)})
    assert not result.valid
    assert result.witness is not None


def test_is_spectrum_cardinality_mismatch():
    result = is_spectrum(Z4, {(0,), (1,)}, {(0,)})
    assert not result.valid and result.reason == "cardinality mismatch"


def test_is_spectrum_translation_invariant():
    g = GroupSpec((3, 3))
    rng = random.Random(1)
    elems = [g.unrank(r) for r in range(g.order)]
    for _ in range(10):
        T = frozenset(rng.sample(elems, 3))
        L = frozenset(rng.sample(elems, 3))
        base = is_spectrum(g, T, L).valid
        t, s = rng.choice(elems), rng.choice(elems)
        assert is_spectrum(g, translate(g, T, t), translate(g, L, s)).valid == base


def test_find_spectrum_z4_pair():
    result = find_spectrum(Z4, {(0,), (1,)})
    assert result.spectral and set(result.spectrum) == {(0,), (2,)}


def test_find_spectrum_exhausted():
    result = find_spectrum(Z4, {(0,), (1,), (2,)})
    assert not result.spectral and result.spectrum is None


def test_find_spectrum_singleton():
    assert find_spectrum(GroupSpec((5,)), {(3,)}).spectral


def test_find_spectrum_roundtrip_z3_5():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    result = find_spectrum(g5, T5)
    assert result.spectral
    assert is_spectrum(g5, T5, result.spectrum).valid


def test_find_spectrum_budget_exceeded_is_distinct(monkeypatch):
    monkeypatch.setenv("FUGLEDE_BUDGET", "0")
    with pytest.raises(SearchBudgetExceeded):
        find_spectrum(Z4, {(0,), (1,)})


def test_find_spectrum_agrees_with_exhaustive_small():
    """On tiny cyclic groups, compare against enumeration of all
    #T-subsets containing 0 (spectra are translation-invariant)."""
    for n in (4, 5, 6):
        g = GroupSpec.cyclic(n)
        elems = [g.unrank(r) for r in range(n)]
        for bits in range(1, 1 << (n - 1)):
            T = frozenset({(0,)} | {elems[r + 1] for r in range(n - 1) if bits >> r & 1})
            expected = any(
                is_spectrum(g, T, frozenset({(0,)}) | frozenset(c)).valid
                for c in itertools.combinations(elems[1:], len(T) - 1)
            )
            assert find_spectrum(g, T).spectral == expected


def test_spectrum_size_bound_on_zero_set():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, _ = descend(g6, T6, L6)
    assert len(fourier_zero_set(g5, T5)) >= len(T5) - 1


def test_zero_set_contains_spectrum_differences():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    z = fourier_zero_set(g5, T5)
    diffs = {
        g5.sub(a, b) for a in L5 for b in L5 if a != b
    }
    assert len(diffs) == 30
    assert diffs <= z


def test_canonical_classes_partition():
    g = GroupSpec.cyclic(6)
    classes = list(canonical_classes(g))
    # every nonempty subset must be a translate of exactly one class
    elems = [g.unrank(r) for r in range(6)]
    covered = set()
    for T in classes:
        for t in elems:
            covered.add(translate(g, T, t))
    assert len(covered) == (1 << 6) - 1
    assert len(classes) == len({min(
        tuple(sorted(g.rank(g.sub(x, x0)) for x in T))
        for x0 in T
    ) for T in covered})


@pytest.mark.parametrize(
    "g",
    [GroupSpec.cyclic(n) for n in range(2, 13)]
    + [GroupSpec((2, 2, 2, 2)), GroupSpec((3, 3))],
    ids=lambda g: "x".join(map(str, g.moduli)),
)
def test_size_filter_walks_the_same_classes_in_order(g):
    # The filtered walk visits only masks of one popcount; it must yield
    # exactly the full walk's classes of that size, in the same order.
    classes = list(canonical_classes(g))
    for size in range(0, g.order + 2):
        expected = [T for T in classes if len(T) == size]
        assert list(canonical_classes(g, size)) == expected


def test_scan_z4_clean():
    _, summary = fuglede_scan(Z4)
    assert not summary.spectral_non_tiles and not summary.tiles_non_spectral


def test_scan_z4_size_3():
    records, _ = fuglede_scan(Z4, size_filter=3)
    assert len(records) == 1
    rec = records[0]
    assert not rec.spectral and not rec.tiles


def test_scan_explicit_subset_z3_5():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, _ = descend(g6, T6, L6)
    rec = scan_class(g5, T5)
    assert rec.spectral and not rec.tiles
    assert rec.elements == tuple(sorted(T5, key=g5.rank))


@pytest.mark.parametrize(
    "descriptor,nodes", [("15", 165), ("2^4", 4416), ("3x3", 57), ("12", 149)]
)
def test_clique_search_node_totals_are_pinned(descriptor, nodes):
    """Total clique-search nodes over all subset classes: a change to the
    vertex order or to the pruning shows here before it shows in a verdict."""
    g = GroupSpec.from_descriptor(descriptor)
    assert sum(find_spectrum(g, T).nodes for T in canonical_classes(g)) == nodes


def test_scan_record_json():
    records, _ = fuglede_scan(Z4, size_filter=2)
    for rec in records:
        obj = rec.to_json()
        assert set(obj) >= {"set", "spectral", "tiles"}


def outcome(call):
    """The value of call(), or the type and message of the ValueError it
    raises (a group exponent above the kernel's root order)."""
    try:
        return call()
    except ValueError as exc:
        return ValueError, str(exc)


def zero_set_reference(g, T):
    zero = g.identity()
    return frozenset(
        d
        for d in (g.unrank(r) for r in range(g.order))
        if d != zero and g.character_sum(T, d).is_zero()
    )


def spectrum_reference(g, T, L):
    """Validity and first bad pair of a nested rank-order loop."""
    for a, b in itertools.combinations(sorted(L, key=g.rank), 2):
        if not g.character_sum(T, g.sub(b, a)).is_zero():
            return False, (a, b)
    return True, None


@st.composite
def group_set_pairs(draw):
    """A group with 1-3 moduli in 2..12, a nonempty T and an L of the same
    size.  Half the pairs are a box T = {0..k_j-1} with L the multiples of
    n_j/k_j, a valid spectrum, with one frequency possibly moved."""
    moduli = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    g = GroupSpec(tuple(moduli))
    elems = [g.unrank(r) for r in range(g.order)]
    if draw(st.booleans()):
        ks = []  # box sides, at most 12 points in all
        for n in moduli:
            room = 12 // math.prod(ks)
            sides = [k for k in range(1, room + 1) if n % k == 0]
            ks.append(draw(st.sampled_from(sides)))
        T = frozenset(itertools.product(*[range(k) for k in ks]))
        L = set(itertools.product(*[range(0, n, n // k) for n, k in zip(moduli, ks)]))
        if len(L) < g.order and draw(st.booleans()):
            L.remove(draw(st.sampled_from(sorted(L))))
            L.add(draw(st.sampled_from([x for x in elems if x not in L])))
        return g, T, frozenset(L)
    size = draw(st.integers(1, min(g.order, 8)))
    sets = st.lists(st.sampled_from(elems), min_size=size, max_size=size, unique=True)
    return g, frozenset(draw(sets)), frozenset(draw(sets))


@settings(max_examples=150, deadline=None)
@given(group_set_pairs())
def test_batched_certificates_match_scalar_references(pair):
    g, T, L = pair
    event(f"exponent {'above' if g.exponent > 64 else 'within'} 64")
    assert outcome(lambda: fourier_zero_set(g, T)) == outcome(
        lambda: zero_set_reference(g, T)
    )
    got = outcome(lambda: is_spectrum(g, T, L))
    expected = outcome(lambda: spectrum_reference(g, T, L))
    if isinstance(got, tuple):
        assert got == expected
    else:
        event(f"spectrum valid: {got.valid}")
        assert (got.valid, got.witness) == expected
