import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fuglede.cli import scan_line_writer, settled_line_writer
from fuglede.cyclotomic import vanishing
from fuglede.groups import GroupSpec
from fuglede.hadamard import descend, paper_h6, paper_h12, spectrum_from_butson
from fuglede import cyclotomic, spectra, tiling
from fuglede.spectra import (
    find_spectrum,
    fourier_zero_set,
    fuglede_scan,
    is_spectrum,
)
from oracles import canonical_classes, scan_class

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
    monkeypatch.setattr(tiling, "NODE_BUDGET", 0)
    with pytest.raises(tiling.BudgetExceeded, match="clique"):
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


def classes_by_definition(g, size=None):
    """Every subset containing 0 whose rank mask is the least over its
    translates that contain 0, in increasing mask order, by brute force.
    With a size, only the subsets of that size are walked."""
    elems = [g.unrank(r) for r in range(g.order)]
    # minus[x][y] = rank of y - x, from the scalar group arithmetic.
    minus = [[g.rank(g.sub(y, x)) for y in elems] for x in elems]
    sizes = range(1, g.order + 1) if size is None else [size]
    out = []
    for k in sizes:
        for rest in itertools.combinations(range(1, g.order), k - 1):
            ranks = (0, *rest)
            mask = sum(1 << r for r in ranks)
            if all(sum(1 << minus[x][y] for y in ranks) >= mask for x in ranks):
                out.append((mask, frozenset(elems[r] for r in ranks)))
    return [T for _, T in sorted(out, key=lambda item: item[0])]


DEFINITION_GROUPS = ["4", "6", "8", "12", "2^3", "3x3", "2x4", "2^4"]


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("descriptor", DEFINITION_GROUPS)
def test_canonical_classes_match_definition(monkeypatch, descriptor, blocks):
    # Small blocks make every group cross mask and class block boundaries.
    if blocks == "small":
        monkeypatch.setattr(spectra, "_MASK_BLOCK", 7)
        monkeypatch.setattr(spectra, "_CLASS_BLOCK", 3)
    g = GroupSpec.from_descriptor(descriptor)
    expected = classes_by_definition(g)
    assert list(canonical_classes(g)) == expected
    for size in range(1, g.order + 1):
        assert list(canonical_classes(g, size)) == [
            T for T in expected if len(T) == size
        ]


@pytest.mark.parametrize("descriptor", ["24", "2x12", "2x3x4"])
def test_canonical_classes_match_definition_at_full_width(descriptor):
    # Order 24: the masks reach bit 23, the top of SCAN_ORDER_LIMIT.
    g = GroupSpec.from_descriptor(descriptor)
    for size in range(1, 6):
        assert list(canonical_classes(g, size)) == classes_by_definition(g, size)


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("descriptor", DEFINITION_GROUPS)
def test_size_filtered_scan_matches_full_scan(monkeypatch, descriptor, blocks):
    if blocks == "small":
        monkeypatch.setattr(spectra, "_MASK_BLOCK", 7)
        monkeypatch.setattr(spectra, "_CLASS_BLOCK", 3)
    g = GroupSpec.from_descriptor(descriptor)
    records, _ = fuglede_scan(g)
    for size in range(1, g.order + 1):
        assert fuglede_scan(g, size_filter=size)[0] == [
            rec for rec in records if len(rec.elements) == size
        ]


@pytest.mark.parametrize("descriptor", ["15", "2^4", "3x3", "12", "2x6", "2x8"])
def test_scan_zero_rows_match_fourier_zero_set(monkeypatch, descriptor):
    """The scan hands a class its block-computed Z(T) row exactly when a
    clique search can run: #T > 1 and at least #T - 1 zeros.  The row must
    be the rank mask of fourier_zero_set, and searching with it must give
    the same result, node count included, as searching without it.  In
    2x6 and 2x8 the pairing scales the coordinate of Z_2 by m/2."""
    g = GroupSpec.from_descriptor(descriptor)
    search = spectra.find_spectrum
    seen = []

    def recording(g, T, zero=None):
        seen.append((frozenset(T), zero))
        return search(g, T, zero)

    monkeypatch.setattr(spectra, "find_spectrum", recording)
    records, _ = fuglede_scan(g)
    handed = dict(seen)
    classes = [frozenset(rec.elements) for rec in records]
    assert [T for T, _ in seen] == [T for T in classes if T in handed]
    for T in classes:
        zeros = fourier_zero_set(g, T)
        if T not in handed:
            # find_spectrum would return at once, before any search node.
            assert len(T) == 1 or len(zeros) < len(T) - 1
            continue
        assert len(T) > 1 and len(zeros) >= len(T) - 1
        zero = handed[T]
        expected = np.zeros(g.order, dtype=bool)
        expected[g.ranks(sorted(zeros))] = True
        assert zero.dtype == bool and zero.tolist() == expected.tolist()
        assert search(g, T, zero) == search(g, T)


def test_scan_makes_no_vanishing_call(monkeypatch):
    """The scan decides its zero rows in Z[omega] itself, as the lattice
    table does: a full scan of Z_15 makes no `vanishing` call, while
    fourier_zero_set, which keeps `vanishing_sums`, still reaches it."""
    calls = []

    def counting_vanishing(counts):
        calls.append(len(counts))
        return vanishing(counts)

    monkeypatch.setattr(cyclotomic, "vanishing", counting_vanishing)
    assert not hasattr(spectra, "vanishing")
    g = GroupSpec.cyclic(15)
    _, summary = fuglede_scan(g)
    assert summary.classes == 2191 and calls == []
    fourier_zero_set(g, [(0,), (5,), (10,)])
    assert calls == [15]


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("descriptor", ["15", "2^4", "3x3", "12", "2x4"])
def test_scan_records_match_the_per_class_route(monkeypatch, descriptor, blocks):
    """scan_records decides most classes from the block's zero and
    membership rows; scan_class runs both searches on each class with no
    zero row, and every record must come out the same."""
    g = GroupSpec.from_descriptor(descriptor)
    expected = [scan_class(g, T) for T in canonical_classes(g)]
    if blocks == "small":
        monkeypatch.setattr(spectra, "_MASK_BLOCK", 7)
        monkeypatch.setattr(spectra, "_CLASS_BLOCK", 3)
    assert fuglede_scan(g)[0] == expected
    for size in range(1, g.order + 1):
        assert fuglede_scan(g, size_filter=size)[0] == [
            rec for rec in expected if len(rec.elements) == size
        ]


def test_scan_searches_only_the_classes_the_block_leaves_open(monkeypatch):
    """On Z_15, 32 of the 2,191 classes can hold a spectrum of their size
    by the zero count, and 234 have a size dividing 15; of those, 46 tile
    or take the cover search past its first node."""
    g = GroupSpec.cyclic(15)
    covers = [tiling.find_tiling(g, T) for T in canonical_classes(g) if 15 % len(T) == 0]
    assert len(covers) == 234
    open_covers = sum(result.tiles or result.nodes > 1 for result in covers)
    assert open_covers == 46
    calls = {"find_spectrum": 0, "find_tiling": 0}

    def counted(module, name):
        original = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    counted(spectra, "find_spectrum")
    counted(tiling, "find_tiling")
    records, _ = fuglede_scan(g)
    assert len(records) == 2191
    assert calls == {"find_spectrum": 32, "find_tiling": open_covers}


def dies_at_first_node_by_definition(g, T):
    """Some c outside T has c - T inside T - T, in tuple arithmetic."""
    diffs = {g.sub(a, b) for a in T for b in T}
    outside = (c for c in map(g.unrank, range(g.order)) if c not in T)
    return any(all(g.sub(c, t) in diffs for t in T) for c in outside)


@pytest.mark.parametrize("descriptor", ["15", "12", "2x6", "2^4", "2x3x3"])
def test_scan_settles_exactly_the_covers_that_die_at_their_first_node(
    monkeypatch, descriptor
):
    """A class whose #T divides the order skips find_tiling exactly when
    that search returns not tiling at its first node, which is exactly
    when some c outside T has c - T inside T - T; the record is then the
    search's own: not tiling, no complement, no obstruction."""
    g = GroupSpec.from_descriptor(descriptor)
    search = tiling.find_tiling
    searched = set()

    def recording(g, T, translates=None):
        searched.add(frozenset(T))
        return search(g, T, translates)

    monkeypatch.setattr(tiling, "find_tiling", recording)
    records, _ = fuglede_scan(g)
    settled = 0
    for rec in records:
        T = frozenset(rec.elements)
        if g.order % len(T):
            assert T not in searched
            continue
        result = search(g, T)
        dies = not result.tiles and result.nodes == 1
        assert dies == dies_at_first_node_by_definition(g, T) == (T not in searched)
        if dies:
            settled += 1
            assert (rec.tiles, rec.complement, rec.obstruction) == (False, None, None)
    assert settled > 0


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


def record_oracle(rec):
    """The object a scan record's --json line encodes."""
    obj = {
        "set": [list(x) for x in rec.elements],
        "spectral": rec.spectral,
        "tiles": rec.tiles,
    }
    if rec.spectrum is not None:
        obj["spectrum"] = [list(x) for x in rec.spectrum]
    if rec.complement is not None:
        obj["complement"] = [list(x) for x in rec.complement]
    if rec.obstruction is not None:
        obj["obstruction"] = rec.obstruction.to_json()
    return obj


def encode(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_scan_record_json():
    for g in (Z4, GroupSpec((2, 3, 2))):
        line = scan_line_writer(g)
        for rec in fuglede_scan(g, size_filter=2)[0]:
            assert set(json.loads(line(rec))) >= {"set", "spectral", "tiles"}
            assert line(rec) == encode(record_oracle(rec))


@st.composite
def scan_record_cases(draw, present):
    """A group of 1-3 moduli (order at most 4096, values up to 3 digits)
    and a record over it with the optional fields in `present`."""
    moduli = [draw(st.integers(2, 300))]
    while len(moduli) < 3 and draw(st.booleans()):
        if (room := 4096 // math.prod(moduli)) < 2:
            break
        moduli.append(draw(st.integers(2, room)))
    g = GroupSpec(tuple(moduli))
    elements = st.builds(g.unrank, st.integers(0, g.order - 1))
    sets = st.lists(elements, min_size=1, max_size=5, unique=True).map(tuple)
    sizes = st.integers(1, 10**6)
    obstructions = st.builds(tiling.DivisibilityObstruction, sizes, sizes)
    spectrum, complement, obstruction = (
        draw(field) if wanted else None
        for wanted, field in zip(present, [sets, sets, obstructions])
    )
    rec = spectra.ScanRecord(
        draw(sets), draw(st.booleans()), draw(st.booleans()),
        spectrum, complement, obstruction,
    )
    return g, rec


@pytest.mark.parametrize(
    "present", list(itertools.product([False, True], repeat=3)),
    ids=lambda p: "".join("SCO"[k] if on else "-" for k, on in enumerate(p)),
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scan_line_writer_is_json_dumps(present, data):
    """Spectrum, complement and obstruction each present or absent.  The
    settled line of the record's set, made from its membership row, is the
    line of the record that #T fixes: not spectral, not tiling, obstructed
    exactly when #T does not divide the order."""
    g, rec = data.draw(scan_record_cases(present))
    line = scan_line_writer(g)
    assert line(rec) == encode(record_oracle(rec))
    members, k = set(rec.elements), len(rec.elements)
    row = [x in members for x in map(g.unrank, range(g.order))]
    ob = tiling.DivisibilityObstruction(k, g.order) if g.order % k else None
    event("settled, obstructed" if ob else "settled, not obstructed")
    settled = spectra.ScanRecord(tuple(sorted(members)), False, False, obstruction=ob)
    lines = settled_line_writer(g, line, True)([row], [k])
    assert lines == [encode(record_oracle(settled))]


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
    if got[0] is ValueError:
        assert got == expected
    else:
        event(f"spectrum valid: {got.valid}")
        assert (got.valid, got.witness) == expected
