import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuglede.groups import GroupSpec, element_set_from_json, element_set_to_json
from oracles import to_complex


def brute_force_character(g, xi, x):
    """Independent character value: exp(2*pi*i * sum_j xi_j x_j / n_j)."""
    angle = sum(a * b / n for a, b, n in zip(xi, x, g.moduli))
    return cmath.exp(2j * cmath.pi * angle)


def test_pairing_z2_12_basis():
    g = GroupSpec.power(2, 12)
    e1 = g.standard_basis(1)
    assert g.pairing(e1, e1) == 1
    # character value is -1
    assert abs(brute_force_character(g, e1, e1) + 1) < 1e-12


def test_pairing_zero_frequency():
    g = GroupSpec((4, 2, 3))
    zero = g.identity()
    for r in range(g.order):
        assert g.pairing(zero, g.unrank(r)) == 0


def test_pairing_z3_z3():
    g = GroupSpec((3, 3))
    assert g.pairing((1, 2), (2, 2)) == 0
    # confirmed by the brute-force character table
    assert abs(brute_force_character(g, (1, 2), (2, 2)) - 1) < 1e-12


def test_pairing_symmetric_and_bilinear():
    g = GroupSpec((4, 2, 3))
    rng = random.Random(7)
    m = g.exponent
    for _ in range(50):
        a, b, c = (g.unrank(rng.randrange(g.order)) for _ in range(3))
        assert g.pairing(a, b) == g.pairing(b, a)
        assert g.pairing(g.add(a, b), c) == (g.pairing(a, c) + g.pairing(b, c)) % m


def test_pairing_points_match_pairing():
    """d . row mod m is the pairing, also for unreduced coordinates whose
    int64 products would wrap before reduction."""
    g = GroupSpec((4, 6))
    T = [(1, 5), (3, 2), (2**62 + 1, -7)]
    rows = g.pairing_points(T)
    assert rows.dtype == np.int64 and rows.shape == (3, 2)
    for d in g.coords.tolist():
        got = [int(np.dot(d, row)) % g.exponent for row in rows]
        assert got == [g.pairing(d, x) for x in T]
    with pytest.raises(ValueError):
        g.pairing_points([(1,), (2,)])


@pytest.mark.parametrize(
    "moduli,j,expected",
    [
        ((2,) * 12, 1, (1,) + (0,) * 11),
        ((3,) * 6, 6, (0, 0, 0, 0, 0, 1)),
        ((4, 2), 2, (0, 1)),
    ],
)
def test_standard_basis(moduli, j, expected):
    assert GroupSpec(moduli).standard_basis(j) == expected


def test_standard_basis_out_of_range():
    g = GroupSpec((2, 2))
    with pytest.raises(ValueError):
        g.standard_basis(0)
    with pytest.raises(ValueError):
        g.standard_basis(3)


def test_character_sum_trivial_character_counts():
    g = GroupSpec((3, 3))
    T = {(0, 0), (1, 0), (2, 2)}
    c = g.character_sum(T, g.identity())
    assert c.coeffs[0] == len(T) and not any(c.coeffs[1:])


def test_character_sum_z4_example():
    g = GroupSpec.cyclic(4)
    assert g.character_sum({(0,), (1,)}, (2,)).is_zero()


def test_rank_unrank_roundtrip():
    g = GroupSpec((4, 3, 2))
    seen = set()
    for r in range(g.order):
        x = g.unrank(r)
        assert g.rank(x) == r
        seen.add(x)
    assert len(seen) == g.order


def test_is_zero_matches_float_on_random_sums():
    rng = random.Random(11)
    for moduli in [(2,) * 6, (3, 3, 3), (4, 6), (12,)]:
        g = GroupSpec(moduli)
        elems = [g.unrank(r) for r in range(g.order)]
        for _ in range(20):
            T = rng.sample(elems, rng.randrange(1, min(9, g.order)))
            d = rng.choice(elems)
            exact = g.character_sum(T, d)
            approx = sum(brute_force_character(g, d, x) for x in T)
            assert exact.is_zero() == (abs(approx) < 1e-9)
            assert abs(to_complex(exact) - approx) < 1e-9


def test_parseval():
    rng = random.Random(3)
    for moduli in [(2, 2, 2), (3, 3), (4, 3), (6, 2)]:
        g = GroupSpec(moduli)
        elems = [g.unrank(r) for r in range(g.order)]
        T = rng.sample(elems, rng.randrange(1, g.order))
        total = sum(
            abs(to_complex(g.character_sum(T, d))) ** 2 for d in elems
        )
        assert math.isclose(total, g.order * len(T), rel_tol=1e-6)


def test_descriptor_parsing():
    assert GroupSpec.from_descriptor("3^5").moduli == (3,) * 5
    assert GroupSpec.from_descriptor("12").moduli == (12,)
    assert GroupSpec.from_descriptor("4x2x3").moduli == (4, 2, 3)
    assert GroupSpec.from_descriptor("2^1048576").moduli == (2,) * (1 << 20)


@pytest.mark.parametrize(
    "text", ["3x2^-1", "2^0x3", "2^1048577", "2^99999999999999999999"]
)
def test_descriptor_rejects_exponents_outside_1_to_2_20(text):
    # A power p^k lists its k factors in memory, so k is at most 2^20.
    message = r"exponent of '2\^-?\d+' must be in 1\.\.2\^20"
    with pytest.raises(ValueError, match=message):
        GroupSpec.from_descriptor(text)


SEVENS, CUT = "7" * 4400, "'777777777777...' (4400 characters)"
POWER = "'2^7777777777...' (4402 characters)"


@pytest.mark.parametrize(
    "text,shown",
    [
        (SEVENS, f"{CUT}: {CUT}"),
        ("3x" + SEVENS, f"'3x7777777777...' (4402 characters): {CUT}"),
        ("2^" + SEVENS, f"{POWER}: {POWER}"),
        ("4xab", "'4xab': 'ab'"),
    ],
)
def test_descriptor_names_itself_for_unreadable_factors(text, shown):
    # int() refuses more than 4,300 digits; the message stays short.
    with pytest.raises(ValueError) as info:
        GroupSpec.from_descriptor(text)
    assert str(info.value) == (
        f"group descriptor {shown} is not a decimal integer within int()'s digit limit"
    )


def test_json_roundtrip():
    g = GroupSpec((4, 3))
    assert g.to_json() == {"moduli": [4, 3]}
    T = frozenset({(0, 0), (3, 2)})
    assert element_set_from_json(g, element_set_to_json(T)) == T


@pytest.mark.parametrize(
    "obj",
    [[1, 2], [[0.5], [2]], [[True]], [["1"]], {"0": [0]}, [[0], 1]],
    ids=["flat", "float", "bool", "string", "object", "mixed"],
)
def test_element_set_from_json_rejects_non_integer_lists(obj):
    with pytest.raises(ValueError, match="list of lists of integers"):
        element_set_from_json(GroupSpec.cyclic(4), obj)


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def groups_and_rows(draw):
    """A group with 1-3 moduli and a list of rows, mostly elements; a row
    may have the wrong length or a coordinate outside [0, n_j)."""
    g = GroupSpec(tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))))
    width = g.ndim + draw(st.sampled_from([0, 0, 0, -1, 1]))
    coordinate = st.integers(0, max(g.moduli) - 1) | st.integers(-12, 12)
    row = st.lists(coordinate, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=6))
    return g, np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=200, deadline=None)
@given(groups_and_rows())
def test_ranks_match_rank(case):
    g, rows = case
    expected = outcome(lambda: [g.rank(tuple(x)) for x in rows.tolist()])
    assert outcome(lambda: g.ranks(rows).tolist()) == expected
    for r in range(g.order):
        assert tuple(g.coords[r].tolist()) == g.unrank(r)


def test_coords_is_read_only_and_limited():
    g = GroupSpec((4, 3))
    assert g.coords.shape == (12, 2) and g.coords.dtype == np.int64
    with pytest.raises(ValueError):
        g.coords[0, 0] = 1
    with pytest.raises(ValueError, match="too large"):
        GroupSpec.power(2, 21).coords


def test_invalid_groups_rejected():
    with pytest.raises(ValueError):
        GroupSpec((1, 2))
    with pytest.raises(ValueError):
        GroupSpec(())
