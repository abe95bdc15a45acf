import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuglede.cyclotomic import CyclotomicInt
from fuglede.groups import GroupSpec
from fuglede.hadamard import (
    ButsonCheck,
    ButsonMatrix,
    descend,
    paper_h6,
    paper_h12,
    spectrum_from_butson,
    verify_butson,
)
from fuglede.spectra import is_spectrum
from fuglede.tiling import find_tiling
from oracles import pad_dimension


def test_embedded_matrices_are_hadamard():
    assert verify_butson(paper_h12()).ok
    assert verify_butson(paper_h6()).ok


def test_embedded_rows_match_source():
    h12 = paper_h12()
    assert h12.logs[0] == (0,) + (1,) * 11
    assert h12.logs[1] == (0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
    h6 = paper_h6()
    assert h6.logs[0] == (0,) * 6
    assert h6.logs[1] == (0, 0, 1, 1, 2, 2)


def test_repeated_row_fails_with_pair():
    flat = ButsonMatrix(2, ((0, 0), (0, 0)))
    check = verify_butson(flat)
    assert not check.ok and check.failing_pair == (0, 1)


def test_butson_equivalence_operations_preserve_validity():
    h = paper_h6()
    rng = random.Random(4)
    rows = list(h.logs)
    rng.shuffle(rows)
    assert verify_butson(ButsonMatrix(3, tuple(rows))).ok
    perm = list(range(6))
    rng.shuffle(perm)
    cols = tuple(tuple(row[p] for p in perm) for row in h.logs)
    assert verify_butson(ButsonMatrix(3, cols)).ok
    row_shift = tuple(
        tuple(v + (2 if j == 3 else 0) for v in row)
        for j, row in enumerate(h.logs)
    )
    assert verify_butson(ButsonMatrix(3, row_shift)).ok
    col_shift = tuple(
        tuple(v + (1 if k == 2 else 0) for k, v in enumerate(row))
        for row in h.logs
    )
    assert verify_butson(ButsonMatrix(3, col_shift)).ok


def test_spectrum_from_h12():
    g, T, L = spectrum_from_butson(paper_h12())
    assert g == GroupSpec.power(2, 12)
    assert T == frozenset(g.basis())
    assert len(L) == 12
    assert is_spectrum(g, T, L).valid
    assert not find_tiling(g, T).tiles


def test_spectrum_from_h6():
    g, T, L = spectrum_from_butson(paper_h6())
    assert g == GroupSpec.power(3, 6)
    assert len(T) == len(L) == 6
    assert is_spectrum(g, T, L).valid
    assert not find_tiling(g, T).tiles


def test_spectrum_values_reproduce_matrix():
    h = paper_h6()
    g, _, L = spectrum_from_butson(h)
    basis = g.basis()
    rows = {xi: tuple(g.pairing(xi, e) for e in basis) for xi in L}
    assert set(rows.values()) == set(h.logs)


def test_trivial_one_by_one():
    g, T, L = spectrum_from_butson(ButsonMatrix(2, ((0,),)))
    assert T == frozenset({(1,)}) and L == frozenset({(0,)})


def test_composite_root_order_rejected():
    with pytest.raises(ValueError):
        spectrum_from_butson(ButsonMatrix(6, ((0,),)))


def test_unverified_matrix_rejected():
    with pytest.raises(ValueError):
        spectrum_from_butson(ButsonMatrix(2, ((0, 0), (0, 0))))


def test_descend_h6_to_z3_5():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    assert g5 == GroupSpec.power(3, 5)
    assert len(T5) == len(L5) == 6
    assert is_spectrum(g5, T5, L5).valid
    result = find_tiling(g5, T5)
    assert not result.tiles
    assert (result.obstruction.set_size, result.obstruction.group_order) == (6, 243)


def test_descend_h12_to_z2_11():
    g12, T12, L12 = spectrum_from_butson(paper_h12())
    g11, T11, L11 = descend(g12, T12, L12)
    assert g11 == GroupSpec.power(2, 11)
    assert len(T11) == 12
    assert is_spectrum(g11, T11, L11).valid
    obs = find_tiling(g11, T11).obstruction
    assert (obs.set_size, obs.group_order) == (12, 2048)


def test_descend_requires_hyperplane():
    g = GroupSpec.power(3, 3)
    with pytest.raises(ValueError):
        descend(g, {(0, 1, 1)}, {(0, 0, 0)})


def test_descend_rejects_a_pair_that_is_not_spectral():
    # Both points reach the hyperplane, but {0, 2} with {0, 1} in Z_3 is not
    # spectral; the check raises the error the CLI reports, also under -O.
    with pytest.raises(ValueError, match="descended spectrum failed verification"):
        descend(GroupSpec.power(3, 2), {(1, 0), (0, 1)}, {(0, 0), (1, 0)})


def test_pad_dimension():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    g6b, T6b, L6b = pad_dimension(g5, T5, L5, 6)
    assert g6b == GroupSpec.power(3, 6)
    assert is_spectrum(g6b, T6b, L6b).valid
    obs = find_tiling(g6b, T6b).obstruction
    assert (obs.set_size, obs.group_order) == (6, 729)


def test_pad_identity_and_singleton():
    g = GroupSpec.power(2, 1)
    g2, T2, L2 = pad_dimension(g, {(0,)}, {(0,)}, 3)
    assert g2 == GroupSpec.power(2, 3)
    assert T2 == frozenset({(0, 0, 0)})
    assert find_tiling(g2, T2).tiles
    same = pad_dimension(g, {(0,)}, {(0,)}, 1)
    assert same[1] == frozenset({(0,)})
    with pytest.raises(ValueError):
        pad_dimension(GroupSpec.power(2, 2), {(0, 0)}, {(0, 0)}, 1)


def test_matrix_json_roundtrip():
    h = paper_h6()
    assert ButsonMatrix.from_json(h.to_json()) == h


@st.composite
def butson_candidates(draw):
    """Random q <= 6, size <= 6 matrices; half are the Fourier matrix
    j*k mod q with rows and columns permuted and one entry possibly
    changed, so orthogonal rows and late witnesses both occur."""
    q = draw(st.integers(2, 6))
    if draw(st.booleans()):
        rows = [[j * k % q for k in range(q)] for j in range(q)]
        rows = draw(st.permutations(rows))
        cols = draw(st.permutations(range(q)))
        rows = [[row[c] for c in cols] for row in rows]
        if draw(st.booleans()):
            j, k = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
            rows[j][k] += draw(st.integers(1, q - 1))
        return ButsonMatrix(q, tuple(map(tuple, rows)))
    size = draw(st.integers(0, 6))
    entries = st.lists(st.integers(0, q - 1), min_size=size, max_size=size)
    rows = draw(st.lists(entries, min_size=size, max_size=size))
    return ButsonMatrix(q, tuple(map(tuple, rows)))


@given(butson_candidates())
def test_verify_butson_matches_per_pair_reference(H):
    expected = ButsonCheck(True)
    for j, jp in itertools.combinations(range(H.size), 2):
        counts = [0] * H.q
        for a, b in zip(H.logs[j], H.logs[jp]):
            counts[(a - b) % H.q] += 1
        if not CyclotomicInt(H.q, tuple(counts)).is_zero():
            expected = ButsonCheck(False, (j, jp))
            break
    check = verify_butson(H)
    assert check == expected
    assert all(type(v) is int for v in check.failing_pair or ())


@st.composite
def prime_log_matrices(draw):
    """q in {2, 3, 5, 7}, size 1..5: the Fourier matrix j*k mod q where it
    fits or random entries, then possibly one row repeated."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    if q <= 5 and draw(st.booleans()):
        rows = [[j * k % q for k in range(q)] for j in range(q)]
    else:
        size = draw(st.integers(1, 5))
        entries = st.lists(st.integers(0, q - 1), min_size=size, max_size=size)
        rows = draw(st.lists(entries, min_size=size, max_size=size))
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1] = rows[draw(st.integers(0, len(rows) - 2))]
    return ButsonMatrix(q, tuple(map(tuple, rows)))


@given(prime_log_matrices())
def test_rows_are_a_spectrum_of_the_basis_exactly_when_hadamard(H):
    # spectrum_from_butson rests on this: verify_butson alone decides the spectrum.
    g = GroupSpec.power(H.q, H.size)
    assert verify_butson(H).ok == is_spectrum(g, g.basis(), frozenset(H.logs)).valid


@pytest.mark.parametrize(
    "obj",
    [
        {"logs": [[0, 0], [0, 1]]},
        [[0, 0], [0, 1]],
        {"q": 2.5, "logs": [[0, 0], [0, 1]]},
        {"q": 2, "logs": [[0, 0], [0, 1.0]]},
        {"q": 2, "logs": [0, 1]},
    ],
    ids=["no-q", "list", "float-q", "float-entry", "flat-logs"],
)
def test_from_json_rejects_malformed_matrices(obj):
    with pytest.raises(ValueError):
        ButsonMatrix.from_json(obj)
