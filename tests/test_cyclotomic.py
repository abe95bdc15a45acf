from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuglede import cyclotomic
from fuglede.cyclotomic import (
    MAX_ORDER,
    CyclotomicInt,
    cyclotomic_polynomial,
    reduction_matrix,
    vanishing,
    vanishing_sums,
)
from fuglede.groups import GroupSpec
from fuglede.hadamard import paper_h6, verify_butson
from fuglede.spectra import fourier_zero_set, is_spectrum
from oracles import to_complex

# Ascending coefficients, cross-checked against the standard table.
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,phi", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomial_table(m, phi):
    assert cyclotomic_polynomial(m) == phi


def test_phi_degrees_sum_to_m():
    for m in (6, 12, 30, 48, 60):
        total = sum(len(cyclotomic_polynomial(d)) - 1 for d in range(1, m + 1) if m % d == 0)
        assert total == m


def test_full_sum_of_cube_roots_is_zero():
    assert CyclotomicInt(3, (1, 1, 1)).is_zero()


def test_order_two():
    assert CyclotomicInt(2, (5, 5)).is_zero()
    assert not CyclotomicInt(2, (5, 4)).is_zero()


def test_cube_roots_embedded_in_order_six():
    c = CyclotomicInt(6, (1, 0, 1, 0, 1, 0))
    assert c.is_zero()
    assert abs(to_complex(c)) < 1e-12


def test_singleton_root_is_not_zero():
    for m in (2, 3, 6, 12):
        roots = np.eye(m, dtype=np.int64)  # row k is omega_m^k alone
        assert not vanishing(roots).any()
        for k in range(m):
            assert not CyclotomicInt(m, tuple(roots[k])).is_zero()


@given(
    m=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
    data=st.data(),
)
def test_is_zero_agrees_with_floating_point(m, data):
    batch = data.draw(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=m, max_size=m).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    verdicts = vanishing(batch)
    assert verdicts.shape == (len(batch),)
    for coeffs, verdict in zip(batch, verdicts):
        c = CyclotomicInt(m, coeffs)
        assert c.is_zero() == verdict
        if verdict:
            assert abs(to_complex(c)) < 1e-9
        else:
            assert abs(to_complex(c)) > 1e-9


def test_reduction_rows_have_unit_coefficients():
    """x^k mod Phi_m has coefficients in {-1, 0, 1} for every admitted order
    m and every k < m: the bound behind the lattice table's exactness guard
    and behind the exactness of the scan's float32 product with `chars`."""
    for m in range(1, MAX_ORDER + 1):
        matrix = reduction_matrix(m)
        assert matrix.shape == (m, len(cyclotomic_polynomial(m)) - 1)
        assert np.isin(matrix, (-1, 0, 1)).all(), m


def test_order_limit():
    vanishing(np.zeros(MAX_ORDER, dtype=np.int64))
    with pytest.raises(ValueError):
        vanishing(np.zeros(MAX_ORDER + 1, dtype=np.int64))
    with pytest.raises(ValueError):
        CyclotomicInt(MAX_ORDER + 1, (0,) * (MAX_ORDER + 1)).is_zero()
    # An empty batch has no order to check: is_spectrum asks for one with a
    # single frequency, whatever the group's exponent.
    points = np.zeros((2, 3), dtype=np.int64)
    empty = vanishing_sums(points, np.zeros((0, 3), dtype=np.int64), 66)
    assert empty.dtype == bool and empty.shape == (0,)
    with pytest.raises(ValueError, match="unsupported root order 66"):
        vanishing_sums(points, np.zeros((1, 3), dtype=np.int64), 66)


def integer_rows(n, size):
    """Up to size rows of n integers: small ones, bytes, and either signed
    ones up to 2^62 in magnitude or unsigned ones up to 2^64 - 1, whose
    products wrap int64 (or uint8) unless reduced first."""
    big = st.sampled_from([st.integers(-(2**62), 2**62), st.integers(0, 2**64 - 1)])
    return big.flatmap(
        lambda b: st.lists(
            st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 255), b)] * n),
            max_size=size,
        )
    )


def integer_array(rows, n, wide):
    """rows as a (k, n) array of the narrowest integer dtype holding them,
    at least uint8, or of int64 (uint64 past 2^63) when wide."""
    values = [v for row in rows for v in row]
    dtype = np.result_type(np.uint8, *map(np.min_scalar_type, values))
    if wide or dtype.kind == "f":  # negatives with entries >= 2^32 promote to float64
        dtype = np.uint64 if max(values, default=0) >= 2**63 else np.int64
    return np.array(rows, dtype=dtype).reshape(-1, n)


def python_sums_vanish(points, deltas, m):
    """The verdict of each delta, with each exponent summed in Python ints."""
    verdicts = []
    for d in deltas:
        counts = [0] * m
        for x in points:
            counts[sum(a * b for a, b in zip(d, x)) % m] += 1
        verdicts.append(CyclotomicInt(m, tuple(counts)).is_zero())
    return verdicts


@given(
    m=st.sampled_from([1, 2, 3, 4, 6, 9, 12, 63, 64]),
    batch=st.integers(1, 1 << 14),
    wide=st.tuples(st.booleans(), st.booleans()),
    order_type=st.sampled_from([int, np.int64, np.uint64]),
    data=st.data(),
)
def test_vanishing_sums_matches_scalar_sums(m, batch, wide, order_type, data):
    """Every chunk size gives the exact verdict of each row, whatever the
    sign, magnitude and integer dtype of the points and deltas, and whether
    the order is a Python or a NumPy integer."""
    n = data.draw(st.integers(1, 6))
    points = data.draw(integer_rows(n, 6))
    deltas = data.draw(integer_rows(n, 12))
    with mock.patch.object(cyclotomic, "_BATCH", batch):
        got = vanishing_sums(
            integer_array(points, n, wide[0]),
            integer_array(deltas, n, wide[1]),
            order_type(m),
        )
    assert got.dtype == bool and got.tolist() == python_sums_vanish(points, deltas, m)


def test_vanishing_sums_reduces_by_a_numpy_order_exactly():
    # uint64 % np.int64 promotes to float64, which rounds 2^64 - 1 (0 mod 3)
    # to 2^64 (1 mod 3): the sum 3 * omega^0 would read as 1 + omega + omega^2.
    points = np.array([[0], [1], [2]], dtype=np.int64)
    delta = np.array([[2**64 - 1]], dtype=np.uint64)
    for order in (3, np.int64(3), np.uint64(3)):
        assert vanishing_sums(points, delta, order).tolist() == [False]


def test_vanishing_sums_rejects_float_arrays():
    # 12,499,999,999,999,989 is 0 mod 3 (a nonzero sum over these points),
    # but its nearest float64 is 2 mod 3 (a vanishing one).
    points = np.array([[0], [1], [2]], dtype=np.int64)
    with pytest.raises(ValueError, match="integer arrays"):
        vanishing_sums(points, np.array([[12_499_999_999_999_989.0]]), 3)
    with pytest.raises(ValueError, match="integer arrays"):
        vanishing_sums(points.astype(float), np.array([[1]]), 3)


def test_vanishing_sums_exact_past_float32s_integers():
    """Mod 63, with 62s in n columns an exponent reaches 62 * 62n, past
    float32's exact integers (2^24) from n = 4365 on.  For the first and
    last delta the three points have exponents e, e - 1281 and e - 2562,
    which are omega^e times the cube roots of unity: a vanishing sum that
    rounding the odd gap 1281 would break.  The verdicts stay exact at any
    width."""

    def rows(n):
        points = np.full((3, n), 62, dtype=np.int64)
        points[:, 0] = [62, 41, 20]
        deltas = np.full((3, n), 62, dtype=np.int64)
        deltas[:, 0] = [61, 0, 61]
        return points, deltas

    for n in (4364, 4365, 100_000):
        points, deltas = rows(n)
        expected = python_sums_vanish(points.tolist(), deltas.tolist(), 63)
        assert expected == [True, False, True]
        assert vanishing_sums(points, deltas, 63).tolist() == expected


Z6 = GroupSpec.cyclic(6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fourier_zero_set(Z6, {(0,), (2,), (4,)}),
        lambda: is_spectrum(Z6, {(0,), (2,), (4,)}, {(0,), (1,), (2,)}),
        lambda: verify_butson(paper_h6()),
    ],
    ids=["fourier_zero_set", "is_spectrum", "verify_butson"],
)
def test_certificates_call_the_kernel_once(monkeypatch, call):
    """Each certificate decides all its sums in one batch, not one kernel
    call per sum."""
    calls = []

    def counting_vanishing(counts):
        calls.append(len(counts))
        return vanishing(counts)

    monkeypatch.setattr(cyclotomic, "vanishing", counting_vanishing)
    call()
    assert len(calls) == 1 and calls[0] > 1
