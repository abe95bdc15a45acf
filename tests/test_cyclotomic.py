from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuglede import cyclotomic
from fuglede.cyclotomic import (
    MAX_ORDER,
    CyclotomicInt,
    cyclotomic_polynomial,
    vanishing,
    vanishing_sums,
)
from fuglede.groups import GroupSpec
from fuglede.hadamard import paper_h6, verify_butson
from fuglede.spectra import fourier_zero_set, is_spectrum

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
    assert abs(c.to_complex()) < 1e-12


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
            assert abs(c.to_complex()) < 1e-9
        else:
            assert abs(c.to_complex()) > 1e-9


def test_order_limit():
    vanishing(np.zeros(MAX_ORDER, dtype=np.int64))
    with pytest.raises(ValueError):
        vanishing(np.zeros(MAX_ORDER + 1, dtype=np.int64))
    with pytest.raises(ValueError):
        CyclotomicInt(MAX_ORDER + 1, (0,) * (MAX_ORDER + 1)).is_zero()


@given(
    m=st.sampled_from([1, 2, 3, 4, 6, 12, 64]),
    batch=st.integers(1, 12),
    wide=st.booleans(),
    data=st.data(),
)
def test_vanishing_sums_matches_scalar_sums(m, batch, wide, data):
    """Every chunk size gives the scalar verdict of each row, whatever the
    integer dtype of the deltas."""
    n = data.draw(st.integers(1, 3))
    points = np.array(
        data.draw(st.lists(st.tuples(*[st.integers(0, 2 * m)] * n), max_size=6)),
        dtype=np.int64,
    ).reshape(-1, n)
    deltas = data.draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * n), max_size=9))
    dtype = np.int64 if wide else np.min_scalar_type(m)
    with mock.patch.object(cyclotomic, "_BATCH", batch):
        got = vanishing_sums(points, np.array(deltas, dtype=dtype).reshape(-1, n), m)
    expected = [
        CyclotomicInt(m, tuple(np.bincount(points @ d % m, minlength=m))).is_zero()
        for d in np.array(deltas, dtype=np.int64).reshape(-1, n)
    ]
    assert got.dtype == bool and got.tolist() == expected


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
