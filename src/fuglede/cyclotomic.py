"""Exact zero tests for integer combinations of m-th roots of unity.

A value is stored as a length-m integer coefficient vector c with
value = sum_k c[k] * omega_m^k, omega_m = e^{2*pi*i/m}.  Every zero test
reduces modulo the m-th cyclotomic polynomial by `reduction_matrix`, its one
source: in the batched kernel `vanishing`, fed root counts by `_root_counts`,
and in the scan's `chars` matrix.
The exponents d . x of `_root_counts` come from a float32 BLAS product whose
every value is an integer in [0, 2^24], where float32 is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

MAX_ORDER = 64
_BATCH = 1 << 16  # product entries and bins per chunk in _root_counts; <= _EXACT
_EXACT = 1 << 24  # float32 holds every integer in [0, 2^24] exactly


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Divide two integer polynomials (ascending coeffs); den must be monic
    and divide num exactly."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coef = num[k + len(den) - 1]
        out[k] = coef
        for i, d in enumerate(den):
            num[k + i] -= coef * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, computed by exact division of
    x^m - 1 by Phi_d over the proper divisors d of m."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m)[:-1]:
        poly = _poly_exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """Row k is the remainder of x^k modulo Phi_m (length phi(m)), as a
    read-only int64 array shared by every caller.

    A coefficient vector c represents zero iff c @ matrix == 0.
    """
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)  # x^k mod Phi_m by repeated shift-and-reduce
    for _ in range(m):
        rows.append(cur)
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i in range(deg):
                cur[i] -= lead * phi[i]
    matrix = np.array(rows, dtype=np.int64)
    matrix.flags.writeable = False
    return matrix


def vanishing(counts) -> np.ndarray:
    """Exact zero test on a batch of sums of m-th roots of unity.

    counts has shape (..., m); entry k of a row is the multiplicity of
    omega_m^k.  Returns a boolean array of shape (...), True where the sum
    vanishes, i.e. where the remainder modulo Phi_m is zero.
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.shape[-1]
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"unsupported root order {m}")
    return ~counts.dot(reduction_matrix(m)).any(axis=-1)


def vanishing_sums(points: np.ndarray, deltas: np.ndarray, m: int) -> np.ndarray:
    """Per row d of deltas, whether sum over rows x of the integer points of
    omega_m ** (d . x) vanishes: `vanishing` on each chunk of `_root_counts`."""
    out = [vanishing(counts) for counts in _root_counts(points, deltas, m)]
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


def _root_counts(points: np.ndarray, deltas: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Per chunk of consecutive rows d of deltas, the (k, m) int64 root
    multiplicities of sum over rows x of the integer points of
    omega_m ** (d . x): entry e of a row counts the x with d . x = e mod m.

    omega_m ** (d . x) depends only on d and x mod m, so both are reduced
    once; then every exponent d . x lies in [0, W) with
    W = max(d) * max_x sum(x) + 1 rounded up to a multiple of m.  Row r of
    a chunk gets the extra coordinate r * W against a column of ones, so one
    float32 product gives each entry's bincount index r * W + d . x.  Every
    partial sum of that product is a nonnegative integer below rows * W,
    which a chunk keeps within float32's exact integers (2^24), so the
    product is exact in any summation order.  One bincount per chunk, with
    bins folded mod m, gives each row's root multiplicities.  A chunk holds
    at most _BATCH product entries and _BATCH bins, or one row; ValueError
    if a single row's W exceeds 2^24, or if points or deltas are not integer
    arrays (a float entry may already be rounded).
    """
    points, deltas = np.asarray(points), np.asarray(deltas)
    if not all(np.issubdtype(a.dtype, np.integer) for a in (points, deltas)):
        raise ValueError("points and deltas must be integer arrays")
    points, deltas = points % m, deltas % m
    width = int(deltas.max(initial=0)) * int(points.sum(axis=1).max(initial=0)) + 1
    width = -(-width // m) * m
    if width > _EXACT:
        raise ValueError(f"exponent range {width} beyond float32's exact integers")
    step = max(1, _BATCH // max(len(points), width))  # deltas per chunk
    rows = min(step, len(deltas))
    aug = np.ones((points.shape[1] + 1, len(points)), dtype=np.float32)
    aug[:-1] = points.T
    lhs = np.empty((rows, len(aug)), dtype=np.float32)
    lhs[:, -1] = np.arange(0, rows * width, width)
    exps = np.empty((rows, len(points)), dtype=np.float32)
    index = np.empty(exps.shape, dtype=np.intp)
    for lo in range(0, len(deltas), step):
        chunk = deltas[lo : lo + step]
        k = len(chunk)
        lhs[:k, :-1] = chunk
        np.matmul(lhs[:k], aug, out=exps[:k])
        index[:k] = exps[:k]
        counts = np.bincount(index[:k].ravel(), minlength=k * width)
        yield counts.reshape(k, width // m, m).sum(axis=1)


def first_nonvanishing_pair(points, rows, m: int) -> Optional[tuple[int, int]]:
    """The first pair i < j, in the order (0,1), (0,2), ..., (1,2), ..., whose
    sum over points at rows[j] - rows[i] does not vanish; None if none."""
    i, j = np.triu_indices(len(rows), 1)
    rows = np.asarray(rows, dtype=np.int64)
    bad = np.flatnonzero(~vanishing_sums(points, rows[j] - rows[i], m))
    return (int(i[bad[0]]), int(j[bad[0]])) if bad.size else None


@dataclass(frozen=True)
class CyclotomicInt:
    """An integer combination of m-th roots of unity."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient vector length must equal the order")

    def is_zero(self) -> bool:
        """Exact zero test: remainder modulo Phi_m vanishes."""
        return bool(vanishing(self.coeffs))
