"""Exact zero tests for integer combinations of m-th roots of unity.

A value is stored as a length-m integer coefficient vector c with
value = sum_k c[k] * omega_m^k, omega_m = e^{2*pi*i/m}.  Every zero test
reduces modulo the m-th cyclotomic polynomial by `reduction_matrix`, its one
source: in the batched kernel `vanishing`, fed root counts by `_root_counts`,
and in the scan's `chars` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

MAX_ORDER = 64
_BATCH = 1 << 16  # product entries and bins per chunk in _root_counts


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
    omega_m ** (d . x) vanishes: `vanishing` applied to `_root_counts`."""
    counts = _root_counts(points, deltas, m)
    return vanishing(counts) if len(counts) else np.zeros(0, dtype=bool)


def _root_counts(points: np.ndarray, deltas: np.ndarray, m: int) -> np.ndarray:
    """The (k, m) int64 root multiplicities of sum over rows x of the integer
    points of omega_m ** (d . x), one row per row d of the (k, n) deltas:
    entry e of a row counts the x with d . x = e mod m.

    omega_m ** (d . x) depends only on d and x mod m, so both are reduced
    by m as a Python int (uint64 % a NumPy integer is float64, which rounds)
    before the cast to int64 (an unsigned entry would wrap otherwise), and
    every product d . x is an int64 of at most n (m - 1)^2.  Per chunk, row
    r's exponents mod m are offset by r * m, so one bincount gives the
    chunk's counts.  A chunk holds at most _BATCH product entries and _BATCH
    bins, or one row.  ValueError for non-integer arrays (a float may be rounded)
    and, before any bin, for a nonempty batch whose order `vanishing` refuses.
    """
    points, deltas, m = np.asarray(points), np.asarray(deltas), int(m)
    if not all(np.issubdtype(a.dtype, np.integer) for a in (points, deltas)):
        raise ValueError("points and deltas must be integer arrays")
    if len(deltas) and not 1 <= m <= MAX_ORDER:
        raise ValueError(f"unsupported root order {m}")
    points, deltas = ((a % m).astype(np.int64) for a in (points, deltas))
    step = max(1, _BATCH // max(len(points), m))  # deltas per chunk
    counts = np.empty((len(deltas), m), dtype=np.int64)
    for lo in range(0, len(deltas), step):
        exps = deltas[lo : lo + step] @ points.T % m
        k = len(exps)
        exps += np.arange(0, k * m, m)[:, None]
        counts[lo : lo + k] = np.bincount(exps.ravel(), minlength=k * m).reshape(k, m)
    return counts


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
