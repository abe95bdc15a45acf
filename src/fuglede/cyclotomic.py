"""Exact zero tests for integer combinations of m-th roots of unity.

A value is stored as a length-m integer coefficient vector c with
value = sum_k c[k] * omega_m^k, omega_m = e^{2*pi*i/m}.  Zero testing
reduces the coefficient polynomial modulo the m-th cyclotomic polynomial,
so every vanishing-sum claim is decided with integers only, by the one
batched kernel `vanishing`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 64


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
    # x^k mod Phi_m by repeated shift-and-reduce.
    cur = [0] * deg
    for k in range(m):
        if k == 0:
            cur = [1] + [0] * (deg - 1)
        else:
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for i in range(deg):
                    cur[i] -= lead * phi[i]
        rows.append(cur)
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

    def to_complex(self) -> complex:
        """Floating-point evaluation, diagnostics only."""
        m = self.order
        return sum(
            c * cmath.exp(2j * cmath.pi * k / m)
            for k, c in enumerate(self.coeffs)
            if c
        )
