"""Finite abelian groups Z_{n_1} x ... x Z_{n_r} and their character theory.

Elements are plain tuples of reduced coordinates, ranked in row-major
(lexicographic) order; `coords` and `ranks` convert whole arrays of them.
The group is identified with its dual: a frequency xi pairs with a point x
through pairing(xi, x) = sum_j xi_j * x_j * (m / n_j) mod m, where
m = lcm(n_j), so the character value is omega_m ** pairing(xi, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .cyclotomic import CyclotomicInt

Element = tuple[int, ...]

EXHAUSTIVE_ORDER_LIMIT = 1 << 20


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given by its cyclic moduli."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 2 for n in self.moduli):
            raise ValueError(f"every modulus must be >= 2, got {self.moduli}")
        object.__setattr__(self, "moduli", tuple(int(n) for n in self.moduli))

    @classmethod
    def cyclic(cls, n: int) -> GroupSpec:
        return cls((n,))

    @classmethod
    def power(cls, p: int, k: int) -> GroupSpec:
        return cls((p,) * k)

    @classmethod
    def from_descriptor(cls, text: str) -> GroupSpec:
        """Parse 'n', 'p^k', or 'n1xn2x...' (factors may use '^', 1 <= k <= 2^20)."""
        moduli: list[int] = []
        for factor in text.lower().split("x"):
            base, power, exp = factor.partition("^")
            try:
                base, exp = int(base), int(exp) if power else 1
            except ValueError:  # not digits, or beyond int()'s digit limit
                shown = [
                    repr(s) if len(s) <= 24 else f"'{s[:12]}...' ({len(s)} characters)"
                    for s in (text, factor)
                ]
                raise ValueError(
                    f"group descriptor {shown[0]}: {shown[1]} is not a decimal integer "
                    "within int()'s digit limit"
                ) from None
            if not 1 <= exp <= 1 << 20:  # k factors are listed in memory
                raise ValueError(f"exponent of {factor!r} must be in 1..2^20")
            moduli.extend([base] * exp)
        return cls(tuple(moduli))

    @property
    def ndim(self) -> int:
        return len(self.moduli)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        m = self.exponent
        return tuple(m // n for n in self.moduli)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.ndim
        for j in range(self.ndim - 2, -1, -1):
            strides[j] = strides[j + 1] * self.moduli[j + 1]
        return tuple(strides)

    # -- elements ----------------------------------------------------------

    def identity(self) -> Element:
        return (0,) * self.ndim

    def validate(self, x: Element) -> None:
        if len(x) != self.ndim:
            raise ValueError(
                f"element of length {len(x)} in a {self.ndim}-dimensional group"
            )
        if any(not 0 <= c < n for c, n in zip(x, self.moduli)):
            raise ValueError(f"element {x} not reduced for moduli {self.moduli}")

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % n for a, b, n in zip(x, y, self.moduli))

    def standard_basis(self, j: int) -> Element:
        """Unit vector e_j, 1-indexed."""
        if not 1 <= j <= self.ndim:
            raise ValueError(f"basis index {j} out of range 1..{self.ndim}")
        return tuple(1 if i == j - 1 else 0 for i in range(self.ndim))

    def basis(self) -> tuple[Element, ...]:
        return tuple(self.standard_basis(j) for j in range(1, self.ndim + 1))

    def rank(self, x: Element) -> int:
        self.validate(x)
        return sum(c * s for c, s in zip(x, self._strides))

    def unrank(self, r: int) -> Element:
        if not 0 <= r < self.order:
            raise ValueError(f"rank {r} out of range for order {self.order}")
        out = []
        for n, s in zip(self.moduli, self._strides):
            out.append((r // s) % n)
        return tuple(out)

    @cached_property
    def coords(self) -> np.ndarray:
        """Every element as a read-only (order, ndim) int64 array, row r the
        element of rank r; the order must stay exhaustive-scale."""
        if self.order > EXHAUSTIVE_ORDER_LIMIT:
            raise ValueError(f"group of order {self.order} too large to enumerate")
        out = np.indices(self.moduli, dtype=np.int64).reshape(self.ndim, -1).T.copy()
        out.flags.writeable = False
        return out

    def ranks(self, rows) -> np.ndarray:
        """Ranks of the rows of a (k, ndim) integer array or list of elements,
        with the ValueError of `rank` for a wrong-length or unreduced row."""
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return np.zeros(0, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError(f"expected one row per element, got shape {rows.shape}")
        try:
            return np.ravel_multi_index(tuple(rows.T), self.moduli)
        except ValueError:
            for row in rows.tolist():
                self.validate(tuple(row))
            raise

    # -- characters --------------------------------------------------------

    def pairing(self, xi: Element, x: Element) -> int:
        """Exponent of omega_m in the character value <xi, x>."""
        if len(xi) != self.ndim or len(x) != self.ndim:
            raise ValueError("element length does not match the group")
        m = self.exponent
        return sum(a * b * w for a, b, w in zip(xi, x, self._weights)) % m

    def pairing_points(self, T: Iterable[Element]) -> np.ndarray:
        """Rows (x_j mod n_j) * (m / n_j) for x in T, one int64 row per
        element, so that pairing(d, x) = d . row mod m for any integer d."""
        rows = np.array(list(T), dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.ndim:
            raise ValueError("element length does not match the group")
        return rows % self.moduli * self._weights

    def character_sum(self, T: Iterable[Element], d: Element) -> CyclotomicInt:
        """sum over x in T of omega_m ** pairing(d, x), exactly."""
        m = self.exponent
        counts = [0] * m
        empty = True
        for x in T:
            counts[self.pairing(d, x)] += 1
            empty = False
        if empty:
            raise ValueError("character sum over the empty set")
        return CyclotomicInt(m, tuple(counts))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.moduli)


def element_set_to_json(T: Iterable[Element]) -> list[list[int]]:
    return [list(x) for x in sorted(T)]


def integer_rows(obj, what: str) -> list[list[int]]:
    """obj, checked to be a JSON list of lists of integers; ValueError for
    any other shape or for a non-integer entry (a float is not truncated)."""
    if isinstance(obj, list) and all(
        isinstance(row, list) and all(type(c) is int for c in row) for row in obj
    ):
        return obj
    raise ValueError(f"{what} must be a JSON list of lists of integers")


def element_set_from_json(g: GroupSpec, obj) -> frozenset[Element]:
    out = list(map(tuple, integer_rows(obj, "element set")))
    for x in out:
        g.validate(x)
    return frozenset(out)
