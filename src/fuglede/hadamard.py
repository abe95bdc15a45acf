"""Butson-type Hadamard matrices and the spectral-set constructions they
induce.

A matrix is stored in log form: entry (j, k) is omega_q ** logs[j][k].
From a verified q-th-root Hadamard matrix of size N (q prime) we get the
standard-basis set {e_1, ..., e_N} in Z_q^N together with a spectrum read
off the matrix rows; descent trades one dimension for a translation and a
projection, and padding adds zero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .cyclotomic import first_nonvanishing_pair
from .groups import Element, GroupSpec, integer_rows
from .spectra import is_spectrum


@dataclass(frozen=True)
class ButsonMatrix:
    q: int
    logs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"root order must be >= 2, got {self.q}")
        rows = tuple(tuple(int(v) % self.q for v in row) for row in self.logs)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "logs", rows)

    @property
    def size(self) -> int:
        return len(self.logs)

    def to_json(self) -> dict:
        return {"q": self.q, "logs": [list(row) for row in self.logs]}

    @classmethod
    def from_json(cls, obj: dict) -> ButsonMatrix:
        """Accepts only {"q": integer, "logs": list of integer lists}."""
        if not isinstance(obj, dict) or type(obj.get("q")) is not int:
            raise ValueError('matrix JSON must be an object with an integer "q"')
        return cls(obj["q"], integer_rows(obj.get("logs"), '"logs"'))


@dataclass(frozen=True)
class ButsonCheck:
    ok: bool
    failing_pair: Optional[tuple[int, int]] = None


def verify_butson(H: ButsonMatrix) -> ButsonCheck:
    """Exact pairwise row orthogonality: rows j < jp are orthogonal iff
    sum_k omega_q ** (logs[jp][k] - logs[j][k]), a sum over the basis e_k of
    Z_q^N, vanishes; the witness is the first pair that fails."""
    bad = first_nonvanishing_pair(np.eye(H.size, dtype=np.int64), H.logs, H.q)
    return ButsonCheck(bad is None, bad)


# Order-12 real Hadamard matrix (+1 -> 0, -1 -> 1).
_H12_SIGNS = [
    "+-----------",
    "++-+---+++-+",
    "+++-+---+++-",
    "+-++-+---+++",
    "++-++-+---++",
    "+++-++-+---+",
    "++++-++-+---",
    "+-+++-++-+--",
    "+--+++-++-+-",
    "+---+++-++-+",
    "++---+++-++-",
    "+-+---+++-++",
]

PAPER_H12 = ButsonMatrix(
    2,
    tuple(
        tuple(0 if ch == "+" else 1 for ch in row) for row in _H12_SIGNS
    ),
)

# Order-6 matrix over cube roots of unity (1 -> 0, w -> 1, w^2 -> 2).
PAPER_H6 = ButsonMatrix(
    3,
    (
        (0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 2, 2),
        (0, 1, 0, 2, 2, 1),
        (0, 1, 2, 0, 1, 2),
        (0, 2, 2, 1, 0, 1),
        (0, 2, 1, 2, 1, 0),
    ),
)


def paper_h12() -> ButsonMatrix:
    return PAPER_H12


def paper_h6() -> ButsonMatrix:
    return PAPER_H6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


def spectrum_from_butson(
    H: ButsonMatrix,
) -> tuple[GroupSpec, frozenset[Element], frozenset[Element]]:
    """Standard-basis set in Z_q^N plus the spectrum read off the rows.

    Frequency k has coordinates logs[k], so its character value at e_j is
    exactly the matrix entry (k, j).
    """
    if not _is_prime(H.q):
        raise ValueError(f"only prime root orders supported, got {H.q}")
    check = verify_butson(H)
    if not check.ok:
        raise ValueError(f"matrix is not Hadamard: rows {check.failing_pair}")
    g = GroupSpec.power(H.q, H.size)
    T = frozenset(g.basis())
    L = frozenset(H.logs)
    result = is_spectrum(g, T, L)
    assert result.valid, "constructed spectrum failed verification"
    return g, T, L


def descend(
    g: GroupSpec,
    T: Iterable[Element],
    L: Iterable[Element],
) -> tuple[GroupSpec, frozenset[Element], frozenset[Element]]:
    """Drop one dimension: translate T by -e_1 into the zero-sum hyperplane,
    then project.

    Points map by dropping the last coordinate (free coordinates 1..N-1 of
    the hyperplane); frequencies map by subtracting the last coordinate
    from all and dropping it, which is well defined on classes modulo the
    diagonal and preserves the pairing exactly.
    """
    q = g.moduli[0]
    if any(n != q for n in g.moduli):
        raise ValueError("descent needs a homogeneous group Z_q^N")
    n = g.ndim
    if n < 2:
        raise ValueError("cannot descend below one dimension")
    e1 = g.standard_basis(1)
    shifted = [g.sub(x, e1) for x in T]
    for x in shifted:
        if sum(x) % q != 0:
            raise ValueError(f"translated point {x} not in the zero-sum hyperplane")
    g2 = GroupSpec.power(q, n - 1)
    T2 = frozenset(x[:-1] for x in shifted)
    L2 = frozenset(
        tuple((c - xi[-1]) % q for c in xi[:-1]) for xi in L
    )
    if len(T2) != len(frozenset(shifted)) or len(L2) != len(frozenset(L)):
        raise ValueError("descent collapsed distinct elements")
    result = is_spectrum(g2, T2, L2)
    assert result.valid, "descended spectrum failed verification"
    return g2, T2, L2


def pad_dimension(
    g: GroupSpec,
    T: Iterable[Element],
    L: Iterable[Element],
    new_dim: int,
) -> tuple[GroupSpec, frozenset[Element], frozenset[Element]]:
    """Zero-extend a spectral pair in Z_q^n to Z_q^{n'} for n' >= n."""
    q = g.moduli[0]
    if any(n != q for n in g.moduli):
        raise ValueError("padding needs a homogeneous group Z_q^n")
    if new_dim < g.ndim:
        raise ValueError(f"cannot pad {g.ndim} dimensions down to {new_dim}")
    extra = (0,) * (new_dim - g.ndim)
    g2 = GroupSpec.power(q, new_dim)
    T2 = frozenset(x + extra for x in T)
    L2 = frozenset(xi + extra for xi in L)
    return g2, T2, L2
