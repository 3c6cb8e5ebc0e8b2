"""Exact integer matrix arithmetic.

Everything in this package that decides smoothness, completeness, or ray
membership reduces to integer determinants and integer inverses, so the
linear algebra must be exact.  Entries are Python ints (arbitrary
precision); no floating point anywhere.

Determinants take Bareiss elimination (_det_rows), fraction-free: every
intermediate entry is a minor of the input, so every division is exact.
It serves det and tower.plucker; a fan's cones share their rows and take
fans._join_dets, the same row step once per shared prefix.

Inverses and adjugates use the fraction-free Gauss-Jordan variant
(Montante's method), with the same exact divisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class NotUnimodular(ValueError):
    """The matrix has no integer inverse; carries the offending determinant."""

    def __init__(self, determinant: int):
        super().__init__(f"not unimodular: determinant is {determinant}")
        self.determinant = determinant


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError(f"entries must be int, got {type(e).__name__}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        rows = [list(r) for r in rows]
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(e for row in rows for e in row))

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self.cols:
            raise IndexError(k)
        return self.entries[k :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    brows = b.to_rows()
    out: list[int] = []
    for i in range(a.rows):
        arow = a.row(i)
        acc = [0] * b.cols
        for k, aik in enumerate(arow):
            if aik:
                brow = brows[k]
                for j in range(b.cols):
                    acc[j] += aik * brow[j]
        out.extend(acc)
    return IntMatrix(a.rows, b.cols, tuple(out))


def _det_rows(rows: list[list[int]]) -> int:
    # Bareiss elimination; mutates its argument.  Each intermediate entry
    # is a minor of the input, so the // divisions are exact.
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for p in range(n - 1):
        if rows[p][p] == 0:
            for q in range(p + 1, n):
                if rows[q][p]:
                    rows[p], rows[q] = rows[q], rows[p]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[p][p]
        rp = rows[p]
        for i in range(p + 1, n):
            ri = rows[i]
            f = ri[p]
            for j in range(p + 1, n):
                ri[j] = (pivot * ri[j] - f * rp[j]) // prev
            ri[p] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    if not m.is_square():
        raise ValueError(f"determinant of {m.rows}x{m.cols}")
    return _det_rows(m.to_rows())


def adjugate_det(m: IntMatrix) -> tuple[IntMatrix, int]:
    """Adjugate and determinant, computed together fraction-free.

    adj(m) @ m == det(m) * identity, with adj integral even when det is 0
    on paper; this implementation bails out with det 0 and an unspecified
    adjugate slot only when elimination meets a vanishing column, so
    callers must check the determinant before using the adjugate.
    """
    if not m.is_square():
        raise ValueError(f"adjugate of {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return IntMatrix(0, 0, ()), 1
    # Fraction-free Gauss-Jordan on [m | I].  Row swaps act on whole
    # augmented rows, so the right block ends as det(P m) * inverse(m)
    # and the left block as det(P m) * I, P the pivoting permutation.
    aug = [list(m.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    swap_sign = 1
    prev = 1
    for p in range(n):
        if aug[p][p] == 0:
            for q in range(p + 1, n):
                if aug[q][p]:
                    aug[p], aug[q] = aug[q], aug[p]
                    swap_sign = -swap_sign
                    break
            else:
                return IntMatrix(n, n, (0,) * (n * n)), 0
        pivot = aug[p][p]
        ap = aug[p]
        for i in range(n):
            if i == p:
                continue
            ai = aug[i]
            f = ai[p]
            for j in range(2 * n):
                ai[j] = (pivot * ai[j] - f * ap[j]) // prev
        prev = pivot
    d = aug[n - 1][n - 1] * swap_sign  # true determinant of m
    # right block is det(P m) * inverse(m); adjugate is det(m) * inverse(m)
    adj_rows = [[swap_sign * e for e in aug[i][n:]] for i in range(n)]
    return IntMatrix.from_rows(adj_rows), d


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1.

    Raises NotUnimodular (carrying the determinant) otherwise.
    """
    adj, d = adjugate_det(m)
    if d not in (1, -1):
        raise NotUnimodular(d)
    if d == 1:
        return adj
    return IntMatrix(adj.rows, adj.cols, tuple(-e for e in adj.entries))
