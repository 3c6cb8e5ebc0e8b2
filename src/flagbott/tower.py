"""Flag Bott towers and the genericity test for orbit representatives.

A tower of height m is a list of stage dimensions (n_1, ..., n_m) plus one
integer matrix per pair of stages ell < j, of shape (n_j+1) x (n_ell+1).
The matrix for (j, ell) twists stage j by characters of the stage-ell
torus: its rows are exponent vectors.

A point of the ambient product of linear groups is generic when every one
of its flag minors is nonzero: for each k, every k x k minor on column
block 1..k.  Genericity is what makes the orbit closure's fan independent
of the point, so the test must be exact: points are integer matrices and
each minor is the integer Bareiss determinant.  Integer points lose no
generality: scaling a row by a nonzero factor scales every minor through
it by that factor, so a rational point is generic exactly when the integer
matrix got by clearing each row's denominators is.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping

from .exactlin import DimensionMismatch, IntMatrix, _det_rows

MAX_ATTEMPTS = 10_000  # candidates sample_generic draws before giving up


class InvalidIndices(ValueError):
    """Row indices for a minor are out of range or not strictly increasing."""


class InvalidStagePair(ValueError):
    """Stage indices do not satisfy 1 <= ell < j <= m."""


class SamplingExhausted(RuntimeError):
    """Random search for a generic point hit the retry cap."""


@dataclass(frozen=True)
class FlagBottTower:
    """Stage dimensions plus the twist matrix for every pair ell < j.

    twists maps (j, ell) with 1 <= ell < j <= m to an IntMatrix of shape
    (dims[j-1] + 1) x (dims[ell-1] + 1).  Treat instances as immutable.
    """

    dims: tuple[int, ...]
    twists: Mapping[tuple[int, int], IntMatrix]

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    def twist(self, j: int, ell: int) -> IntMatrix:
        if not 1 <= ell < j <= self.m:
            raise InvalidStagePair(f"need 1 <= ell < j <= {self.m}, got ({j}, {ell})")
        try:
            return self.twists[(j, ell)]
        except KeyError:
            raise ValueError(f"tower has no matrix for stage pair ({j}, {ell})") from None


def validate(t: FlagBottTower) -> list[str]:
    """All structural defects of a tower; empty list means valid."""
    defects: list[str] = []
    if not t.dims:
        defects.append("tower has no stages")
    for ell, n_ell in enumerate(t.dims, start=1):
        if type(n_ell) is not int or n_ell < 1:
            defects.append(f"stage {ell} dimension must be a positive integer, got {n_ell!r}")
    if defects:
        return defects
    m = t.m
    required = {(j, ell) for j in range(2, m + 1) for ell in range(1, j)}
    for key in sorted(required - set(t.twists)):
        defects.append(f"missing matrix for stage pair {key}")
    for key in sorted(set(t.twists) - required):
        defects.append(f"unexpected matrix key {key!r}")
    for (j, ell) in sorted(required & set(t.twists)):
        a = t.twists[(j, ell)]
        want = (t.dims[j - 1] + 1, t.dims[ell - 1] + 1)
        if (a.rows, a.cols) != want:
            defects.append(
                f"matrix for stage pair ({j}, {ell}) has shape "
                f"{a.rows}x{a.cols}, expected {want[0]}x{want[1]}"
            )
        if any(type(e) is bool for e in a.entries):
            defects.append(f"matrix for stage pair ({j}, {ell}) holds a bool; entries must be int")
    return defects


def _flag_size(g: IntMatrix) -> int:
    if not g.is_square():
        raise DimensionMismatch(f"flag minors need a square matrix, got {g.rows}x{g.cols}")
    return g.rows


def plucker(g: IntMatrix, indices: tuple[int, ...]) -> int:
    """Minor of g on the given rows (1-indexed, increasing) and columns 1..k."""
    size = _flag_size(g)
    k = len(indices)
    if k < 1 or k > size:
        raise InvalidIndices(f"need between 1 and {size} row indices, got {k}")
    if any(not 1 <= i <= size for i in indices) or any(
        a >= b for a, b in zip(indices, indices[1:])
    ):
        raise InvalidIndices(f"row indices must be strictly increasing in 1..{size}: {indices}")
    return _det_rows([list(g.row(i - 1)[:k]) for i in indices])


def is_generic_matrix(g: IntMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every flag minor of the square matrix g is nonzero.

    Scans k = 1..size and, for each k, the k-element row sets in
    lexicographic order; returns (False, indices) at the first vanishing
    minor, else (True, None).
    """
    size = _flag_size(g)
    for k in range(1, size + 1):
        for indices in itertools.combinations(range(1, size + 1), k):
            if plucker(g, indices) == 0:
                return False, indices
    return True, None


def sample_generic(n: int, bound: int, seed: int) -> IntMatrix:
    """Random integer (n+1) x (n+1) matrix with all flag minors nonzero.

    Entries are drawn uniformly from [-bound, bound]; the draw is
    deterministic in seed.  Raises SamplingExhausted after MAX_ATTEMPTS
    rejected candidates.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    rng = random.Random(seed)
    size = n + 1
    for _ in range(MAX_ATTEMPTS):
        g = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        )
        ok, _ = is_generic_matrix(g)
        if ok:
            return g
    raise SamplingExhausted(f"no generic matrix found in {MAX_ATTEMPTS} attempts")
