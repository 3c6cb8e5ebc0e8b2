"""Flag Bott towers and the genericity test for orbit representatives.

A tower of height m is a list of stage dimensions (n_1, ..., n_m) plus one
integer matrix per pair of stages ell < j, of shape (n_j+1) x (n_ell+1).
The matrix for (j, ell) twists stage j by characters of the stage-ell
torus: its rows are exponent vectors.

A point of the ambient product of linear groups is generic when every one
of its flag minors is nonzero: for each k, every k x k minor on column
block 1..k.  Genericity is what makes the orbit closure's fan independent
of the point, so the test must be exact: rational entries are Fractions,
and a minor clears each row's denominators and takes the integer Bareiss
determinant.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Mapping, Sequence

from .exactlin import IntMatrix, _det_rows

RatLike = int | Fraction


class InvalidIndices(ValueError):
    """Row indices for a minor are out of range or not strictly increasing."""


class InvalidStagePair(ValueError):
    """Stage indices do not satisfy 1 <= ell < j <= m."""


class NotInvertible(ValueError):
    """A group element required to be invertible is singular."""


class SamplingExhausted(RuntimeError):
    """Random search for a generic point hit the retry cap."""


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix over the rationals, row-major."""

    size: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.size * self.size:
            raise ValueError(f"size {self.size} needs {self.size**2} entries")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RatLike]]) -> RationalMatrix:
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        return cls(n, tuple(Fraction(e) for row in rows for e in row))

    @classmethod
    def identity(cls, size: int) -> RationalMatrix:
        return cls.diagonal([Fraction(1)] * size)

    @classmethod
    def diagonal(cls, values: Sequence[RatLike]) -> RationalMatrix:
        n = len(values)
        ent = [Fraction(0)] * (n * n)
        for i, v in enumerate(values):
            ent[i * n + i] = Fraction(v)
        return cls(n, tuple(ent))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.size + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.size : (i + 1) * self.size]

    def diagonal_entries(self) -> tuple[Fraction, ...]:
        return tuple(self.entry(i, i) for i in range(self.size))

    def is_upper_triangular(self) -> bool:
        return all(
            self.entry(i, j) == 0 for i in range(self.size) for j in range(i)
        )

    def scale_rows(self, factors: Sequence[RatLike]) -> RationalMatrix:
        if len(factors) != self.size:
            raise ValueError("one factor per row required")
        ent = []
        for i in range(self.size):
            f = Fraction(factors[i])
            ent.extend(f * e for e in self.row(i))
        return RationalMatrix(self.size, tuple(ent))

    def mul(self, other: RationalMatrix) -> RationalMatrix:
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        ent = []
        for i in range(n):
            ri = self.row(i)
            for j in range(n):
                ent.append(sum(ri[k] * other.entry(k, j) for k in range(n)))
        return RationalMatrix(n, tuple(ent))


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

    def truncated(self, stages: int) -> FlagBottTower:
        """The tower formed by the first `stages` stages."""
        if not 1 <= stages <= self.m:
            raise ValueError(f"stage count must be in 1..{self.m}, got {stages}")
        return FlagBottTower(
            self.dims[:stages],
            {(j, ell): a for (j, ell), a in self.twists.items() if j <= stages},
        )


def validate(t: FlagBottTower) -> list[str]:
    """All structural defects of a tower; empty list means valid."""
    defects: list[str] = []
    if not t.dims:
        defects.append("tower has no stages")
    for ell, n_ell in enumerate(t.dims, start=1):
        if not isinstance(n_ell, int) or n_ell < 1:
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
    return defects


def plucker(g: RationalMatrix, indices: tuple[int, ...]) -> Fraction:
    """Minor of g on the given rows (1-indexed, increasing) and columns 1..k."""
    k = len(indices)
    if k < 1 or k > g.size:
        raise InvalidIndices(f"need between 1 and {g.size} row indices, got {k}")
    if any(not 1 <= i <= g.size for i in indices) or any(
        a >= b for a, b in zip(indices, indices[1:])
    ):
        raise InvalidIndices(f"row indices must be strictly increasing in 1..{g.size}: {indices}")
    rows = [[g.entry(i - 1, c) for c in range(k)] for i in indices]
    # clear each row's denominators so the integer Bareiss routine applies
    scales = [lcm(*(e.denominator for e in row)) for row in rows]
    ints = [[e.numerator * (s // e.denominator) for e in row] for row, s in zip(rows, scales)]
    return Fraction(_det_rows(ints), prod(scales))


def is_generic_matrix(g: RationalMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every flag minor of g is nonzero.

    Scans k = 1..size and, for each k, the k-element row sets in
    lexicographic order; returns (False, indices) at the first vanishing
    minor, else (True, None).
    """
    for k in range(1, g.size + 1):
        for indices in itertools.combinations(range(1, g.size + 1), k):
            if plucker(g, indices) == 0:
                return False, indices
    return True, None


def sample_generic(
    n: int, bound: int, seed: int, max_attempts: int = 10_000
) -> RationalMatrix:
    """Random integer (n+1) x (n+1) matrix with all flag minors nonzero.

    Entries are drawn uniformly from [-bound, bound]; the draw is
    deterministic in seed.  Raises SamplingExhausted after max_attempts
    rejected candidates.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    rng = random.Random(seed)
    size = n + 1
    for _ in range(max_attempts):
        g = RationalMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        )
        ok, _ = is_generic_matrix(g)
        if ok:
            return g
    raise SamplingExhausted(f"no generic matrix found in {max_attempts} attempts")


def lambda_of(a: IntMatrix, b: RationalMatrix) -> RationalMatrix:
    """Diagonal character matrix: entry k is the product of b's diagonal
    entries raised to the exponents in row k of a.

    b must be upper triangular; a zero diagonal entry of b hit by a
    nonzero exponent makes the character undefined (NotInvertible).
    """
    if a.cols != b.size:
        raise ValueError(f"matrix has {a.cols} columns but group element has size {b.size}")
    if not b.is_upper_triangular():
        raise ValueError("group element must be upper triangular")
    diag = b.diagonal_entries()
    values = []
    for k in range(a.rows):
        v = Fraction(1)
        for i, d in enumerate(diag):
            e = a[k, i]
            if e == 0:
                continue
            if d == 0:
                raise NotInvertible(
                    f"diagonal entry {i + 1} is zero but has exponent {e}"
                )
            v *= d**e
        values.append(v)
    return RationalMatrix.diagonal(values)


def phi_apply(
    t: FlagBottTower,
    j: int,
    gs: Sequence[RationalMatrix],
    bs: Sequence[RationalMatrix],
) -> tuple[RationalMatrix, ...]:
    """Right action of a tuple of upper-triangular matrices on stage points.

    Stage i of the result is Lambda_i(bs)^{-1} * gs[i] * bs[i], where
    Lambda_i multiplies together the character matrices of all lower
    stages.  This is a right action: acting by bs then cs equals acting by
    the stagewise products bs[i] * cs[i].
    """
    if not 1 <= j <= t.m:
        raise ValueError(f"stage count must be in 1..{t.m}, got {j}")
    if len(gs) != j or len(bs) != j:
        raise ValueError(f"need {j} points and {j} group elements")
    for i in range(j):
        size = t.dims[i] + 1
        if gs[i].size != size or bs[i].size != size:
            raise ValueError(f"stage {i + 1} matrices must have size {size}")
        if not bs[i].is_upper_triangular():
            raise ValueError(f"group element at stage {i + 1} must be upper triangular")
        if any(d == 0 for d in bs[i].diagonal_entries()):
            raise NotInvertible(f"group element at stage {i + 1} is singular")
    out = []
    for i in range(1, j + 1):
        factors = [Fraction(1)] * (t.dims[i - 1] + 1)
        for ell in range(1, i):
            lam = lambda_of(t.twist(i, ell), bs[ell - 1])
            for k, d in enumerate(lam.diagonal_entries()):
                factors[k] /= d
        out.append(gs[i - 1].scale_rows(factors).mul(bs[i - 1]))
    return tuple(out)
