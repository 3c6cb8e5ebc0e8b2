"""Shared combinatorial types: subsets, labeled rays, fans.

A fan here is always simplicial and carried with its bookkeeping: rays are
labeled by (stage, subset), maximal cones are tuples of ray indices, and
each maximal cone remembers the tuple of permutations that produced it.
Subsets of {1,...,g} are bitmasks (bit i-1 is element i), which makes
complements, inclusion tests, and deterministic ordering cheap.  Code that
walks the cones of a fan works on ray indices and subset masks, not on
sets of labels.  A fan computes its cone determinants once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import exactlin

PermTuple = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, order=True)
class Subset:
    """Subset of the ground set {1, ..., ground}, stored as a bitmask."""

    ground: int
    mask: int

    def __post_init__(self):
        if self.ground < 1:
            raise ValueError(f"ground set size must be positive, got {self.ground}")
        if not 0 <= self.mask < (1 << self.ground):
            raise ValueError(f"mask {self.mask:#b} out of range for ground {self.ground}")

    @classmethod
    def of(cls, ground: int, members: Iterable[int]) -> Subset:
        mask = 0
        for e in members:
            if not 1 <= e <= ground:
                raise ValueError(f"element {e} outside ground set of size {ground}")
            mask |= 1 << (e - 1)
        return cls(ground, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(e for e in range(1, self.ground + 1) if self.mask >> (e - 1) & 1)

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.ground and bool(self.mask >> (e - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> Subset:
        return Subset(self.ground, ((1 << self.ground) - 1) ^ self.mask)

    def is_proper_nonempty(self) -> bool:
        return 0 < self.mask < (1 << self.ground) - 1

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.members()) + "}"


@dataclass(frozen=True, order=True)
class RayLabel:
    """Identity of a ray: which stage it belongs to and which subset names it."""

    stage: int
    subset: Subset

    def __str__(self) -> str:
        return f"{self.stage} {self.subset}"


@dataclass(frozen=True)
class Ray:
    label: RayLabel
    vector: tuple[int, ...]


class NotSimplicial(ValueError):
    """A maximal cone does not have exactly n rays."""


@dataclass(frozen=True)
class Fan:
    """Simplicial fan with labeled rays and permutation-indexed maximal cones.

    rays are sorted by (stage, subset mask); each maximal cone is a tuple of
    ray indices in ascending order, which cone_dets checks; perm_tuples[i]
    is the tuple of one-line permutations (one per stage) that generated
    maxcones[i], so cones are in lexicographic order of those tuples.
    """

    dims: tuple[int, ...]
    rays: tuple[Ray, ...]
    maxcones: tuple[tuple[int, ...], ...]
    perm_tuples: tuple[PermTuple, ...]

    @property
    def n(self) -> int:
        return sum(self.dims)

    @cached_property
    def cone_dets(self) -> tuple[int, ...]:
        """Determinant of each maximal cone, its ray vectors as rows in
        cone order; the determinant is transpose-invariant.

        The wall test reads a ray's position in its cone, so a cone whose
        ray indices descend anywhere raises ValueError; a repeated index
        is left to its zero determinant."""
        n = self.n
        for ci, cone in enumerate(self.maxcones):
            if len(cone) != n:
                raise NotSimplicial(f"cone {ci} has {len(cone)} rays in dimension {n}")
            if cone != tuple(sorted(cone)):
                raise ValueError(f"cone {ci} lists its rays out of order: {cone}")
        return tuple(exactlin._dets(self.maxcones, [ray.vector for ray in self.rays]))
