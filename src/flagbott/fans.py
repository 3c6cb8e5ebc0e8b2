"""Shared combinatorial types: subsets, labeled rays, fans.

A fan here is always simplicial and carried with its bookkeeping: rays are
labeled by (stage, subset), maximal cones are tuples of ray indices, and
each maximal cone remembers the tuple of permutations that produced it.
Subsets of {1,...,g} are bitmasks (bit i-1 is element i), which makes
complements, inclusion tests, and deterministic ordering cheap.  Code that
walks the cones of a fan works on ray indices and subset masks, not on
sets of labels.  permutation_cones holds the chain rule that turns a
permutation into its cone.  A fan computes its cone determinants and its
departure from build_fan's order once each, on first use.
"""

from __future__ import annotations

import itertools
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


def permutation_cones(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The permutations v of {1, ..., n+1}, in itertools.permutations
    order, and the cone of each in perm_fan(n): the chain S_1 < ... < S_n,
    S_p the last p values of v, as ray indices mask - 1.  The masks grow
    along the chain, so each cone is ascending."""
    perms = list(itertools.permutations(range(1, n + 2)))
    # S_1 < ... < S_n as bitmasks, adding v(n+1), v(n), ..., v(2) in turn
    cones = [tuple(mask - 1 for mask in itertools.accumulate(1 << (e - 1) for e in reversed(v[1:]))) for v in perms]
    return perms, cones


def _cone_count(dims: tuple[int, ...], cap: int) -> int:
    # the product of the (n_ell + 1)!, formed factor by factor so that a
    # huge stage dimension stops at the first partial product over cap,
    # never in a factorial
    total = 1
    for n_ell in dims:
        for k in range(2, n_ell + 2):
            total *= k
            if total > cap:
                return total
    return total


def _stage_cones(dims: tuple[int, ...]) -> tuple[list[list[tuple[int, ...]]], list[list[tuple[int, ...]]]]:
    # each stage's cones, shifted past the earlier stages' rays as build_fan
    # lists them, so that a join in itertools.product order stays
    # ascending; and each stage's permutations
    chains = [permutation_cones(n_ell) for n_ell in dims]
    offsets = itertools.accumulate((2 ** (n_ell + 1) - 2 for n_ell in dims), initial=0)
    stage_cones = [[tuple(i + off for i in c) for c in cones] for (_, cones), off in zip(chains, offsets)]
    return stage_cones, [perms for perms, _ in chains]


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

    @cached_property
    def product_departure(self) -> int | None:
        """Where the fan departs from build_fan's fan of its dims, ray
        vectors aside: None when its ray labels, cones and permutation
        tuples are build_fan's, in build_fan's order; else the first cone
        whose rays or permutation tuple differ, or 0 when the ray labels or
        a list's length already differ.  The cones are compared one by one
        against a lazy join of the stage cones."""
        count = len(self.maxcones)
        if len(self.rays) != sum(2 ** (n + 1) - 2 for n in self.dims) or len(self.perm_tuples) != count:
            return 0
        labels = (RayLabel(ell, Subset(n + 1, s)) for ell, n in enumerate(self.dims, 1) for s in range(1, 2 ** (n + 1) - 1))
        if any(ray.label != label for ray, label in zip(self.rays, labels)) or _cone_count(self.dims, count) != count:
            return 0
        stage_cones, stage_perms = _stage_cones(self.dims)
        joins = zip(itertools.product(*stage_perms), itertools.product(*stage_cones))
        for ci, (pt, cone, (want_pt, parts)) in enumerate(zip(self.perm_tuples, self.maxcones, joins)):
            if pt != want_pt or cone != sum(parts, ()):
                return ci
        return None
