"""Shared combinatorial types: subsets, labeled rays, fans.

A fan here is always simplicial and carried with its bookkeeping: rays are
labeled by (stage, subset), maximal cones are tuples of ray indices, and
each maximal cone remembers the tuple of permutations that produced it.
Subsets of {1,...,g} are bitmasks (bit i-1 is element i), which makes
complements, inclusion tests, and deterministic ordering cheap.  Code that
walks the cones of a fan works on ray indices and subset masks, not on
sets of labels.  permutation_chains holds the chain rule that turns a
permutation into the subset masks of its chain; stage_join alone numbers
those masks as rays, and joins the stages' cones, each formed when read.
A fan computes its cone determinants and is_join once each.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from . import exactlin
from .tower import EnumerationTooLarge

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


def permutation_chains(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The permutations v of {1, ..., n+1}, in itertools.permutations
    order, and the chain of each: S_1 < ... < S_n, S_p the last p values
    of v, as subset masks.  The masks grow along the chain."""
    perms = list(itertools.permutations(range(1, n + 2)))
    # S_1 < ... < S_n as bitmasks, adding v(n+1), v(n), ..., v(2) in turn
    chains = [tuple(itertools.accumulate(1 << (e - 1) for e in reversed(v[1:]))) for v in perms]
    return perms, chains


class _Join(Sequence):
    """stage_join's cones or permutation tuples, entry i formed when read as
    heads[i // T] + tails[i % T], T = len(tails); it equals, hashes and
    prints as the tuple of its entries.  The cones record dims and perm_tuples."""

    def __init__(self, heads: tuple, tails: tuple, dims: tuple[int, ...] | None = None, perm_tuples=None):
        self.heads, self.tails, self.dims, self.perm_tuples = heads, tails, dims, perm_tuples

    def __len__(self) -> int:
        return len(self.heads) * len(self.tails)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        h, t = divmod(range(len(self))[i], len(self.tails))
        return self.heads[h] + self.tails[t]

    def __iter__(self):
        return (h + t for h in self.heads for t in self.tails)

    def __eq__(self, other):
        if isinstance(other, _Join) and self.heads == other.heads and self.tails == other.tails:
            return True  # equal stage data, so equal entries, with none formed
        if not isinstance(other, (tuple, _Join)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def sorted_items(self) -> Iterator[tuple[int, tuple]]:
        """(i, self[i]) for i in sorted(range(len(self)), key=self.__getitem__),
        with no sort of the entries: heads have one length, so entries sort by head, then tail."""
        heads, tails = (sorted(range(len(s)), key=s.__getitem__) for s in (self.heads, self.tails))
        return ((h * len(tails) + t, self.heads[h] + self.tails[t]) for h in heads for t in tails)


def stage_join(dims: tuple[int, ...], cap: int) -> tuple[_Join, _Join]:
    """build_fan's cones for dims and their permutation tuples: the stages'
    permutation_chains, mask s as ray offset + s - 1, offset the earlier
    stages' ray count, joined in itertools.product order, so that each cone
    stays ascending; heads join all stages but the last, tails are its
    cones or (permutation,) singletons.
    Raises EnumerationTooLarge, before any cone is formed, over cap cones."""
    # the cone count, the product of the (n_ell + 1)!, formed factor by
    # factor so that a huge stage dimension stops at the first partial
    # product over cap, never in a factorial
    total = 1
    for n_ell in dims:
        for k in range(2, n_ell + 2):
            total *= k
            if total > cap:
                raise EnumerationTooLarge(total, cap)
    offsets = itertools.accumulate((2 ** (n_ell + 1) - 2 for n_ell in dims), initial=0)
    heads, tails, prefixes, singles = [()], [()], [()], [()]
    for n_ell, offset in zip(dims, offsets):
        heads = [h + t for h in heads for t in tails]
        prefixes = [h + t for h in prefixes for t in singles]
        perms, chains = permutation_chains(n_ell)
        tails = [tuple(offset + s - 1 for s in c) for c in chains]
        singles = [(v,) for v in perms]
    perm_tuples = _Join(tuple(prefixes), tuple(singles))
    return _Join(tuple(heads), tuple(tails), dims, perm_tuples), perm_tuples


@dataclass(frozen=True)
class Fan:
    """Simplicial fan with labeled rays and permutation-indexed maximal cones.

    rays are sorted by (stage, subset mask); each maximal cone is a tuple of
    ray indices in ascending order, which cone_dets checks; perm_tuples[i]
    is the tuple of one-line permutations (one per stage) that generated
    maxcones[i], so cones are in lexicographic order of those tuples.  Both
    are sequences: stage_join's form each entry when it is read.
    """

    dims: tuple[int, ...]
    rays: tuple[Ray, ...]
    maxcones: Sequence[tuple[int, ...]]
    perm_tuples: Sequence[PermTuple]

    @property
    def n(self) -> int:
        return sum(self.dims)

    @cached_property
    def cone_dets(self) -> tuple[int, ...]:
        """Determinant of each maximal cone, its ray vectors as rows in
        cone order; the determinant is transpose-invariant.

        The wall test reads a ray's position in its cone, so a cone without
        n rays, or whose ray indices descend anywhere or leave
        range(len(rays)), raises ValueError, as every shape, index or label
        error in the package does; a repeated index is left to its zero
        determinant."""
        n = self.n
        for ci, cone in enumerate(self.maxcones):
            if len(cone) != n:
                raise ValueError(f"cone {ci} has {len(cone)} rays in dimension {n}")
            if sorted(cone) != list(cone):
                raise ValueError(f"cone {ci} lists its rays out of order: {cone}")
            if cone and not (0 <= cone[0] and cone[-1] < len(self.rays)):
                raise ValueError(f"cone {ci} names a ray outside 0..{len(self.rays) - 1}: {cone}")
        visits = self.maxcones.sorted_items() if self.is_join else None  # sorted, without a sort
        return tuple(exactlin._dets(self.maxcones, [ray.vector for ray in self.rays], visits))

    @cached_property
    def is_join(self) -> bool:
        """Whether stage_join made the fan's cones and permutation tuples for
        its dims, and its ray labels are build_fan's, in build_fan's order: a
        fan built otherwise, even one equal to build_fan's, is not a join."""
        cones = self.maxcones
        if not (isinstance(cones, _Join) and cones.dims == self.dims and cones.perm_tuples is self.perm_tuples):
            return False
        labels = [RayLabel(ell, Subset(n + 1, s)) for ell, n in enumerate(self.dims, 1) for s in range(1, 2 ** (n + 1) - 1)]
        return [ray.label for ray in self.rays] == labels
