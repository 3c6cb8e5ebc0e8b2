"""Shared combinatorial types: subsets, labeled rays, fans.

A fan here is always simplicial and carried with its bookkeeping: rays are
labeled by (stage, subset), maximal cones are tuples of ray indices, and
each maximal cone remembers the tuple of permutations that produced it.
Subsets of {1,...,g} are bitmasks (bit i-1 is element i), which makes
complements, inclusion tests, and deterministic ordering cheap.  Code that
walks the cones of a fan works on ray indices and subset masks, not on
sets of labels.  permutation_chains holds the chain rule that turns a
permutation into the subset masks of its chain; stage_join alone numbers
those masks as rays, and joins the stages' cones stage by stage, each formed when read;
ray_labels alone lists the rays those numbers point at, in build_fan's order.
A fan computes its cone determinants and is_join once each; the
determinants come from _join_dets, a walk down a join's levels that forms
no cone, and any other fan's cones are the walk's one level.
The walk keeps one slot per level, the last head it walked in full: a head
with that head's divisor and reduced later rows copies its block of cones,
negated when their signs differ.  The key holds every input of the walk
below a head but its sign, so the slot is exact on any rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import prod

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
    heads[i // T] + tails[i % T], T = len(tails), heads the earlier stages' _Join or the root ((),);
    it equals, hashes and prints as the tuple of its entries.  The cones record dims and perm_tuples."""

    def __init__(self, heads: Sequence, tails: tuple, dims: tuple[int, ...] | None = None, perm_tuples=None):
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


def stage_join(dims: tuple[int, ...], cap: int) -> tuple[_Join, _Join]:
    """build_fan's cones for dims and their permutation tuples: the stages'
    permutation_chains, mask s as ray offset + s - 1, offset the earlier
    stages' ray count, joined in itertools.product order, so that each cone
    stays ascending; each stage joins the join of the stages before it, as heads,
    to its cones or (permutation,) singletons, as tails, and records dims and perm_tuples.
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
    cones = perm_tuples = ((),)
    for ell, (n_ell, offset) in enumerate(zip(dims, offsets), 1):
        perms, chains = permutation_chains(n_ell)
        perm_tuples = _Join(perm_tuples, tuple((v,) for v in perms))
        cones = _Join(cones, tuple(tuple(offset + s - 1 for s in c) for c in chains), dims[:ell], perm_tuples)
    return cones, perm_tuples


def ray_labels(dims: tuple[int, ...]) -> list[RayLabel]:
    """build_fan's ray labels, in build_fan's order: by stage, then by subset
    mask 1 .. 2**(n+1) - 2.  This is the list that stage_join's cones index:
    mask s of a stage is ray offset + s - 1, offset the earlier stages' ray count."""
    return [RayLabel(ell, Subset(n + 1, s)) for ell, n in enumerate(dims, 1) for s in range(1, 2 ** (n + 1) - 1)]


def _plan(tails: Sequence[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...], int]]:
    """(k, tails[ti][k:], ti) for each tail index ti, the tails sorted as
    tuples, so that lists and tuples may mix, k the length of the prefix
    shared with the tail before: each suffix entry is a new node of the
    tails' prefix trie."""
    plan, prev = [], ()
    for ti in sorted(range(len(tails)), key=lambda ti: tuple(tails[ti])):
        t, k = tails[ti], 0
        while k < len(prev) and t[k] == prev[k]:
            k += 1
        plan.append((k, t[k:], ti))
        prev = t
    return plan


def _reduce(x: list[int], stack: list[tuple[int, int, list[int]]], q: int) -> list[int]:
    """x after the Bareiss step against each (pivot position, pivot, row) of
    stack in turn, from the divisor q: each deletes the pivot's entry.  An
    entry of the result is a minor on the rows so far and the columns
    pivoted so far plus one, up to sign, so each // is exact."""
    for idx, p, row in stack:
        f = x[idx]
        if f:
            x = [(p * a - f * b) // q for a, b in zip(x, row)]
        elif p != q:
            x = [p * a // q for a in x]
        else:
            x = x.copy()
        del x[idx]
        q = p
    return x


def _levels(cones: Sequence[tuple[int, ...]], count: int, n: int) -> list[Sequence[tuple[int, ...]]] | None:
    """The join's levels, root first: the innermost heads, as the tails of
    one empty head, then each join's tails; cones that are not a join are
    the root alone.  None when a tail is not ascending, in range(count) or
    of its level's width, a level reaches below the largest index before
    it, or the widths do not sum to n.  A cone may still repeat a ray,
    within a tail or where a level starts at the largest index before it;
    the walk gives such a cone determinant 0."""
    levels, level = [], cones
    while isinstance(level, _Join):
        levels.insert(0, level.tails)
        level = level.heads
    levels.insert(0, level)
    hi, width = 0, 0
    for tails in levels:
        w = len(tails[0]) if tails else 0
        if any(len(t) != w or sorted(t) != list(t) or t and (t[0] < hi or t[-1] >= count) for t in tails):
            return None
        hi, width = max((t[-1] for t in tails if t), default=hi), width + w
    return levels if width == n else None


def _join_dets(cones: Sequence[tuple[int, ...]], rows: Sequence[Sequence[int]], n: int) -> list[int] | None:
    """Each cone's determinant, its rows in cone order, by a walk down the
    cones' _levels; None where _levels is None.

    Each head replays its level's _plan.  A node's row is its ray's row,
    already reduced against the head, reduced on against the nodes above it
    from the divisor q and the sign of the head's last row; a row with a
    negative pivot is negated and its node's sign flipped, which is Bareiss
    on the matrix with that row negated, so q stays positive.  A node with
    no pivot leaves the cones below it 0.  A complete tail is a head of the
    next level, whose rays are reduced against its new rows once, or, on the
    last level, cone base * len(tails) + ti, of determinant its signed last pivot.

    The walk below a head reads only its level, q, its reduced later rows
    pend and its sign, and gives the sign times a function of the other
    three.  So each level keeps one slot, the q, pend, index and sign of
    its last head walked in full, and a head with the slot's q and pend
    copies that head's block of cones, negated when the signs differ: exact
    on any rows.  On a fan whose later stages' rays vanish on the earlier
    blocks, pend is the later rows scaled by q, so the heads of one q share one walk."""
    levels = _levels(cones, len(rows), n)
    if levels is None:
        return None
    out = [0] * len(cones)
    plans = [(_plan(tails), len(tails), {r: i for i, r in enumerate(sorted({r for t in tails for r in t}))}) for tails in levels]
    # the cones below one head of each level: the tail counts from that level down
    blocks = [prod(size for _, size, _ in plans[li:]) for li in range(len(plans))]
    slots: list[tuple[int, list[list[int]], int, int] | None] = [None] * len(plans)

    def walk(li: int, base: int, q: int, sign: int, pend: list[list[int]]) -> None:
        # pend: the rows of levels li, li + 1, ... reduced against the head
        plan, size, pos = plans[li]
        slot, block = slots[li], blocks[li]
        if slot is not None and slot[0] == q and slot[1] == pend:
            done = out[slot[2] * block : slot[2] * block + block]
            out[base * block : base * block + block] = done if slot[3] == sign else [-d for d in done]
            return
        slots[li] = (q, pend, base, sign)
        stack, signs = [], [sign]
        for k, suffix, ti in plan:
            if k > len(stack):
                continue  # below a singular node, whose row the stack lacks
            del stack[k:], signs[k + 1 :]
            for r in suffix:
                x = _reduce(pend[pos[r]], stack, q)
                for idx, p in enumerate(x):
                    if p:
                        break
                else:
                    break  # singular: the cones below stay 0
                s = -signs[-1] if idx & 1 else signs[-1]
                if p < 0:
                    x, p, s = [-a for a in x], -p, -s
                signs.append(s)
                stack.append((idx, p, x))
            else:
                p = stack[-1][1] if stack else q
                if li + 1 < len(plans):
                    walk(li + 1, base * size + ti, p, signs[-1], [_reduce(y, stack, q) for y in pend[len(pos) :]])
                else:
                    out[base * size + ti] = signs[-1] * p

    walk(0, 0, 1, 1, [list(rows[r]) for _, _, pos in plans for r in pos])
    return out


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
        determinant.  The cones go to _join_dets, which checks each level's
        tails once and forms no cone of a join; a head with the divisor and
        reduced later rows of its level's last head walked in full copies
        that head's determinants.  Where it refuses them, each cone is
        checked, naming the first bad one, and the cones, if any, are walked
        as one level."""
        n, rows = self.n, [ray.vector for ray in self.rays]
        dets = _join_dets(self.maxcones, rows, n)
        if dets is None:
            for ci, cone in enumerate(self.maxcones):
                if len(cone) != n:
                    raise ValueError(f"cone {ci} has {len(cone)} rays in dimension {n}")
                if sorted(cone) != list(cone):
                    raise ValueError(f"cone {ci} lists its rays out of order: {cone}")
                if cone and not (0 <= cone[0] and cone[-1] < len(self.rays)):
                    raise ValueError(f"cone {ci} names a ray outside 0..{len(self.rays) - 1}: {cone}")
            dets = _join_dets(tuple(self.maxcones), rows, n) if self.maxcones else []
        return tuple(dets)

    @cached_property
    def is_join(self) -> bool:
        """Whether stage_join made the fan's cones and permutation tuples for
        its dims, and its ray labels are build_fan's, in build_fan's order: a
        fan built otherwise, even one equal to build_fan's, is not a join."""
        cones = self.maxcones
        if not (isinstance(cones, _Join) and cones.dims == self.dims and cones.perm_tuples is self.perm_tuples):
            return False
        return [ray.label for ray in self.rays] == ray_labels(self.dims)
