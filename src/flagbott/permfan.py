"""The complete fan whose maximal cones are indexed by permutations.

Ground set {1, ..., n+1}, ambient lattice Z^n with basis eps_1, ..., eps_n
and the convention eps_{n+1} = 0.  Every nonempty proper subset S gives a
ray:

    u_S = sum_{s in S} eps_s                 if n+1 not in S,
    u_S = -sum_{s not in S} eps_s            if n+1 in S,

and every permutation v of {1,...,n+1} gives a maximal cone spanned by the
rays of its chain S_1 < ... < S_n, where S_p collects the last p values of
the one-line notation: S_p = {v(n+2-p), ..., v(n+1)}.  In perm_fan the
rays are listed by ascending bitmask, so the ray of S has index mask - 1,
and the cones are fans.permutation_cones(n): each formed straight from
the growing masks of its chain, in itertools.permutations order.

Permutations are plain tuples in one-line notation with values 1..n+1.
"""

from __future__ import annotations

from typing import Iterator

from .fans import Fan, Ray, RayLabel, Subset, permutation_cones

__all__ = [
    "Subset",
    "InvalidDimension",
    "InvalidRayLabel",
    "check_permutation",
    "proper_subsets",
    "perm_ray_vector",
    "perm_fan",
]


class InvalidDimension(ValueError):
    """Requested dimension is not a positive integer."""


class InvalidRayLabel(ValueError):
    """Subset cannot label a ray (wrong ground set, empty, or full)."""


def check_permutation(v: tuple[int, ...]) -> None:
    """Raise unless v is a permutation of {1, ..., len(v)} in one-line notation."""
    if sorted(v) != list(range(1, len(v) + 1)):
        raise ValueError(f"{v} is not a permutation of 1..{len(v)}")


def proper_subsets(ground: int) -> Iterator[Subset]:
    """All nonempty proper subsets of {1,...,ground}, ascending by bitmask."""
    for mask in range(1, (1 << ground) - 1):
        yield Subset(ground, mask)


def perm_ray_vector(n: int, s: Subset) -> tuple[int, ...]:
    """Primitive ray generator u_S in Z^n."""
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    if s.ground != n + 1:
        raise InvalidRayLabel(f"subset ground {s.ground}, expected {n + 1}")
    if not s.is_proper_nonempty():
        raise InvalidRayLabel(f"subset {s} must be nonempty and proper")
    vec = [0] * n
    if (n + 1) in s:
        for e in s.complement().members():
            vec[e - 1] = -1
    else:
        for e in s.members():
            vec[e - 1] = 1
    return tuple(vec)


def perm_fan(n: int) -> Fan:
    """The full fan in Z^n: 2^{n+1} - 2 rays, (n+1)! maximal cones."""
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    rays = tuple(Ray(RayLabel(1, s), perm_ray_vector(n, s)) for s in proper_subsets(n + 1))
    perms, cones = permutation_cones(n)
    return Fan((n,), rays, tuple(cones), tuple((v,) for v in perms))
