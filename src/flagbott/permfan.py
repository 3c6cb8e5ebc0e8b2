"""The complete fan whose maximal cones are indexed by permutations.

Ground set {1, ..., n+1}, ambient lattice Z^n with basis eps_1, ..., eps_n
and the convention eps_{n+1} = 0.  Every nonempty proper subset S gives a
ray:

    u_S = sum_{s in S} eps_s                 if n+1 not in S,
    u_S = -sum_{s not in S} eps_s            if n+1 in S,

and every permutation v of {1,...,n+1} gives a maximal cone spanned by the
rays of its chain S_1 < ... < S_n, where S_p collects the last p values of
the one-line notation: S_p = {v(n+2-p), ..., v(n+1)}.  In perm_fan the
rays are those of fans.ray_labels((n,)), by ascending bitmask, and the
cones are the chains of fans.permutation_chains(n), in
itertools.permutations order, which fans.stage_join numbers as rays: the
ray of S has index mask - 1.

Permutations are plain tuples in one-line notation with values 1..n+1.
"""

from __future__ import annotations

from .fans import Fan, Ray, Subset, ray_labels, stage_join
from .tower import DEFAULT_CONE_CAP


def check_permutation(v: tuple[int, ...]) -> None:
    """Raise unless v is a permutation of {1, ..., len(v)} in one-line
    notation, its entries ints: not floats or bools that equal them."""
    if any(type(e) is not int for e in v) or sorted(v) != list(range(1, len(v) + 1)):
        raise ValueError(f"{v} is not a permutation of 1..{len(v)}")


def perm_ray_vector(n: int, s: Subset) -> tuple[int, ...]:
    """Primitive ray generator u_S in Z^n."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if s.ground != n + 1:
        raise ValueError(f"subset ground {s.ground}, expected {n + 1}")
    if not s.is_proper_nonempty():
        raise ValueError(f"subset {s} must be nonempty and proper")
    vec = [0] * n
    if (n + 1) in s:
        for e in s.complement().members():
            vec[e - 1] = -1
    else:
        for e in s.members():
            vec[e - 1] = 1
    return tuple(vec)


def perm_fan(n: int) -> Fan:
    """The full fan in Z^n: 2^{n+1} - 2 rays, (n+1)! maximal cones; raises
    EnumerationTooLarge, before any ray is formed, over DEFAULT_CONE_CAP."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    cones, perm_tuples = stage_join((n,), DEFAULT_CONE_CAP)
    rays = tuple(Ray(label, perm_ray_vector(n, label.subset)) for label in ray_labels((n,)))
    return Fan((n,), rays, cones, perm_tuples)
