"""Shared fixtures and test oracles.

The two golden towers, a seeded random-tower sampler, and reference
helpers that build expected values independently of the library's
pipeline: the chain of a permutation and its inverse, chain-tuple cone
labels, label lookups on a fan, tower truncation, the chain-sum form
of the accumulated twist matrices, and the weight oracle cone by cone
with the ray faults it is checked on.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from flagbott.exactlin import IntMatrix, mat_mul
from flagbott.fans import Fan, PermTuple, Ray, RayLabel, Subset
from flagbott.orbitfan import (
    ORACLE_SHOWN,
    OracleFailure,
    OracleReport,
    derive_rays_from_weights,
)
from flagbott.permfan import check_permutation
from flagbott.tower import FlagBottTower

Chain = tuple[Subset, ...]  # S_1 < S_2 < ... < S_{g-1} of {1, ..., g}, |S_p| = p
ChainTuple = tuple[Chain, ...]


def two_stage_tower() -> FlagBottTower:
    """Two-stage tower, dims (2, 1), single twist [[1, 2, 0], [0, 0, 0]]."""
    return FlagBottTower(
        dims=(2, 1),
        twists={(2, 1): IntMatrix.from_rows([[1, 2, 0], [0, 0, 0]])},
    )


def three_stage_tower() -> FlagBottTower:
    """Three-stage tower, dims (2, 2, 1), twist entries 1..8 row by row."""
    return FlagBottTower(
        dims=(2, 2, 1),
        twists={
            (2, 1): IntMatrix.from_rows([[1, 2, 0], [3, 4, 0], [0, 0, 0]]),
            (3, 1): IntMatrix.from_rows([[5, 6, 0], [0, 0, 0]]),
            (3, 2): IntMatrix.from_rows([[7, 8, 0], [0, 0, 0]]),
        },
    )


def random_tower(
    seed: int,
    max_stages: int = 3,
    max_dim: int = 3,
    bound: int = 5,
) -> FlagBottTower:
    """Seeded tower with unconstrained twist entries in [-bound, bound]."""
    rng = random.Random(seed)
    m = rng.randint(1, max_stages)
    dims = tuple(rng.randint(1, max_dim) for _ in range(m))
    twists = {}
    for j in range(2, m + 1):
        for ell in range(1, j):
            rows = [
                [rng.randint(-bound, bound) for _ in range(dims[ell - 1] + 1)]
                for _ in range(dims[j - 1] + 1)
            ]
            twists[(j, ell)] = IntMatrix.from_rows(rows)
    return FlagBottTower(dims=dims, twists=twists)


POPULATION_SEEDS = tuple(1000 + k for k in range(100))
ORACLE_SEEDS = tuple(2000 + k for k in range(25))


def chain_of_permutation(v: tuple[int, ...]) -> Chain:
    """Chain of a permutation: S_p holds the last p values of one-line v."""
    check_permutation(v)
    g = len(v)
    return tuple(Subset.of(g, v[g - p :]) for p in range(1, g))


def permutation_of_chain(c: Chain) -> tuple[int, ...]:
    """Inverse of chain_of_permutation."""
    g = len(c) + 1
    out = [0] * g
    prev = 0
    for p, s in enumerate(c, start=1):
        added = s.mask & ~prev
        out[g - p] = added.bit_length()  # single bit: index of the new element
        prev = s.mask
    out[0] = (((1 << g) - 1) ^ prev).bit_length()
    return tuple(out)


def chain_tuple_of_perm_tuple(v: PermTuple) -> ChainTuple:
    return tuple(chain_of_permutation(vp) for vp in v)


def perm_tuple_of_chain_tuple(c: ChainTuple) -> PermTuple:
    return tuple(permutation_of_chain(cp) for cp in c)


def maximal_cone(t: FlagBottTower, chains: ChainTuple) -> frozenset[RayLabel]:
    """Ray labels of the maximal cone indexed by one chain per stage."""
    if len(chains) != t.m:
        raise ValueError(f"need one chain per stage ({t.m}), got {len(chains)}")
    labels = set()
    for ell, (chain, n_ell) in enumerate(zip(chains, t.dims), start=1):
        if len(chain) != n_ell:
            raise ValueError(
                f"stage {ell} chain has ground {len(chain) + 1}, expected {n_ell + 1}"
            )
        for s in chain:
            labels.add(RayLabel(ell, s))
    return frozenset(labels)


def ray_index(fan: Fan) -> dict[RayLabel, int]:
    """Index of each ray of the fan, by label."""
    return {ray.label: i for i, ray in enumerate(fan.rays)}


def cone_labels(fan: Fan, i: int) -> frozenset[RayLabel]:
    """Labels of the rays of maximal cone i."""
    return frozenset(fan.rays[r].label for r in fan.maxcones[i])


def truncated(t: FlagBottTower, stages: int) -> FlagBottTower:
    """The tower formed by the first `stages` stages."""
    if not 1 <= stages <= t.m:
        raise ValueError(f"stage count must be in 1..{t.m}, got {stages}")
    return FlagBottTower(
        t.dims[:stages],
        {(j, ell): a for (j, ell), a in t.twists.items() if j <= stages},
    )


def perm_row_matrix(v: tuple[int, ...]) -> IntMatrix:
    """The 0/1 matrix B whose row i is the standard basis vector at v(i)."""
    return IntMatrix.from_rows([[int(c == vi) for c in range(1, len(v) + 1)] for vi in v])


def x_matrix_chain_sum(t: FlagBottTower, v, j: int, ell: int) -> IntMatrix:
    """X_(j,ell) summed chain by chain with literal permutation-matrix
    products; an exponential-time reference for x_matrix."""
    bs = {p: perm_row_matrix(v[p - 1]) for p in range(1, j + 1)}
    total = [0] * ((t.dims[j - 1] + 1) * (t.dims[ell - 1] + 1))
    between = range(ell + 1, j)
    for r in range(0, j - ell):
        for mids in itertools.combinations(between, r):
            seq = (j,) + tuple(reversed(mids)) + (ell,)
            acc = bs[j]
            for hi, lo in zip(seq, seq[1:]):
                acc = mat_mul(mat_mul(acc, t.twist(hi, lo)), bs[lo])
            total = [x + y for x, y in zip(total, acc.entries)]
    return IntMatrix(t.dims[j - 1] + 1, t.dims[ell - 1] + 1, tuple(total))


def reference_oracle(fan: Fan, t: FlagBottTower, derive=derive_rays_from_weights) -> OracleReport:
    """The weight oracle cone by cone: the inverse columns of the weight
    matrix at each cone's permutation tuple must be the cone's rays.
    derive maps (t, v) to those columns; a memoised one may stand in for
    derive_rays_from_weights when one tower's fan is checked many times."""
    bad = []
    for ci, pt in enumerate(fan.perm_tuples):
        want = {fan.rays[r].vector for r in fan.maxcones[ci]}
        try:
            got = derive(t, pt)
        except OracleFailure:
            bad.append(ci)
            continue
        if got != want:
            bad.append(ci)
    return OracleReport(len(fan.maxcones), len(bad), bad[:ORACLE_SHOWN])


RAY_FAULTS = ("high", "flip", "swap_within", "swap_across", "copy")


def ray_faulted(fan: Fan, rng: random.Random, kind: str, renumber: bool) -> Fan:
    """One fault in the ray vectors, then, if asked, a random renumbering
    of the rays (the cones follow their rays).

    high: add +-1 to one coordinate in a block above the ray's own (in its
    own block on a one-stage tower); flip: negate a ray; swap_within and
    swap_across: swap the vectors of two rays of one stage, or of two
    stages (of one stage on a one-stage tower); copy: give a ray the
    vector of any ray, itself included.
    """
    rays = list(fan.rays)
    m = len(fan.dims)

    def pick(keep=lambda ray: True) -> int:
        return rng.choice([i for i, ray in enumerate(rays) if keep(ray)])

    if kind == "high":
        i = pick(lambda ray: ray.label.stage < m) if m > 1 else pick()
        above = sum(fan.dims[: rays[i].label.stage]) if m > 1 else 0
        k = rng.randrange(above, fan.n)
        vec = list(rays[i].vector)
        vec[k] += rng.choice((-1, 1))
        rays[i] = Ray(rays[i].label, tuple(vec))
    elif kind == "flip":
        i = pick()
        rays[i] = Ray(rays[i].label, tuple(-c for c in rays[i].vector))
    elif kind in ("swap_within", "swap_across"):
        i = pick()
        stage = rays[i].label.stage
        across = kind == "swap_across" and m > 1
        j = pick(lambda ray: (ray.label.stage != stage) == across)
        rays[i], rays[j] = Ray(rays[i].label, rays[j].vector), Ray(rays[j].label, rays[i].vector)
    elif kind == "copy":
        i = pick()
        rays[i] = Ray(rays[i].label, rays[pick()].vector)
    else:
        raise ValueError(f"unknown ray fault {kind!r}")
    order = list(range(len(rays)))
    if renumber:
        rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return dataclasses.replace(
        fan,
        rays=tuple(rays[old] for old in order),
        maxcones=tuple(tuple(sorted(new_index[r] for r in cone)) for cone in fan.maxcones),
    )
