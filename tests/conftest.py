"""Shared fixtures and test oracles.

The two golden towers, seeded random-tower samplers, and reference
helpers that build expected values independently of the library's
pipeline: the chain of a permutation and its inverse, chain-tuple cone
labels, a fan's cones joined from whole stage cones, label lookups on a
fan, tower truncation, the chain-sum form of the accumulated twist
matrices, the weight oracle cone by cone with the ray faults it is
checked on, and the completeness test with explicit wall normals with
the fan faults it is checked on.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import defaultdict

from flagbott.exactlin import IntMatrix, adjugate_det, mat_mul
from flagbott.fancheck import CompletenessReport, WallDefect
from flagbott.fans import Fan, NotSimplicial, PermTuple, Ray, RayLabel, Subset
from flagbott.orbitfan import (
    ORACLE_SHOWN,
    OracleFailure,
    OracleReport,
    derive_rays_from_weights,
)
from flagbott.permfan import check_permutation, perm_fan
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


def seeded_doc(dims: tuple[int, ...], seed: int) -> dict:
    """Tower document with twist entries uniform in [-5, 5], drawn from
    random.Random(seed) in the order perfbench/harness.py::seeded_tower
    draws them, so that seed 1 gives the benchmark's towers."""
    rng = random.Random(seed)
    twists = {}
    for j in range(2, len(dims) + 1):
        for ell in range(1, j):
            twists[f"{j},{ell}"] = [
                [rng.randint(-5, 5) for _ in range(dims[ell - 1] + 1)]
                for _ in range(dims[j - 1] + 1)
            ]
    return {"dims": list(dims), "A": twists}


def reference_maxcones(t: FlagBottTower) -> tuple[tuple[int, ...], ...]:
    """build_fan's cones as whole tuples of per-stage cones: stage ell's
    perm_fan cones, shifted past the earlier stages' rays, joined in
    itertools.product order with sum."""
    stage_fans = [perm_fan(n) for n in t.dims]
    offsets = itertools.accumulate((len(f.rays) for f in stage_fans), initial=0)
    stage_cones = [
        [tuple(i + off for i in c) for c in f.maxcones] for f, off in zip(stage_fans, offsets)
    ]
    return tuple(sum(c, ()) for c in itertools.product(*stage_cones))


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


def weights_chain_sum(t: FlagBottTower, v) -> tuple[tuple[int, ...], ...]:
    """The n weights at v, stage-major: the projected consecutive row
    differences of [X_(j,1) ... X_(j,j-1) B_j 0 ... 0], each X from
    x_matrix_chain_sum; a reference for weights_at."""
    weights = []
    for j, n_j in enumerate(t.dims, start=1):
        blocks = [x_matrix_chain_sum(t, v, j, ell) for ell in range(1, j)] + [perm_row_matrix(v[j - 1])]
        # projecting drops the last column of each block
        rows = [[e for b in blocks for e in b.row(i)[:-1]] + [0] * sum(t.dims[j:]) for i in range(n_j + 1)]
        weights += [tuple(b - a for a, b in zip(r, s)) for r, s in zip(rows, rows[1:])]
    return tuple(weights)


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


def _reference_cone_matrix(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    n = fan.n
    if len(cone) != n:
        raise NotSimplicial(f"cone has {len(cone)} rays in dimension {n}")
    return IntMatrix.from_rows(list(zip(*(fan.rays[r].vector for r in cone))))


def reference_is_complete_simplicial(fan: Fan) -> CompletenessReport:
    """Wall-pairing test with explicit inner wall normals from the adjugate."""
    n = fan.n
    # wall (sorted ray indices) -> list of (cone index, opposite ray, inner normal)
    census: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    defects: list[WallDefect] = []
    for ci, cone in enumerate(fan.maxcones):
        adj, d = adjugate_det(_reference_cone_matrix(fan, cone))
        if d == 0:
            defects.append(
                WallDefect("degenerate", cone, (ci,), "cone rays are linearly dependent")
            )
            continue
        sign = 1 if d > 0 else -1
        for k in range(n):
            normal = tuple(sign * e for e in adj.row(k))
            wall = cone[:k] + cone[k + 1 :]
            census[wall].append((ci, cone[k], normal))
    for wall, hits in sorted(census.items()):
        if len(hits) == 1:
            defects.append(
                WallDefect("dangling", wall, (hits[0][0],), "wall lies in only one cone")
            )
        elif len(hits) > 2:
            defects.append(
                WallDefect(
                    "crowded",
                    wall,
                    tuple(h[0] for h in hits),
                    f"wall lies in {len(hits)} cones",
                )
            )
        else:
            (c1, opp1, nrm1), (c2, opp2, nrm2) = hits
            v2 = fan.rays[opp2].vector
            v1 = fan.rays[opp1].vector
            s1 = sum(a * b for a, b in zip(nrm1, v2))
            s2 = sum(a * b for a, b in zip(nrm2, v1))
            if s1 >= 0 or s2 >= 0:
                defects.append(
                    WallDefect(
                        "same_side",
                        wall,
                        (c1, c2),
                        "opposite rays do not straddle the wall hyperplane",
                    )
                )
    # connectivity of the wall-adjacency graph
    neighbors: dict[int, set[int]] = defaultdict(set)
    for hits in census.values():
        if len(hits) == 2:
            a, b = hits[0][0], hits[1][0]
            neighbors[a].add(b)
            neighbors[b].add(a)
    connected = True
    if fan.maxcones:
        seen = {0}
        stack = [0]
        while stack:
            c = stack.pop()
            for nb in neighbors[c]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        connected = len(seen) == len(fan.maxcones)
    return CompletenessReport(len(fan.maxcones), len(census), defects, connected)


def perturbed(fan: Fan, rng: random.Random) -> Fan:
    """Flip, randomise or copy one ray, drop or duplicate one cone, or
    neither; then renumber the rays at random.

    Tower fans order their rays so that the opposite rays of two adjacent
    cones always sit at positions of equal parity; renumbering makes the
    parity factor of the sign rule matter.
    """
    kind = rng.choice(("flip", "randomise", "copy", "drop", "duplicate", "none"))
    rays = list(fan.rays)
    i = rng.randrange(len(rays))
    if kind == "flip":
        rays[i] = Ray(rays[i].label, tuple(-c for c in rays[i].vector))
    elif kind == "randomise":
        rays[i] = Ray(rays[i].label, tuple(rng.randint(-3, 3) for _ in range(fan.n)))
    elif kind == "copy":
        rays[i] = Ray(rays[i].label, rays[rng.randrange(len(rays))].vector)
    cones, perms = list(fan.maxcones), list(fan.perm_tuples)
    c = rng.randrange(len(cones))
    if kind == "drop":
        del cones[c], perms[c]
    elif kind == "duplicate":
        cones.append(cones[c])
        perms.append(perms[c])
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return dataclasses.replace(
        fan,
        rays=tuple(rays[old] for old in order),
        maxcones=tuple(tuple(sorted(new_index[r] for r in cone)) for cone in cones),
        perm_tuples=tuple(perms),
    )
