"""Shared fixtures and test oracles.

The two golden towers, seeded random-tower samplers, the identity
matrix, a subset from its members, the nonempty proper subsets of a
ground set, and reference helpers that build
expected values independently of the library's pipeline: the export text
cone by cone, the chain of a permutation and its inverse, chain-tuple
cone labels, a fan's cones joined from whole stage cones, label lookups
on a fan, tower truncation, the accumulated twist matrices read off the
library's rows Y_(j,ell) and their chain-sum form, the pairing check on the
chain-sum weights, the flag-minor scan one determinant per row set with the
sampler it drives, the weight oracle cone by cone with the ray faults it
is checked on, the completeness test with explicit wall normals with the
fan faults it is checked on, the flip table read off set differences of
neighbouring cones, the bundle check on ray labels with the cone faults
it is checked on, and the `paths` fixture, which records the path each
completeness check and bundle split takes, with the paths each bundle
split should take.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import defaultdict

import pytest

from flagbott import fancheck, orbitfan, tower
from flagbott.exactlin import IntMatrix, NotUnimodular, _det_rows, adjugate_det, mat_mul
from flagbott.fancheck import BundleJoinReport, CompletenessReport, JoinDefect, WallDefect, project_fan
from flagbott.fans import Fan, PermTuple, Ray, RayLabel, Subset
from flagbott.orbitfan import (
    ORACLE_SHOWN,
    OracleReport,
    PairingReport,
    PairingViolation,
    derive_rays_from_weights,
)
from flagbott.permfan import check_permutation, perm_fan, perm_ray_vector
from flagbott.tower import FlagBottTower, SamplingExhausted, plucker

Chain = tuple[Subset, ...]  # S_1 < S_2 < ... < S_{g-1} of {1, ..., g}, |S_p| = p
ChainTuple = tuple[Chain, ...]


def identity(k: int) -> IntMatrix:
    return IntMatrix(k, k, tuple(int(i == j) for i in range(k) for j in range(k)))


def subset(ground: int, members) -> Subset:
    """The subset of {1, ..., ground} with the given members."""
    return Subset(ground, sum({1 << (e - 1) for e in members}))


def proper_subsets(ground: int) -> list[Subset]:
    """Every nonempty proper subset of {1, ..., ground}, by ascending mask."""
    return [Subset(ground, mask) for mask in range(1, (1 << ground) - 1)]


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


def reference_format_fan(fan: Fan) -> str:
    """The export text line by line: each ray's line, then each cone's
    indices joined on their own, whatever the cones around it share."""
    lines = ["FANBOTT 1", "dims " + " ".join(str(d) for d in fan.dims), f"RAYS {len(fan.rays)}"]
    lines += (f"{r.label.stage} {r.label.subset} : {' '.join(map(str, r.vector))}" for r in fan.rays)
    lines.append(f"MAXCONES {len(fan.maxcones)}")
    names = list(map(str, range(len(fan.rays))))
    lines += (" ".join(map(names.__getitem__, cone)) for cone in fan.maxcones)
    return "\n".join(lines) + "\n"


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
    return tuple(subset(g, v[g - p :]) for p in range(1, g))


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


def x_matrix(t: FlagBottTower, v, j: int, ell: int) -> IntMatrix:
    """Accumulated twist matrix X_(j,ell) at the fixed point of v, as the
    library computes it: X_(j,ell) = B_j Y_(j,ell), so it is
    orbitfan._y_rows's Y_(j,ell) with its rows reindexed by v_j."""
    ys = orbitfan._y_rows(t, tuple(map(tuple, v[: j - 1])), ell, {})
    return IntMatrix.from_rows([ys[vi - 1] for vi in v[j - 1]])


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


def reference_pairing_identity(t: FlagBottTower) -> PairingReport:
    """The pairing check on the weights of weights_chain_sum, which never
    reads the rows R_j.  The witness of ray (ell, s) is built here: stage
    ell lists the complement of s ascending, then s ascending, and every
    other stage is the identity.  The ray is read from
    orbitfan.ray_generator at call time, so a monkeypatched generator
    reaches this check and the library's alike."""
    labels = [(j, i) for j, n_j in enumerate(t.dims, start=1) for i in range(1, n_j + 1)]
    violations = []
    rays = 0
    for ell, n_ell in enumerate(t.dims, start=1):
        for s in proper_subsets(n_ell + 1):
            rays += 1
            v = [tuple(range(1, n_p + 2)) for n_p in t.dims]
            v[ell - 1] = tuple(k for k in v[ell - 1] if k not in s) + tuple(k for k in v[ell - 1] if k in s)
            u = orbitfan.ray_generator(t, ell, s)
            for (j, i), w in zip(labels, weights_chain_sum(t, tuple(v))):
                expected = int(j == ell and i == n_ell + 1 - len(s))
                actual = sum(a * b for a, b in zip(w, u))
                if actual != expected:
                    violations.append(PairingViolation(ell, s, j, i, expected, actual))
    return PairingReport(rays, rays * t.n, violations)


def reference_is_generic_matrix(g: IntMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """is_generic_matrix one determinant per row set: for k = 1..size, the
    k-element row sets in lexicographic order, each minor by plucker."""
    for k in range(1, g.rows + 1):
        for indices in itertools.combinations(range(1, g.rows + 1), k):
            if plucker(g, indices) == 0:
                return False, indices
    return True, None


def reference_sample_generic(n: int, bound: int, seed: int) -> IntMatrix:
    """sample_generic's candidates drawn entry by entry with randint, row
    by row, and tested by reference_is_generic_matrix; at most
    tower.MAX_ATTEMPTS of them, read at call time as sample_generic reads it."""
    rng = random.Random(seed)
    for _ in range(tower.MAX_ATTEMPTS):
        g = IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(n + 1)])
        if reference_is_generic_matrix(g)[0]:
            return g
    raise SamplingExhausted(f"no generic matrix found in {tower.MAX_ATTEMPTS} attempts")


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
        except NotUnimodular:
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
    vector of any ray, itself included; scale: multiply a ray by 2, 3 or
    -2.  Without renumbering, every fault keeps build_fan's combinatorics,
    and the fan keeps its cone and permutation-tuple objects, so that a
    join stays a join; so does a renumbering drawn as the identity.
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
    elif kind == "scale":
        i, f = pick(), rng.choice((2, 3, -2))
        rays[i] = Ray(rays[i].label, tuple(f * c for c in rays[i].vector))
    else:
        raise ValueError(f"unknown ray fault {kind!r}")
    order = list(range(len(rays)))
    if renumber:
        rng.shuffle(order)
    if order == sorted(order):
        return dataclasses.replace(fan, rays=tuple(rays))
    new_index = {old: new for new, old in enumerate(order)}
    return dataclasses.replace(
        fan,
        rays=tuple(rays[old] for old in order),
        maxcones=tuple(tuple(sorted(new_index[r] for r in cone)) for cone in fan.maxcones),
    )


@pytest.fixture
def paths(monkeypatch) -> list[str]:
    """The paths the checks take, in order: "flip" or "census" for each
    is_complete_simplicial; for each bundle split, "sets" when it splits
    the cones into sets, and "lifts" when it checks the lifts."""
    ran: list[str] = []
    for name, path in (("_flip_defects", "flip"), ("_census", "census"), ("_split_by_sets", "sets"), ("_check_lifts", "lifts")):
        run = getattr(fancheck, name)
        monkeypatch.setattr(fancheck, name, lambda *args, run=run, path=path: ran.append(path) or run(*args))
    return ran


def bundle_paths(fan: Fan) -> list[str]:
    """The paths verify_bundle_join should take on the fan: at each split,
    the set pass exactly when the fan at that split is not a join, then
    the lift check."""
    want: list[str] = []
    while len(fan.dims) > 1:
        want += ["lifts"] if fan.is_join else ["sets", "lifts"]
        fan = project_fan(fan, len(fan.dims) - 1)
    return want


def _reference_cone_matrix(fan: Fan, ci: int) -> IntMatrix:
    n, cone = fan.n, fan.maxcones[ci]
    if len(cone) != n:
        raise ValueError(f"cone {ci} has {len(cone)} rays in dimension {n}")
    return IntMatrix.from_rows(list(zip(*(fan.rays[r].vector for r in cone))))


def reference_is_complete_simplicial(fan: Fan) -> CompletenessReport:
    """Wall-pairing test with explicit inner wall normals from the adjugate."""
    n = fan.n
    # wall (sorted ray indices) -> list of (cone index, opposite ray, inner normal)
    census: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    defects: list[WallDefect] = []
    for ci, cone in enumerate(fan.maxcones):
        adj, d = adjugate_det(_reference_cone_matrix(fan, ci))
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
    # a fan with no cones has support {0}, not R^n
    connected = False
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


def reference_flip_table(n: int, stride: int, lo: int) -> list[list[tuple[int, int, int]]]:
    """The flip table of perm_fan(n) read off the cones: for each
    permutation index i, one entry per adjacent transposition that leads to
    a later index i' -- the cone index step (i' - i) * stride, the parity
    (k1 + k2) & 1 of the opposite rays' positions, found by set difference,
    and k1 shifted by lo."""
    f = perm_fan(n)
    perms = [v for (v,) in f.perm_tuples]
    index = {v: i for i, v in enumerate(perms)}
    table = []
    for i, (v, cone) in enumerate(zip(perms, f.maxcones)):
        entries = []
        for a in range(n):
            j = index[v[:a] + (v[a + 1], v[a]) + v[a + 2 :]]
            if i < j:
                other = f.maxcones[j]
                (r1,), (r2,) = set(cone) - set(other), set(other) - set(cone)
                k1, k2 = cone.index(r1), other.index(r2)
                entries.append(((j - i) * stride, (k1 + k2) & 1, lo + k1))
        table.append(entries)
    return table


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


def _reference_check_top_split(fan: Fan, report: BundleJoinReport) -> None:
    m = len(fan.dims)
    n_m = fan.dims[-1]
    base_n = fan.n - n_m
    report.splits_checked.append(m)

    # (a) stage-m rays live in the last block and form the one-factor fan there
    for ray in fan.rays:
        head, tail = ray.vector[:base_n], ray.vector[base_n:]
        if ray.label.stage == m:
            if any(head):
                report.defects.append(
                    JoinDefect(m, "fiber_support", f"ray {ray.label} leaks into lower blocks")
                )
            if tail != perm_ray_vector(n_m, ray.label.subset):
                report.defects.append(
                    JoinDefect(m, "fiber_vector", f"ray {ray.label} is not the one-factor ray")
                )
        elif not any(head):
            report.defects.append(
                JoinDefect(m, "base_support", f"ray {ray.label} vanishes outside the last block")
            )
    fiber_parts = {
        frozenset(lbl.subset for lbl in cone_labels(fan, ci) if lbl.stage == m)
        for ci in range(len(fan.maxcones))
    }
    one_factor = perm_fan(n_m)
    expected_parts = {
        frozenset(lbl.subset for lbl in cone_labels(one_factor, ci))
        for ci in range(len(one_factor.maxcones))
    }
    if fiber_parts != expected_parts:
        report.defects.append(
            JoinDefect(m, "fiber_cones", "stage slices do not match the one-factor fan")
        )

    # (b) each base cone is the unimodular projection of a unique lift
    lifts: dict[tuple, frozenset[RayLabel]] = {}
    for ci, pt in enumerate(fan.perm_tuples):
        prefix = pt[: m - 1]
        lift = frozenset(lbl for lbl in cone_labels(fan, ci) if lbl.stage < m)
        if prefix in lifts:
            if lifts[prefix] != lift:
                report.defects.append(
                    JoinDefect(m, "lift_mismatch", f"prefix {prefix} has two different lifts")
                )
        else:
            lifts[prefix] = lift
    index = ray_index(fan)
    for prefix, lift in sorted(lifts.items()):
        if len(lift) != base_n:
            report.defects.append(
                JoinDefect(m, "lift_degenerate", f"lift over {prefix} has {len(lift)} rays")
            )
            continue
        d = _det_rows(
            [list(fan.rays[index[lbl]].vector[:base_n]) for lbl in sorted(lift)]
        )
        if d not in (1, -1):
            report.defects.append(
                JoinDefect(
                    m,
                    "lift_degenerate",
                    f"lift over {prefix} projects with determinant {d}",
                )
            )

    # (c) cones are exactly the joins: one lift plus one fiber cone apiece
    pairs = set()
    for ci, pt in enumerate(fan.perm_tuples):
        labels = cone_labels(fan, ci)
        fiber_key = frozenset(lbl.subset for lbl in labels if lbl.stage == m)
        pairs.add((pt[: m - 1], fiber_key))
        if len(labels) != fan.n:
            report.defects.append(
                JoinDefect(m, "pair_coverage", f"cone {ci} has {len(labels)} rays")
            )
    # the projected base fan has one cone per prefix
    want = len(lifts) * len(expected_parts)
    if len(fan.maxcones) != want or len(pairs) != want:
        report.defects.append(
            JoinDefect(
                m,
                "pair_coverage",
                f"{len(fan.maxcones)} cones over {len(pairs)} distinct "
                f"(base, fiber) pairs, expected {want}",
            )
        )


def reference_verify_bundle_join(fan: Fan, t: FlagBottTower) -> BundleJoinReport:
    """The bundle check on ray labels: the library's own form before it
    moved to ray indices and subset masks, with the label lookups in
    conftest."""
    if fan.dims != t.dims:
        raise ValueError(f"fan dims {fan.dims} do not match tower dims {t.dims}")
    report = BundleJoinReport()
    cur = fan
    while len(cur.dims) > 1:
        _reference_check_top_split(cur, report)
        cur = project_fan(cur, len(cur.dims) - 1)
    return report


def cone_faulted(fan: Fan, rng: random.Random, renumber: bool) -> Fan:
    """Swap two cones' ray tuples, drop a ray from a cone, replace a cone's
    top-stage ray by any ray (one already in the cone included), drop or
    duplicate a cone, flip or double a ray, swap a top-stage ray's vector
    with another ray's, or none of these; then, if asked, renumber the
    rays at random.  A fault in the ray vectors alone, with the rays in
    their order, keeps the fan's cone and permutation-tuple objects, so
    that a join stays a join."""
    kinds = ("swap", "drop_ray", "top_ray", "drop", "duplicate", "flip", "move", "none")
    kind = rng.choice(kinds)
    rays, cones, perms = list(fan.rays), list(fan.maxcones), list(fan.perm_tuples)
    c, d = rng.randrange(len(cones)), rng.randrange(len(cones))
    top = [i for i, ray in enumerate(rays) if ray.label.stage == len(fan.dims)]
    if kind == "swap":
        cones[c], cones[d] = cones[d], cones[c]
    elif kind == "drop_ray":
        k = rng.randrange(len(cones[c]))
        cones[c] = cones[c][:k] + cones[c][k + 1 :]
    elif kind == "top_ray":
        old = rng.choice([r for r in cones[c] if r in top])
        new = rng.choice(cones[c] if rng.random() < 0.5 else range(len(rays)))
        cones[c] = tuple(new if r == old else r for r in cones[c])
    elif kind == "drop":
        del cones[c], perms[c]
    elif kind == "duplicate":
        cones.append(cones[c])
        perms.append(perms[c])
    elif kind == "flip":
        i, f = rng.randrange(len(rays)), rng.choice((-1, 2))
        rays[i] = Ray(rays[i].label, tuple(f * x for x in rays[i].vector))
    elif kind == "move":
        i, j = rng.choice(top), rng.randrange(len(rays))
        rays[i], rays[j] = Ray(rays[i].label, rays[j].vector), Ray(rays[j].label, rays[i].vector)
    order = list(range(len(rays)))
    if renumber:
        rng.shuffle(order)
    if order == sorted(order) and kind in ("flip", "move", "none"):
        return dataclasses.replace(fan, rays=tuple(rays))
    new_index = {old: new for new, old in enumerate(order)}
    return dataclasses.replace(
        fan,
        rays=tuple(rays[old] for old in order),
        maxcones=tuple(tuple(sorted(new_index[r] for r in cone)) for cone in cones),
        perm_tuples=tuple(perms),
    )
