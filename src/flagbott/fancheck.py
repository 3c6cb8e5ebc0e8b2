"""Structural verification of simplicial fans.

Three independent certificates, each computed with exact integer
arithmetic:

  is_smooth            every maximal cone has determinant +-1;
  is_complete_simplicial
                       every wall (facet of a maximal cone) is shared by
                       exactly two cones lying strictly on opposite sides,
                       and the wall-adjacency graph is connected -- for a
                       simplicial fan of full-dimensional cones this is
                       equivalent to the support being all of R^n;
  verify_bundle_join   the fan fibers over the fan of the truncated tower
                       with the last stage's one-factor fan as fiber, at
                       every stage split down the tower.

Smoothness and the wall test both read Fan.cone_dets, every cone
determinant computed once per fan in one pass of fans._join_dets: on a
join, a walk down its levels that reduces each later stage's ray once per
head; on any other fan, the same walk on its cones as one level, which
shares elimination work between cones with the same leading rays.  Let U
be the matrix whose columns are a cone's rays in ascending order and
d = det U.  By Cramer's rule, row k of adj(U) paired with x is
det(U with column k replaced by x), so sign(d) * adj(U)[k] is the inner
normal of the wall omitting ray k.  Let cones C1 and C2 share a wall,
with opposite rays at positions k1 and k2 and determinants d1 and d2.
U1 with column k1 replaced by C2's opposite ray is U2 with that column
moved from position k2 to k1, so its determinant is
(-1)**(k1 - k2) * d2.  Hence both opposite rays lie strictly across the
wall iff (-1)**(k1 + k2) * d1 * d2 < 0.

The census keeps one int per wall, keyed by the wall's ray bitmask (the
cone's mask with the opposite ray's bit cleared): its first hit
h = ci * n + k (cone ci, opposite position k), and from its second hit
the negative pair ~(h1 * span + h2).  A third hit marks the wall
crowded and lists its hits, the two decoded from its pair first, and
each later hit joins that list, so the one pass lists a crowded wall's
cones in cone order.  A paired wall that is not crowded joins its two
cones in a union-find, which decides connectivity.  A wall is spelled
out as a tuple of ray indices only when it has a defect to report.

Fans of build_fan's type need no census.  A fan is known to be one by
how it was made: Fan.is_join holds when its cones and permutation tuples
are those that fans.stage_join made for its dims, and its ray labels
are build_fan's, in build_fan's order.  In
perm_fan(n) the cones of permutations v and v' share a wall exactly
when v' is v with the entries at positions a and a+1 swapped, which
changes one subset of the chain: the cones are the chambers of the
Coxeter complex of S_(n+1), and the fan of build_fan's type is the
product of these complexes, one per stage.  A Coxeter complex is a thin, connected chamber complex: each
wall lies in exactly two chambers, and the chamber graph is the Cayley
graph of the adjacent transpositions (Abramenko-Brown, Buildings,
GTM 248, ch. 1-3; Bjorner-Brenti, Combinatorics of Coxeter Groups,
GTM 231, ch. 3).  A product of them, a wall being a wall of one stage's
chamber, is again thin and connected.  With no zero determinant the
census would find N * n / 2 walls, each in exactly two cones, none
dangling or crowded, and a connected graph, so only same_side can fire.
The flip path decides it by the sign rule on each flip pair, where
k1 = k2: a cone lists S_1 < ... < S_n in that order, since the masks
grow along the chain, and swapping the values at positions a and a+1
changes S_(n-a) alone, which sits at position n-a-1 in both cones.  So
same_side holds iff d1 and d2 have the same sign.  The walk reads the
signs of Fan.cone_dets stage by stage.  In build_fan's order, stage p's
permutation index i is held by stride cones in each block of
stride * (n_p + 1)! consecutive cones, stride being the cone count of
the later stages.  For each swap that leads from index i to a later
index j, each cone of index i is compared with the cone
(j - i) * stride further on, by whole runs: the signs of index i, 0 and
1 swapped, against their partners', one run per block when stride is at
least the block count, else one per offset in the stride.  Only a run
that differs is walked cone by cone, and the pairs found are sorted into
the census's order.  The bundle check reads each lift off the projected
fan, as the base cone over its prefix, and reads the fan alone.  On a
projected join that the level walk takes, each lift is its own cone, the
rays in label order and the cones in prefix order, so one walk gives every
lift's determinant, and a lift that repeats a ray, of determinant 0, is
counted by its distinct rays; any other base walks its ranked lifts as
one level.  On a fan of build_fan's type the fibers and joins are
build_fan's by construction, so the lifts are the whole split.

The fallback rule.  is_complete_simplicial takes the flip path only
when Fan.is_join holds and no cone determinant is 0; every other fan --
cones reordered, duplicated or dropped, rays renumbered or relabelled,
a degenerate cone, or cones built otherwise than by stage_join, even
when they equal build_fan's -- goes to the census.  Each stage split of
verify_bundle_join also splits each cone into sets, for its fibers,
mismatched lifts and coverage, exactly when the fan at that split is
not a join; project_fan reads a join's image off its nested heads.
Either way the report is the one the census or the set split gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fans import Fan, Ray, _join_dets, permutation_chains
from .permfan import perm_ray_vector


@dataclass(frozen=True)
class ConeDeterminant:
    cone: int
    det: int


@dataclass
class SmoothnessReport:
    cones_checked: int
    failures: list[ConeDeterminant]

    @property
    def ok(self) -> bool:
        return not self.failures


def is_smooth(fan: Fan) -> SmoothnessReport:
    """Determinant of every maximal cone; smooth means all are +-1."""
    failures = [ConeDeterminant(ci, d) for ci, d in enumerate(fan.cone_dets) if d not in (1, -1)]
    return SmoothnessReport(len(fan.maxcones), failures)


@dataclass(frozen=True)
class WallDefect:
    kind: str  # "degenerate" | "dangling" | "crowded" | "same_side"
    wall: tuple[int, ...]
    cones: tuple[int, ...]
    detail: str


@dataclass
class CompletenessReport:
    cones_checked: int
    walls_checked: int
    defects: list[WallDefect]
    connected: bool

    @property
    def ok(self) -> bool:
        return not self.defects and self.connected


def _flip_defects(fan: Fan) -> list[WallDefect]:
    # the same_side walls of a fan of build_fan's type, by the sign rule
    # on each flip pair, one loop per stage, in the census's order; stage
    # p's permutations are the tails of the join of the first p stages
    cones, count = fan.maxcones, len(fan.maxcones)
    positive, flip = bytes(map((0).__lt__, fan.cone_dets)), bytes.maketrans(b"\0\1", b"\1\0")
    found = []
    block, lo = count, 0
    for p, n_p in enumerate(fan.dims, 1):
        perms = [v for v, in project_fan(fan, p).perm_tuples.tails]
        index = {v: i for i, v in enumerate(perms)}
        stride = block // len(perms)
        for i, v in enumerate(perms):
            for a in range(n_p):
                j = index[v[:a] + (v[a + 1], v[a]) + v[a + 2 :]]
                if i < j:
                    k, step = lo + n_p - a - 1, (j - i) * stride
                    if stride >= count // block:  # the cones of index i as runs, one per block
                        runs = [(b, b + stride, 1) for b in range(i * stride, count, block)]
                    else:  # or one per offset in the stride, whichever are fewer
                        runs = [(i * stride + o, count, block) for o in range(stride)]
                    for start, stop, s in runs:
                        # the sign rule with k1 = k2: same_side iff d1 * d2 > 0,
                        # so a pair is sound iff its flipped first sign is its second
                        mine = positive[start:stop:s].translate(flip)
                        theirs = positive[start + step : stop + step : s]
                        if mine != theirs:
                            for ci, c1, c2 in zip(range(start, stop, s), mine, theirs):
                                if c1 != c2:
                                    found.append((cones[ci][:k] + cones[ci][k + 1 :], ci, ci + step))
        block, lo = stride, lo + n_p
    detail = "opposite rays do not straddle the wall hyperplane"
    return [WallDefect("same_side", wall, (c1, c2), detail) for wall, c1, c2 in sorted(found)]


def _census(fan: Fan) -> CompletenessReport:
    # the wall census of the module docstring, for any simplicial fan
    cones, dets, n = fan.maxcones, fan.cone_dets, fan.n
    bits = [1 << r for r in range(len(fan.rays))]
    span = len(cones) * n  # hit ci * n + k: cone ci, opposite position k
    census: dict[int, int] = {}  # wall bitmask -> first hit, or ~(h1 * span + h2)
    crowd: dict[int, list[int]] = {}  # crowded wall bitmask -> its hits
    defects: list[WallDefect] = []
    for ci, (cone, d) in enumerate(zip(cones, dets)):
        if d == 0:
            defects.append(
                WallDefect("degenerate", cone, (ci,), "cone rays are linearly dependent")
            )
            continue
        # a cone with a repeated ray has det 0, so bits add like a union
        mask = sum(bits[r] for r in cone)
        for h, r in enumerate(cone, ci * n):
            wall = mask ^ bits[r]
            first = census.setdefault(wall, h)
            if first < 0:
                crowd.setdefault(wall, [*divmod(~first, span)]).append(h)
            elif first != h:
                census[wall] = ~(first * span + h)

    def spell(kind: str, hits: list[int], detail: str) -> WallDefect:
        c, k = divmod(hits[0], n)
        wall = cones[c][:k] + cones[c][k + 1 :]
        return WallDefect(kind, wall, tuple(h // n for h in hits), detail)

    # the wall-adjacency graph as a union-find over cones, with path halving
    parent = list(range(len(cones)))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    wall_defects = []
    for wall, v in census.items():
        if v >= 0:
            wall_defects.append(spell("dangling", [v], "wall lies in only one cone"))
        elif wall not in crowd:
            h1, h2 = divmod(~v, span)
            (c1, k1), (c2, k2) = divmod(h1, n), divmod(h2, n)
            parent[root(c1)] = root(c2)
            # the sign rule of the module docstring
            if (k1 + k2) & 1 != (dets[c1] * dets[c2] > 0):
                detail = "opposite rays do not straddle the wall hyperplane"
                wall_defects.append(spell("same_side", [h1, h2], detail))
    for hits in crowd.values():
        wall_defects.append(spell("crowded", hits, f"wall lies in {len(hits)} cones"))
    defects += sorted(wall_defects, key=lambda defect: defect.wall)
    # a fan with no cones has support {0}, not R^n
    connected = len({root(c) for c in range(len(cones))}) == 1
    return CompletenessReport(len(cones), len(census), defects, connected)


def is_complete_simplicial(fan: Fan) -> CompletenessReport:
    """Wall-pairing completeness test for a simplicial fan: on the flip
    graph for a fan of build_fan's type with no zero determinant, by the
    wall census for any other (see the module docstring)."""
    cones, dets = fan.maxcones, fan.cone_dets
    if 0 in dets or not fan.is_join:
        return _census(fan)
    return CompletenessReport(len(cones), len(cones) * fan.n // 2, _flip_defects(fan), True)


def project_fan(fan: Fan, stages: int) -> Fan:
    """Image of the fan under dropping all blocks after the given stage.

    Rays of later stages are discarded, surviving ray vectors are
    truncated, and cones with the same permutation prefix collapse to one;
    a join's image is its heads of that level, the join of its first stages.
    """
    m = len(fan.dims)
    if not 1 <= stages <= m:
        raise ValueError(f"stage count must be in 1..{m}, got {stages}")
    if stages == m:
        return fan
    dims = fan.dims[:stages]
    nn = sum(dims)
    kept = [i for i, ray in enumerate(fan.rays) if ray.label.stage <= stages]
    rays = tuple(
        Ray(fan.rays[old].label, fan.rays[old].vector[:nn]) for old in kept
    )
    if fan.is_join:
        level = fan.maxcones
        while len(level.dims) > stages:
            level = level.heads
        return Fan(dims, rays, level, level.perm_tuples)
    remap = {old: new for new, old in enumerate(kept)}
    firsts: dict[tuple, tuple] = {}  # each prefix's first cone, in first-seen order
    for cone, pt in zip(fan.maxcones, fan.perm_tuples):
        firsts.setdefault(pt[:stages], cone)
    maxcones = tuple(tuple(sorted(remap[r] for r in cone if r in remap)) for cone in firsts.values())
    return Fan(dims, rays, maxcones, tuple(firsts))


@dataclass(frozen=True)
class JoinDefect:
    split: int  # the stage being split off
    kind: str  # "fiber_support" | "fiber_vector" | "fiber_cones" | "base_support"
    #             | "lift_mismatch" | "lift_degenerate" | "pair_coverage"
    detail: str


@dataclass
class BundleJoinReport:
    splits_checked: list[int] = field(default_factory=list)
    defects: list[JoinDefect] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.defects


def _check_lifts(base: Fan, report: BundleJoinReport) -> None:
    # (b) for each prefix, in order: its lift, the base cone over it, has
    # base.n distinct rays, which project to the base with determinant +-1.
    # On a join that the level walk takes, each lift is its own cone, the
    # rays in label order and the cones in prefix order; a cone that repeats
    # a ray has determinant 0, so only the cones of determinant other than
    # +-1 have their distinct rays counted.  Otherwise the rows are ranked in label order, so that
    # renumbering the rays keeps the sign, and the lifts of n rays, each
    # ascending, are the one level of a walk of _join_dets
    m, n = len(base.dims) + 1, base.n
    dets = _join_dets(base.maxcones, [ray.vector for ray in base.rays], n) if base.is_join else None
    if dets is not None:
        found = [(base.perm_tuples[ci], len({*base.maxcones[ci]}), d) for ci, d in enumerate(dets) if d not in (1, -1)]
    else:
        order = sorted(range(len(base.rays)), key=lambda r: base.rays[r].label)
        rank = {r: i for i, r in enumerate(order)}
        lifts = sorted(zip(base.perm_tuples, (tuple(sorted({rank[r] for r in cone})) for cone in base.maxcones)))
        batch = tuple(lift for _, lift in lifts if len(lift) == n)
        dets = iter(_join_dets(batch, [base.rays[r].vector for r in order], n) if batch else ())
        found = [(prefix, len(lift), next(dets) if len(lift) == n else 0) for prefix, lift in lifts]
    for prefix, size, d in found:
        if size != n:
            detail = f"lift over {prefix} has {size} rays"
        elif d not in (1, -1):
            detail = f"lift over {prefix} projects with determinant {d}"
        else:
            continue
        report.defects.append(JoinDefect(m, "lift_degenerate", detail))


def _split_by_sets(fan: Fan, base: Fan, report: BundleJoinReport) -> None:
    # any other fan: one pass over the cones splits each into its fiber
    # (stage-m subset masks) and its lift (lower-stage ray indices)
    m = len(fan.dims)
    n_m = fan.dims[-1]
    top = {i: ray.label.subset.mask for i, ray in enumerate(fan.rays) if ray.label.stage == m}
    lifts: dict[tuple, frozenset[int]] = {}
    pairs = set()
    fiber_parts = set()
    mismatches: list[JoinDefect] = []
    coverage: list[JoinDefect] = []
    for ci, (cone, pt) in enumerate(zip(fan.maxcones, fan.perm_tuples)):
        prefix = pt[: m - 1]
        fiber = frozenset(top[r] for r in cone if r in top)
        lift = frozenset(r for r in cone if r not in top)
        fiber_parts.add(fiber)
        pairs.add((prefix, fiber))
        if lifts.setdefault(prefix, lift) != lift:
            mismatches.append(
                JoinDefect(m, "lift_mismatch", f"prefix {prefix} has two different lifts")
            )
        size = len(fiber) + len(lift)
        if size != fan.n:
            coverage.append(JoinDefect(m, "pair_coverage", f"cone {ci} has {size} rays"))
    expected_parts = set(map(frozenset, permutation_chains(n_m)[1]))
    if fiber_parts != expected_parts:
        report.defects.append(
            JoinDefect(m, "fiber_cones", "stage slices do not match the one-factor fan")
        )

    # (b) each base cone is the unimodular projection of a unique lift
    report.defects.extend(mismatches)
    _check_lifts(base, report)

    # (c) cones are exactly the joins: one lift plus one fiber cone apiece
    report.defects.extend(coverage)
    # the projected base fan has one cone per prefix
    want = len(base.maxcones) * len(expected_parts)
    if len(fan.maxcones) != want or len(pairs) != want:
        report.defects.append(
            JoinDefect(
                m,
                "pair_coverage",
                f"{len(fan.maxcones)} cones over {len(pairs)} distinct "
                f"(base, fiber) pairs, expected {want}",
            )
        )


def verify_bundle_join(fan: Fan) -> BundleJoinReport:
    """Check the iterated bundle structure of the fan at every stage split.

    At each split the top stage is pulled off: its rays must form the
    one-factor fan inside the last coordinate block, the remaining rays of
    each cone must project unimodularly onto a cone of the projected fan,
    and the maximal cones must be exactly the pairwise joins.  The loop
    then splits the projected fan, down to one stage, so a single-stage
    fan passes vacuously.
    """
    report = BundleJoinReport()
    while len(fan.dims) > 1:
        m, n_m = len(fan.dims), fan.dims[-1]
        base = project_fan(fan, m - 1)
        report.splits_checked.append(m)
        # (a) stage-m rays live in the last block and form the one-factor fan there
        for ray in fan.rays:
            head, tail = ray.vector[: base.n], ray.vector[base.n :]
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
        # build_fan's type: only the lift determinants of (b) can fail
        if fan.is_join:
            _check_lifts(base, report)
        else:
            _split_by_sets(fan, base, report)
        fan = base
    return report
