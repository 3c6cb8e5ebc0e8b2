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

Wall normals come free with smoothness data: if U is the matrix whose
columns are the cone's rays and d = det U, then row k of sign(d) * adj(U)
pairs to |d| > 0 with ray k and to 0 with the others, so it is an inner
normal of the wall omitting ray k.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .exactlin import IntMatrix, _det_rows, adjugate_det, det
from .fans import Fan, Ray, RayLabel
from .permfan import perm_fan, perm_ray_vector
from .tower import FlagBottTower


class NotSimplicial(ValueError):
    """A maximal cone does not have exactly n rays."""


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


def _cone_matrix(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    n = fan.n
    if len(cone) != n:
        raise NotSimplicial(f"cone has {len(cone)} rays in dimension {n}")
    return IntMatrix.from_cols([fan.rays[r].vector for r in cone])


def is_smooth(fan: Fan) -> SmoothnessReport:
    """Determinant of every maximal cone; smooth means all are +-1."""
    n = fan.n
    failures = []
    for ci, cone in enumerate(fan.maxcones):
        if len(cone) != n:
            raise NotSimplicial(f"cone has {len(cone)} rays in dimension {n}")
        # det is transpose-invariant, so rows may hold the ray vectors
        d = _det_rows([list(fan.rays[r].vector) for r in cone])
        if d not in (1, -1):
            failures.append(ConeDeterminant(ci, d))
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


def is_complete_simplicial(fan: Fan) -> CompletenessReport:
    """Wall-pairing completeness test for a simplicial fan."""
    n = fan.n
    # wall (sorted ray indices) -> list of (cone index, opposite ray, inner normal)
    census: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    defects: list[WallDefect] = []
    for ci, cone in enumerate(fan.maxcones):
        adj, d = adjugate_det(_cone_matrix(fan, cone))
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


def project_fan(fan: Fan, stages: int) -> Fan:
    """Image of the fan under dropping all blocks after the given stage.

    Rays of later stages are discarded, surviving ray vectors are
    truncated, and cones with the same permutation prefix collapse to one.
    """
    m = len(fan.dims)
    if not 1 <= stages <= m:
        raise ValueError(f"stage count must be in 1..{m}, got {stages}")
    if stages == m:
        return fan
    dims = fan.dims[:stages]
    nn = sum(dims)
    kept = [i for i, ray in enumerate(fan.rays) if ray.label.stage <= stages]
    remap = {old: new for new, old in enumerate(kept)}
    rays = tuple(
        Ray(fan.rays[old].label, fan.rays[old].vector[:nn]) for old in kept
    )
    seen: set[tuple] = set()
    maxcones = []
    perm_tuples = []
    for cone, pt in zip(fan.maxcones, fan.perm_tuples):
        prefix = pt[:stages]
        if prefix in seen:
            continue
        seen.add(prefix)
        maxcones.append(
            tuple(sorted(remap[r] for r in cone if fan.rays[r].label.stage <= stages))
        )
        perm_tuples.append(prefix)
    return Fan(dims, rays, tuple(maxcones), tuple(perm_tuples))


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


def _check_top_split(fan: Fan, report: BundleJoinReport) -> None:
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
        frozenset(lbl.subset for lbl in fan.cone_labels(ci) if lbl.stage == m)
        for ci in range(len(fan.maxcones))
    }
    one_factor = perm_fan(n_m)
    expected_parts = {
        frozenset(lbl.subset for lbl in one_factor.cone_labels(ci))
        for ci in range(len(one_factor.maxcones))
    }
    if fiber_parts != expected_parts:
        report.defects.append(
            JoinDefect(m, "fiber_cones", "stage slices do not match the one-factor fan")
        )

    # (b) each base cone is the unimodular projection of a unique lift
    base = project_fan(fan, m - 1)
    base_cone_of_prefix = {pt: ci for ci, pt in enumerate(base.perm_tuples)}
    lifts: dict[tuple, frozenset[RayLabel]] = {}
    for ci, pt in enumerate(fan.perm_tuples):
        prefix = pt[: m - 1]
        lift = frozenset(lbl for lbl in fan.cone_labels(ci) if lbl.stage < m)
        if prefix in lifts:
            if lifts[prefix] != lift:
                report.defects.append(
                    JoinDefect(m, "lift_mismatch", f"prefix {prefix} has two different lifts")
                )
        else:
            lifts[prefix] = lift
    for prefix, lift in sorted(lifts.items()):
        bci = base_cone_of_prefix[prefix]
        if base.cone_labels(bci) != lift:
            report.defects.append(
                JoinDefect(m, "lift_mismatch", f"lift over {prefix} misses base cone rays")
            )
            continue
        cols = [
            fan.rays[fan.ray_index[lbl]].vector[:base_n] for lbl in sorted(lift)
        ]
        d = det(IntMatrix.from_cols(cols))
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
        labels = fan.cone_labels(ci)
        fiber_key = frozenset(lbl.subset for lbl in labels if lbl.stage == m)
        pairs.add((pt[: m - 1], fiber_key))
        if len(labels) != fan.n:
            report.defects.append(
                JoinDefect(m, "pair_coverage", f"cone {ci} has {len(labels)} rays")
            )
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


def verify_bundle_join(fan: Fan, t: FlagBottTower) -> BundleJoinReport:
    """Check the iterated bundle structure of the fan at every stage split.

    At each split the top stage is pulled off: its rays must form the
    one-factor fan inside the last coordinate block, the remaining rays of
    each cone must project unimodularly onto a cone of the projected fan,
    and the maximal cones must be exactly the pairwise joins.  The check
    then recurses on the projected fan.  A single-stage fan passes
    vacuously.
    """
    if fan.dims != t.dims:
        raise ValueError(f"fan dims {fan.dims} do not match tower dims {t.dims}")
    report = BundleJoinReport()
    cur = fan
    while len(cur.dims) > 1:
        _check_top_split(cur, report)
        cur = project_fan(cur, len(cur.dims) - 1)
    return report
