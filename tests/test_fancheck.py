"""Smoothness, completeness, projection, and bundle-join verification."""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from math import factorial, prod

import pytest

from conftest import (
    POPULATION_SEEDS,
    cone_labels,
    perturbed,
    random_tower,
    ray_index,
    reference_is_complete_simplicial,
    seeded_doc,
    three_stage_tower,
    truncated,
    two_stage_tower,
)
from flagbott.cli import load_tower
from flagbott.exactlin import _det_rows
from flagbott.fancheck import (
    BundleJoinReport,
    JoinDefect,
    NotSimplicial,
    WallDefect,
    is_complete_simplicial,
    is_smooth,
    project_fan,
    verify_bundle_join,
)
from flagbott.fans import Fan, Ray, RayLabel, Subset
from flagbott.orbitfan import build_fan
from flagbott.permfan import perm_fan, perm_ray_vector
from flagbott.tower import FlagBottTower


def tiny_fan(vectors: list[tuple[int, int]], cones: list[tuple[int, ...]]) -> Fan:
    """Hand-built 2d fan; labels are synthetic and only need to be distinct."""
    rays = tuple(
        Ray(RayLabel(1, Subset(4, 1 << i)), v) for i, v in enumerate(vectors)
    )
    return Fan((2,), rays, tuple(cones), tuple(((i + 1,),) for i in range(len(cones))))


def test_is_smooth_permutohedral():
    for n in (1, 2, 3):
        report = is_smooth(perm_fan(n))
        assert report.ok
        assert report.cones_checked == len(perm_fan(n).maxcones)
        assert report.failures == []


def test_is_smooth_goldens():
    for t in (two_stage_tower(), three_stage_tower()):
        assert is_smooth(build_fan(t)).ok


def test_is_smooth_catches_bad_determinant():
    fan = tiny_fan([(1, 0), (1, 2)], [(0, 1)])
    report = is_smooth(fan)
    assert not report.ok
    assert report.failures[0].cone == 0
    assert report.failures[0].det == 2


def test_is_smooth_rejects_nonsimplicial():
    fan = tiny_fan([(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    with pytest.raises(NotSimplicial):
        is_smooth(fan)


def test_is_complete_permutohedral():
    for n in (1, 2, 3):
        fan = perm_fan(n)
        report = is_complete_simplicial(fan)
        assert report.ok
        assert report.connected
        assert report.defects == []
        assert report.cones_checked == len(fan.maxcones)
        # every wall is shared by two cones
        assert report.walls_checked == len(fan.maxcones) * n // 2


def test_is_complete_rejects_nonsimplicial():
    fan = tiny_fan([(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    with pytest.raises(NotSimplicial):
        is_complete_simplicial(fan)


def test_cone_dets_reject_a_cone_out_of_order():
    # the same geometric fan, but cone 0 lists its rays descending; the
    # wall test reads positions in the tuple, so both checks must refuse it
    fan = perm_fan(3)
    reversed_cone = fan.maxcones[0][::-1]
    faulty = dataclasses.replace(fan, maxcones=(reversed_cone,) + fan.maxcones[1:])
    for check in (is_smooth, is_complete_simplicial):
        with pytest.raises(ValueError, match=r"cone 0 "):
            check(faulty)
    resorted = dataclasses.replace(faulty, maxcones=(tuple(sorted(reversed_cone)),) + fan.maxcones[1:])
    assert is_smooth(resorted).ok
    assert is_complete_simplicial(resorted).ok


def test_is_complete_goldens():
    for t in (two_stage_tower(), three_stage_tower()):
        report = is_complete_simplicial(build_fan(t))
        assert report.ok


def test_incomplete_fan_has_dangling_walls():
    full = perm_fan(2)
    holed = dataclasses.replace(
        full, maxcones=full.maxcones[1:], perm_tuples=full.perm_tuples[1:]
    )
    report = is_complete_simplicial(holed)
    assert not report.ok
    assert {d.kind for d in report.defects} == {"dangling"}
    assert len([d for d in report.defects if d.kind == "dangling"]) == 2


def test_overlapping_cones_are_same_side():
    fan = tiny_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)])
    report = is_complete_simplicial(fan)
    same_side = [d for d in report.defects if d.kind == "same_side"]
    assert same_side == [
        WallDefect("same_side", (1,), (0, 1), "opposite rays do not straddle the wall hyperplane")
    ]


def test_degenerate_cone_reported():
    fan = tiny_fan([(1, 0), (2, 0)], [(0, 1)])
    report = is_complete_simplicial(fan)
    assert any(d.kind == "degenerate" for d in report.defects)


def test_crowded_wall_reported():
    fan = tiny_fan(
        [(1, 0), (0, 1), (0, -1), (1, 1)], [(0, 1), (0, 2), (0, 3)]
    )
    report = is_complete_simplicial(fan)
    crowded = [d for d in report.defects if d.kind == "crowded"]
    assert crowded
    assert crowded[0].wall == (0,)
    assert len(crowded[0].cones) == 3


def with_cones(fan: Fan, order: list[int]) -> Fan:
    """The fan with its cones listed in the given order, repeats allowed."""
    return dataclasses.replace(
        fan,
        maxcones=tuple(fan.maxcones[ci] for ci in order),
        perm_tuples=tuple(fan.perm_tuples[ci] for ci in order),
    )


def test_cone_listed_three_times_has_four_hit_walls():
    fan = perm_fan(2)
    tripled = with_cones(fan, [*range(6), 2, 2])
    report = is_complete_simplicial(tripled)
    assert report == reference_is_complete_simplicial(tripled)
    # a census that forgot a wall after its second hit would see two clean pairs
    assert [(d.kind, len(d.cones)) for d in report.defects] == [("crowded", 4)] * 2
    assert not report.connected


def test_duplicate_right_after_its_original_is_crowded_not_same_side():
    fan = perm_fan(3)
    for ci in (0, 5, 23):
        doubled = with_cones(fan, [*range(ci + 1), ci, *range(ci + 1, 24)])
        report = is_complete_simplicial(doubled)
        assert report == reference_is_complete_simplicial(doubled)
        # the second hit of a wall of cone ci comes from its copy, which
        # alone would read as same_side; the neighbour's hit makes it crowded
        assert [d.kind for d in report.defects] == ["crowded"] * 3
        assert all({ci, ci + 1} < set(d.cones) for d in report.defects)
        assert not report.connected


def test_whole_fan_listed_twice_is_crowded_everywhere():
    for fan in (perm_fan(2), build_fan(two_stage_tower())):
        count = len(fan.maxcones)
        twice = with_cones(fan, [*range(count)] * 2)
        report = is_complete_simplicial(twice)
        assert report == reference_is_complete_simplicial(twice)
        assert report.walls_checked == count * fan.n // 2
        assert [d.kind for d in report.defects] == ["crowded"] * report.walls_checked
        assert all(len(d.cones) == 4 for d in report.defects)
        assert not report.connected


def test_census_memory_per_wall(tmp_path):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(seeded_doc((2, 2, 2, 2), 1)))
    fan = build_fan(load_tower(str(spec)))
    fan.cone_dets  # computed once per fan, outside the census
    tracemalloc.start()
    try:
        report = is_complete_simplicial(fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert report.walls_checked == 5184
    assert peak / report.walls_checked < 200


def test_degenerate_cone_is_not_a_cone_of_a_crowded_wall():
    # cone 2 holds wall (0,) too, but is degenerate; cone 3 repeats cone 0
    fan = tiny_fan([(1, 0), (0, 1), (0, -1), (-2, 0)], [(0, 1), (0, 2), (0, 3), (0, 1)])
    report = is_complete_simplicial(fan)
    assert report == reference_is_complete_simplicial(fan)
    assert [(d.kind, d.cones) for d in report.defects] == [
        ("degenerate", (2,)),
        ("crowded", (0, 1, 3)),
        ("same_side", (0, 3)),
        ("dangling", (1,)),
    ]


def test_sign_rule_matches_adjugate_normals():
    fans = [perm_fan(n) for n in (1, 2, 3, 4)]
    fans += [build_fan(t) for t in (two_stage_tower(), three_stage_tower())]
    towers = [random_tower(seed) for seed in POPULATION_SEEDS]
    fans += [build_fan(t) for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(fans) == 6 + 89
    rng = random.Random(3)
    fans += [perturbed(fan, rng) for fan in list(fans) for _ in range(4)]
    kinds = set()
    for fan in fans:
        report = is_complete_simplicial(fan)
        assert report == reference_is_complete_simplicial(fan)
        kinds.update(d.kind for d in report.defects)
    assert kinds == {"same_side", "dangling", "degenerate", "crowded"}


def test_project_fan_equals_truncated_build():
    t = three_stage_tower()
    fan = build_fan(t)
    for stages in (1, 2):
        assert project_fan(fan, stages) == build_fan(truncated(t, stages))
    assert project_fan(fan, 3) is fan
    with pytest.raises(ValueError):
        project_fan(fan, 0)
    with pytest.raises(ValueError):
        project_fan(fan, 4)


def test_project_fan_counts():
    fan = build_fan(three_stage_tower())
    p2 = project_fan(fan, 2)
    assert p2.dims == (2, 2)
    assert len(p2.rays) == 12
    assert len(p2.maxcones) == 36
    assert all(len(c) == 4 for c in p2.maxcones)


def test_verify_bundle_join_goldens():
    t2 = two_stage_tower()
    report = verify_bundle_join(build_fan(t2), t2)
    assert report.ok
    assert report.splits_checked == [2]
    t3 = three_stage_tower()
    report = verify_bundle_join(build_fan(t3), t3)
    assert report.ok
    assert report.splits_checked == [3, 2]


def test_verify_bundle_join_dims_mismatch():
    t = two_stage_tower()
    with pytest.raises(ValueError):
        verify_bundle_join(perm_fan(2), t)


def test_bundle_join_detects_fiber_leak():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(2, Subset.of(2, [1]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(1, 0, 1))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored, t)
    assert not report.ok
    assert any(d.kind == "fiber_support" for d in report.defects)


def test_bundle_join_detects_base_collapse():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(1, Subset.of(3, [1]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(0, 0, 5))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored, t)
    assert not report.ok
    kinds = {d.kind for d in report.defects}
    assert "base_support" in kinds
    assert "lift_degenerate" in kinds


def test_bundle_join_detects_wrong_fiber_vector():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(2, Subset.of(2, [2]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(0, 0, -2))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored, t)
    assert any(d.kind == "fiber_vector" for d in report.defects)


def doctored_cones(fan: Fan, cones: dict[int, tuple[int, ...]]) -> Fan:
    return dataclasses.replace(
        fan, maxcones=tuple(cones.get(ci, cone) for ci, cone in enumerate(fan.maxcones))
    )


def test_bundle_join_reports_wrong_size_lift():
    t = two_stage_tower()
    fan = build_fan(t)
    stage1 = [r for r in fan.maxcones[0] if fan.rays[r].label.stage == 1]
    doctored = doctored_cones(fan, {0: tuple(r for r in fan.maxcones[0] if r != stage1[0])})
    prefix = fan.perm_tuples[0][:1]
    report = verify_bundle_join(doctored, t)
    assert JoinDefect(2, "lift_degenerate", f"lift over {prefix} has 1 rays") in report.defects
    assert JoinDefect(2, "pair_coverage", "cone 0 has 2 rays") in report.defects


def test_bundle_join_reports_two_lifts():
    t = two_stage_tower()
    fan = build_fan(t)
    prefix = fan.perm_tuples[0][:1]
    # cone 1 shares cone 0's prefix; give it the lower-stage rays of another prefix
    other = next(ci for ci, pt in enumerate(fan.perm_tuples) if pt[:1] != prefix)
    assert fan.perm_tuples[1][:1] == prefix
    lower = [r for r in fan.maxcones[other] if fan.rays[r].label.stage == 1]
    top = [r for r in fan.maxcones[1] if fan.rays[r].label.stage == 2]
    report = verify_bundle_join(doctored_cones(fan, {1: tuple(sorted(lower + top))}), t)
    assert report.defects == [
        JoinDefect(2, "lift_mismatch", f"prefix {prefix} has two different lifts")
    ]


def test_bundle_join_reports_missing_fiber_ray():
    t = two_stage_tower()
    fan = build_fan(t)
    lower = tuple(r for r in fan.maxcones[0] if fan.rays[r].label.stage == 1)
    report = verify_bundle_join(doctored_cones(fan, {0: lower}), t)
    assert {d.kind for d in report.defects} == {"fiber_cones", "pair_coverage"}
    assert JoinDefect(2, "pair_coverage", "cone 0 has 2 rays") in report.defects


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
    rays at random."""
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
    new_index = {old: new for new, old in enumerate(order)}
    return dataclasses.replace(
        fan,
        rays=tuple(rays[old] for old in order),
        maxcones=tuple(tuple(sorted(new_index[r] for r in cone)) for cone in cones),
        perm_tuples=tuple(perms),
    )


def test_bundle_join_matches_label_reference():
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS]
    towers = [t for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(towers) == 2 + 89
    rng = random.Random(6)
    kinds = set()
    for t in towers:
        fan = build_fan(t)
        cases = [fan] + [cone_faulted(fan, rng, renumber) for renumber in (False, True) * 4]
        for case in cases:
            report = verify_bundle_join(case, t)
            assert report == reference_verify_bundle_join(case, t)
            kinds.update(d.kind for d in report.defects)
    assert kinds == {
        "fiber_support",
        "fiber_vector",
        "fiber_cones",
        "base_support",
        "lift_mismatch",
        "lift_degenerate",
        "pair_coverage",
    }


def test_full_pipeline_on_random_towers():
    for seed in range(6):
        t = random_tower(seed)
        fan = build_fan(t)
        assert is_smooth(fan).ok
        assert is_complete_simplicial(fan).ok
        assert verify_bundle_join(fan, t).ok
        for stages in range(1, t.m + 1):
            assert project_fan(fan, stages) == build_fan(truncated(t, stages))
