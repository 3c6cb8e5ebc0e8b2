"""Smoothness, completeness, projection, and bundle-join verification."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import re
import tracemalloc
from itertools import product
from math import factorial, prod

import pytest

from conftest import (
    POPULATION_SEEDS,
    RAY_FAULTS,
    bundle_paths,
    cone_faulted,
    perturbed,
    random_tower,
    ray_faulted,
    ray_index,
    reference_flip_table,
    reference_is_complete_simplicial,
    reference_verify_bundle_join,
    seeded_doc,
    subset,
    three_stage_tower,
    truncated,
    two_stage_tower,
)
from flagbott import fancheck, fans
from flagbott.cli import load_tower
from flagbott.exactlin import IntMatrix, _det_rows
from flagbott.fancheck import (
    BundleJoinReport,
    CompletenessReport,
    JoinDefect,
    WallDefect,
    is_complete_simplicial,
    is_smooth,
    project_fan,
    verify_bundle_join,
)
from flagbott.fans import Fan, Ray, RayLabel, Subset, _Join, ray_labels, stage_join
from flagbott.orbitfan import build_fan, verify_oracle
from flagbott.permfan import perm_fan
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
    with pytest.raises(ValueError, match=r"^cone 0 has 3 rays in dimension 2$"):
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


def test_fan_with_no_cones_is_not_complete():
    # its support is {0}: no wall is unpaired, but no component covers R^n
    empty = dataclasses.replace(perm_fan(2), maxcones=(), perm_tuples=())
    report = is_complete_simplicial(empty)
    assert report == CompletenessReport(0, 0, [], False)
    assert not report.ok
    assert report == reference_is_complete_simplicial(empty)


def test_flip_table_positions_equal_the_set_differences():
    # the swap at a, a+1 changes S_(n-a) alone, at position n - a - 1 of
    # both cones, so the opposite rays' positions agree and k1 + k2 is even.
    # With every determinant +1 each flip pair is same_side, so the walk
    # must list each pair once: the reference table expanded over the
    # stage indices of every cone
    towers = [two_stage_tower(), three_stage_tower(), *map(random_tower, POPULATION_SEEDS)]
    joins = [fan for fan in map(build_fan, towers) if len(fan.maxcones) <= 576]
    assert len(joins) > 50
    for fan in [*map(perm_fan, range(1, 6)), *joins]:
        cones = fan.maxcones
        fan.__dict__["cone_dets"] = (1,) * len(cones)
        tables, stride, lo = [], len(cones), 0
        for n in fan.dims:
            stride //= factorial(n + 1)
            tables.append(reference_flip_table(n, stride, lo))
            lo += n
        want = set()
        for ci, idx in enumerate(product(*(range(len(table)) for table in tables))):
            for table, i in zip(tables, idx):
                for step, parity, k in table[i]:
                    assert parity == 0
                    want.add((cones[ci][:k] + cones[ci][k + 1 :], ci, ci + step))
        found = fancheck._flip_defects(fan)
        assert len(found) == len(want) == len(cones) * fan.n // 2
        assert {(defect.wall, *defect.cones) for defect in found} == want


def test_flip_walk_forms_no_chain(monkeypatch):
    # each stage's permutations are read off the join, so the walk runs
    # with the chain rule refused; with every determinant +1 it lists each
    # flip pair, as the census does
    fan = build_fan(three_stage_tower())
    fan.__dict__["cone_dets"] = (1,) * len(fan.maxcones)
    want = fancheck._census(fan).defects

    def refuse(n):
        raise AssertionError("the flip walk formed the chains of a stage")

    monkeypatch.setattr("flagbott.fans.permutation_chains", refuse)
    monkeypatch.setattr(fancheck, "permutation_chains", refuse)
    found = fancheck._flip_defects(fan)
    assert found == want and len(found) == len(fan.maxcones) * fan.n // 2


def test_planted_sign_faults_on_joins_equal_the_census(paths):
    # the flip walk compares whole runs of signs, and walks a run cone by
    # cone only where it differs from its partner's; with the signs of a
    # few random cones flipped, then those of a random slice of cones, it
    # lists the census's same_side walls
    rng = random.Random(5)
    towers = [two_stage_tower(), three_stage_tower(), *map(random_tower, POPULATION_SEEDS)]
    joins = [*map(perm_fan, range(1, 5)), *(fan for fan in map(build_fan, towers) if len(fan.maxcones) <= 576)]
    defects = 0
    for fan in joins:
        dets = list(fan.cone_dets)
        for ci in rng.sample(range(len(dets)), min(len(dets), rng.randint(1, 8))):
            dets[ci] = -dets[ci]
        for _ in range(2):
            lo = rng.randrange(len(dets))
            hi = rng.randint(lo, len(dets))
            dets[lo:hi] = [-d for d in dets[lo:hi]]
            fan.__dict__["cone_dets"] = tuple(dets)
            report = is_complete_simplicial(fan)
            assert report == fancheck._census(fan)
            defects += len(report.defects)
    assert paths == ["flip", "census"] * 2 * len(joins)
    assert defects > 1000


def test_is_complete_rejects_nonsimplicial():
    fan = tiny_fan([(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"^cone 0 has 3 rays in dimension 2$"):
        is_complete_simplicial(fan)


def test_cone_dets_name_a_cone_with_the_wrong_ray_count():
    fan = perm_fan(2)
    faulty = dataclasses.replace(fan, maxcones=fan.maxcones[:4] + ((0, 1, 2),) + fan.maxcones[5:])
    for check in (is_smooth, is_complete_simplicial, reference_is_complete_simplicial):
        with pytest.raises(ValueError, match=r"^cone 4 has 3 rays in dimension 2$"):
            check(faulty)


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


def test_cone_dets_take_the_order_of_a_cone_given_as_a_list():
    # an ascending cone is in order whatever sequence type holds it, and a
    # descending one is refused as a list too
    fan = perm_fan(2)
    listed = dataclasses.replace(fan, maxcones=[list(c) for c in fan.maxcones])
    assert listed.cone_dets == fan.cone_dets
    assert is_smooth(listed) == is_smooth(fan)
    assert is_complete_simplicial(listed) == is_complete_simplicial(fan)
    faulty = dataclasses.replace(listed, maxcones=[listed.maxcones[0][::-1]] + listed.maxcones[1:])
    with pytest.raises(ValueError, match=r"^cone 0 lists its rays out of order: \[5, 3\]$"):
        is_smooth(faulty)


def test_cones_of_mixed_sequence_types_give_their_tuple_copys_reports():
    # the walk sorts a level's tails as tuples, so a fan whose cones mix
    # tuples and lists gives the determinants and reports of its all-tuple
    # copy, a doubled ray's failures included
    fan = perm_fan(2)
    doubled = dataclasses.replace(fan, rays=(Ray(fan.rays[0].label, tuple(2 * x for x in fan.rays[0].vector)),) + fan.rays[1:])
    for case in (fan, doubled):
        mixed = dataclasses.replace(case, maxcones=[list(case.maxcones[0]), *case.maxcones[1:]])
        copied = dataclasses.replace(case, maxcones=tuple(case.maxcones))
        assert mixed.cone_dets == copied.cone_dets
        assert is_smooth(mixed) == is_smooth(copied)
        assert is_complete_simplicial(mixed) == is_complete_simplicial(copied)
    assert not is_smooth(mixed).ok


def test_cone_dets_reject_a_ray_index_out_of_range():
    # read by negative indexing, -5 is ray 3, which would leave cone 0 as
    # it is and the fan smooth and complete; 8 is past the last ray
    fan = build_fan(two_stage_tower())
    assert fan.maxcones[0] == (3, 5, 7) and len(fan.rays) == 8
    for cone in ((-5, 5, 7), (0, 2, 8)):
        faulty = dataclasses.replace(fan, maxcones=(cone,) + fan.maxcones[1:])
        for check in (is_smooth, is_complete_simplicial):
            with pytest.raises(ValueError, match=r"^cone 0 names a ray outside 0\.\.7: "):
                check(faulty)


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


def test_degenerate_cone_sends_a_fan_of_build_fans_type_to_the_census(paths):
    # ray 2 ({1,2}) gets the vector of ray 0 ({1}): the cones of chains
    # through both are degenerate, though the combinatorics are build_fan's
    fan = build_fan(two_stage_tower())
    case = dataclasses.replace(fan, rays=fan.rays[:2] + (Ray(fan.rays[2].label, fan.rays[0].vector),) + fan.rays[3:])
    assert case.is_join
    report = is_complete_simplicial(case)
    assert report == reference_is_complete_simplicial(case)
    assert paths == ["census"]
    assert [d.cones for d in report.defects if d.kind == "degenerate"] == [(10,), (11,)]


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


def seeded_fan(tmp_path, dims: tuple[int, ...]) -> tuple[FlagBottTower, Fan]:
    """The benchmark's seed-1 tower of the given dims, and its fan."""
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(seeded_doc(dims, 1)))
    t = load_tower(str(spec))
    return t, build_fan(t)


def traced_peak(run):
    """run() and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_fan_retains_its_stage_join_not_each_cone(tmp_path):
    # seed-1 (4,4,3) and (5,5,3): 345600 and 12441600 cones formed on
    # demand from the stages' 120 + 120 + 24 and 720 + 720 + 24 chains,
    # where materialised heads of the first two stages held 2.5 and 95 MB
    for dims, count, bound in (((4, 4, 3), 345600, 0.5), ((5, 5, 3), 12441600, 2)):
        spec = tmp_path / "tower.json"
        spec.write_text(json.dumps(seeded_doc(dims, 1)))
        t = load_tower(str(spec))
        tracemalloc.start()
        try:
            fan = build_fan(t, cone_cap=13_000_000)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fan.is_join and len(fan.maxcones) == len(fan.perm_tuples) == count
        assert retained < bound * 2**20


def test_joins_with_equal_stage_data_compare_equal_without_forming_entries(tmp_path, monkeypatch):
    # two seed-1 (4,4,3) fans built apart: equal heads and tails decide
    # equality, with none of the 345600 entries formed
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(seeded_doc((4, 4, 3), 1)))
    t = load_tower(str(spec))
    fan, again = build_fan(t), build_fan(t)
    assert fan.maxcones is not again.maxcones and fan.perm_tuples is not again.perm_tuples

    def refuse(*args):
        raise AssertionError("an entry was formed")

    monkeypatch.setattr(_Join, "__iter__", refuse)
    monkeypatch.setattr(_Join, "__getitem__", refuse)
    assert fan == again and not fan != again


def test_census_memory_per_wall(tmp_path):
    # two cones swapped: the same complete fan, but off build_fan's order,
    # so the census runs
    _, fan = seeded_fan(tmp_path, (2, 2, 2, 2))
    swapped = with_cones(fan, [1, 0, *range(2, len(fan.maxcones))])
    swapped.cone_dets  # computed once per fan, outside the census
    report, peak = traced_peak(lambda: is_complete_simplicial(swapped))
    assert not swapped.is_join
    assert report.ok
    assert report.walls_checked == 5184
    assert peak / report.walls_checked < 200


def test_flip_path_memory_per_cone(tmp_path):
    _, fan = seeded_fan(tmp_path, (2, 2, 2, 2))
    fan.cone_dets
    report, peak = traced_peak(lambda: is_complete_simplicial(fan))
    assert report.ok
    assert report.walls_checked == 5184
    # the census takes about 400 bytes per cone here
    assert peak / len(fan.maxcones) < 50


def test_slice_path_memory_per_cone(tmp_path):
    _, fan = seeded_fan(tmp_path, (2, 2, 2, 2))
    report, peak = traced_peak(lambda: verify_bundle_join(fan))
    assert report == BundleJoinReport([4, 3, 2], [])
    # a join takes the lifts route at every split: about 44 bytes per cone
    assert peak / len(fan.maxcones) < 100
    # its plain-tuple copy is no join, nor are its projections, so every
    # split takes the sets route, two frozensets per cone: about 590 bytes
    # per cone
    copy = dataclasses.replace(fan, maxcones=tuple(fan.maxcones), perm_tuples=tuple(fan.perm_tuples))
    assert not copy.is_join
    report, peak = traced_peak(lambda: verify_bundle_join(copy))
    assert report == BundleJoinReport([4, 3, 2], [])
    assert peak / len(copy.maxcones) < 1000


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


def test_sign_rule_matches_adjugate_normals(paths):
    fans = [perm_fan(n) for n in (1, 2, 3, 4)]
    fans += [build_fan(t) for t in (two_stage_tower(), three_stage_tower())]
    towers = [random_tower(seed) for seed in POPULATION_SEEDS]
    fans += [build_fan(t) for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(fans) == 6 + 89
    rng = random.Random(3)
    fans += [perturbed(fan, rng) for fan in list(fans) for _ in range(4)]
    kinds, taken = set(), set()
    for fan in fans:
        paths.clear()
        report = is_complete_simplicial(fan)
        assert report == reference_is_complete_simplicial(fan)
        kinds.update(d.kind for d in report.defects)
        # perturbed rebuilds the cones, which sends a fan to the census
        assert paths == ["flip" if fan.is_join and 0 not in fan.cone_dets else "census"]
        taken.update(paths)
    assert kinds == {"same_side", "dangling", "degenerate", "crowded"}
    assert taken == {"flip", "census"}


def test_project_fan_equals_truncated_build():
    t = three_stage_tower()
    fan = build_fan(t)
    # a join projects to the join of its first stages; a copy of it that is
    # not a join, cone by cone, to the same fan
    rebuilt = dataclasses.replace(fan, maxcones=tuple(fan.maxcones))
    for stages in (1, 2):
        assert project_fan(fan, stages).is_join
        assert project_fan(fan, stages) == project_fan(rebuilt, stages) == build_fan(truncated(t, stages))
    assert project_fan(fan, 3) is fan
    with pytest.raises(ValueError):
        project_fan(fan, 0)
    with pytest.raises(ValueError):
        project_fan(fan, 4)


def test_a_joins_projection_is_its_own_level():
    # each level of the three-stage golden's nested heads is its projection,
    # the same cones and permutation tuples, not a join rebuilt
    fan = build_fan(three_stage_tower())
    levels = [fan.maxcones, fan.maxcones.heads, fan.maxcones.heads.heads]
    for stages, level in zip((3, 2, 1), levels):
        projected = project_fan(fan, stages)
        assert projected.maxcones is level and projected.perm_tuples is level.perm_tuples
        assert level.dims == fan.dims[:stages] and projected.is_join
    assert levels[2].heads == ((),)


def test_project_fan_counts():
    fan = build_fan(three_stage_tower())
    p2 = project_fan(fan, 2)
    assert p2.dims == (2, 2)
    assert len(p2.rays) == 12
    assert len(p2.maxcones) == 36
    assert all(len(c) == 4 for c in p2.maxcones)


def test_verify_bundle_join_goldens():
    t2 = two_stage_tower()
    report = verify_bundle_join(build_fan(t2))
    assert report.ok
    assert report.splits_checked == [2]
    t3 = three_stage_tower()
    report = verify_bundle_join(build_fan(t3))
    assert report.ok
    assert report.splits_checked == [3, 2]


def test_bundle_join_detects_fiber_leak():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(2, subset(2, [1]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(1, 0, 1))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored)
    assert not report.ok
    assert any(d.kind == "fiber_support" for d in report.defects)


def test_bundle_join_detects_base_collapse():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(1, subset(3, [1]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(0, 0, 5))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored)
    assert not report.ok
    kinds = {d.kind for d in report.defects}
    assert "base_support" in kinds
    assert "lift_degenerate" in kinds


def test_bundle_join_detects_wrong_fiber_vector():
    t = two_stage_tower()
    fan = build_fan(t)
    bad_rays = list(fan.rays)
    i = ray_index(fan)[RayLabel(2, subset(2, [2]))]
    bad_rays[i] = dataclasses.replace(bad_rays[i], vector=(0, 0, -2))
    doctored = dataclasses.replace(fan, rays=tuple(bad_rays))
    report = verify_bundle_join(doctored)
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
    report = verify_bundle_join(doctored)
    assert JoinDefect(2, "lift_degenerate", f"lift over {prefix} has 1 rays") in report.defects
    assert JoinDefect(2, "pair_coverage", "cone 0 has 2 rays") in report.defects


def test_bundle_join_reports_lifts_that_are_all_too_small():
    # every cone loses a stage-1 ray, so no lift over a prefix has n rays,
    # and the determinant pass over the lifts of n rays is handed none
    t = two_stage_tower()
    fan = build_fan(t)
    assert all(fan.rays[cone[0]].label.stage == 1 for cone in fan.maxcones)
    doctored = doctored_cones(fan, {ci: cone[1:] for ci, cone in enumerate(fan.maxcones)})
    report = verify_bundle_join(doctored)
    assert report == reference_verify_bundle_join(doctored)
    prefixes = list(dict.fromkeys(pt[:1] for pt in fan.perm_tuples))
    lifts = [d for d in report.defects if d.kind == "lift_degenerate"]
    assert lifts == [JoinDefect(2, "lift_degenerate", f"lift over {prefix} has 1 rays") for prefix in prefixes]


def test_bundle_join_reports_two_lifts():
    t = two_stage_tower()
    fan = build_fan(t)
    prefix = fan.perm_tuples[0][:1]
    # cone 1 shares cone 0's prefix; give it the lower-stage rays of another prefix
    other = next(ci for ci, pt in enumerate(fan.perm_tuples) if pt[:1] != prefix)
    assert fan.perm_tuples[1][:1] == prefix
    lower = [r for r in fan.maxcones[other] if fan.rays[r].label.stage == 1]
    top = [r for r in fan.maxcones[1] if fan.rays[r].label.stage == 2]
    report = verify_bundle_join(doctored_cones(fan, {1: tuple(sorted(lower + top))}))
    assert report.defects == [
        JoinDefect(2, "lift_mismatch", f"prefix {prefix} has two different lifts")
    ]


def test_bundle_join_reports_missing_fiber_ray():
    t = two_stage_tower()
    fan = build_fan(t)
    lower = tuple(r for r in fan.maxcones[0] if fan.rays[r].label.stage == 1)
    report = verify_bundle_join(doctored_cones(fan, {0: lower}))
    assert {d.kind for d in report.defects} == {"fiber_cones", "pair_coverage"}
    assert JoinDefect(2, "pair_coverage", "cone 0 has 2 rays") in report.defects


def test_bundle_join_matches_label_reference(paths):
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS]
    towers = [t for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(towers) == 2 + 89
    rng = random.Random(6)
    kinds, taken = set(), set()
    for t in towers:
        fan = build_fan(t)
        cases = [fan] + [cone_faulted(fan, rng, renumber) for renumber in (False, True) * 4]
        for case in cases:
            paths.clear()
            report = verify_bundle_join(case)
            assert report == reference_verify_bundle_join(case)
            kinds.update(d.kind for d in report.defects)
            # the top split of a cone fault or a renumbering splits sets
            assert paths == bundle_paths(case)
            taken.update(paths[:1])
    assert kinds == {
        "fiber_support",
        "fiber_vector",
        "fiber_cones",
        "base_support",
        "lift_mismatch",
        "lift_degenerate",
        "pair_coverage",
    }
    assert taken == {"lifts", "sets"}


def test_ray_faults_take_the_flip_and_slice_paths(paths):
    # a fault in the ray vectors keeps build_fan's combinatorics, so the
    # checks take the new paths, and must still give the references' reports
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS[:40]]
    towers = [t for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    rng = random.Random(12)
    found: dict[str, set[str]] = {"flip": set(), "census": set(), "lifts": set()}
    for t in towers:
        fan = build_fan(t)
        for kind in RAY_FAULTS + ("scale",):
            case = ray_faulted(fan, rng, kind, renumber=False)
            assert case.is_join
            paths.clear()
            report = is_complete_simplicial(case)
            assert report == reference_is_complete_simplicial(case)
            # a degenerate cone sends the fan to the census
            assert paths == ["census" if 0 in case.cone_dets else "flip"]
            found[paths[0]].update(d.kind for d in report.defects)
            paths.clear()
            joins = verify_bundle_join(case)
            assert joins == reference_verify_bundle_join(case)
            assert paths == ["lifts"] * (t.m - 1)
            found["lifts"].update(d.kind for d in joins.defects)
    assert found["flip"] == {"same_side"}
    assert "degenerate" in found["census"]
    assert found["lifts"] == {"fiber_support", "fiber_vector", "base_support", "lift_degenerate"}


def test_a_fan_is_a_join_by_how_it_was_made(paths):
    # copies keep the cone and permutation-tuple objects, so a join stays a
    # join and takes the flip path and the lift check; cones or permutation
    # tuples built anew, other dims or renumbered rays are not a join, and
    # take the census and the set split.  Each check's report equals the
    # equal fan's where one is given, else the references'.
    t = three_stage_tower()
    fan = build_fan(t)
    flipped = ray_faulted(fan, random.Random(2), "flip", renumber=False)
    # dims (1, 2, 2) have as many rays and cones as (2, 2, 1)
    zero = {(2, 1): (3, 2), (3, 1): (3, 2), (3, 2): (3, 3)}
    other = build_fan(FlagBottTower((1, 2, 2), {key: IntMatrix.from_rows([[0] * c] * r) for key, (r, c) in zero.items()}))
    cases = [
        (pickle.loads(pickle.dumps(fan)), True, fan),
        (copy.deepcopy(fan), True, fan),
        (dataclasses.replace(fan, rays=flipped.rays), True, None),
        (dataclasses.replace(fan, maxcones=tuple(fan.maxcones)), False, fan),
        (dataclasses.replace(fan, perm_tuples=tuple(list(fan.perm_tuples))), False, fan),
        (dataclasses.replace(fan, maxcones=fan.maxcones[:-1], perm_tuples=fan.perm_tuples[:-1]), False, None),
        (dataclasses.replace(fan, maxcones=tuple(fan.maxcones) + fan.maxcones[:1], perm_tuples=tuple(fan.perm_tuples) + fan.perm_tuples[:1]), False, None),
        (dataclasses.replace(other, maxcones=fan.maxcones, perm_tuples=fan.perm_tuples), False, None),
        (ray_faulted(flipped, random.Random(3), "flip", renumber=True), False, None),
    ]
    for case, joined, equal in cases:
        assert case.is_join == joined
        if equal is None:
            want = (reference_is_complete_simplicial(case), reference_verify_bundle_join(case))
        else:
            assert case == equal
            assert verify_oracle(case, t) == verify_oracle(equal, t)
            want = (is_complete_simplicial(equal), verify_bundle_join(equal))
        paths.clear()
        assert (is_complete_simplicial(case), verify_bundle_join(case)) == want
        assert paths == ["flip" if joined else "census"] + bundle_paths(case)
        assert bundle_paths(case) == (["lifts"] * 2 if joined else ["sets", "lifts"] * 2)


def materialised(fan: Fan) -> Fan:
    """fan with its cones and permutation tuples as tuples: equal, not a join."""
    return dataclasses.replace(fan, maxcones=tuple(fan.maxcones), perm_tuples=tuple(fan.perm_tuples))


def test_a_joins_cones_are_visited_in_sorted_order_without_a_sort():
    # on the goldens and the population towers with at most 576 cones, each
    # level's plan visits its tails in sorted order, forming each node of
    # their prefix trie once, so that the walk down the levels, root first,
    # visits the cones in sorted order, with their indices; it gives the
    # determinants of the materialised copy, which is not a join and sorts.
    # So it does with a ray scaled, for determinants +-2 or 3, or copied,
    # for singular heads and cones: without renumbering, still a join
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS]
    towers = [t for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(towers) == 2 + 89
    seen = set()
    for seed, t in enumerate(towers):
        fan = build_fan(t)
        levels, level = [], fan.maxcones
        while isinstance(level, _Join):
            levels.insert(0, level.tails)
            level = level.heads
        visits = [0]
        for tails in (level, *levels):
            plan = fans._plan(tails)
            assert [ti for *_, ti in plan] == sorted(range(len(tails)), key=tails.__getitem__)
            assert sum(len(suffix) for _, suffix, _ in plan) == len({t[:k] for t in tails for k in range(1, len(t) + 1)})
            visits = [base * len(tails) + ti for base in visits for *_, ti in plan]
        assert visits == sorted(range(len(fan.maxcones)), key=fan.maxcones.__getitem__)
        for case in (fan, *(ray_faulted(fan, random.Random(seed), kind, False) for kind in ("scale", "copy"))):
            copied = materialised(case)
            assert case.is_join and not copied.is_join
            assert case.cone_dets == copied.cone_dets
            seen.update(map(abs, case.cone_dets))
    assert {0, 1, 2, 3} <= seen


def doctored(fan: Fan, stages: int, change) -> Fan:
    """fan with the tails of its join's level of the first `stages` stages
    replaced by change(tails), each level above joined again on it with its
    own tails, dims and permutation tuples, so that the fan is still a join."""
    above, level = [], fan.maxcones
    while len(level.dims) > stages:
        above.append(level)
        level = level.heads
    joined = _Join(level.heads, change(level.tails), level.dims, level.perm_tuples)
    for outer in reversed(above):
        joined = _Join(joined, outer.tails, outer.dims, outer.perm_tuples)
    return dataclasses.replace(fan, maxcones=joined)


def test_a_doctored_join_raises_its_materialised_copys_message():
    # (2,2,1): stage 1 has rays 0..5, stage 2 rays 6..11, stage 3 rays 12
    # and 13.  Each level's tails are checked once, and a join that fails
    # is checked cone by cone, so it names the copy's first bad cone
    fan = build_fan(three_stage_tower())
    assert fan.maxcones.heads.tails[1] == (7, 11)
    cases = {
        "out of order": (2, lambda tails: tails[:1] + ((11, 7),) + tails[2:]),
        "out of order: (": (1, lambda tails: (tails[0][::-1],) + tails[1:]),
        "out of order: (3": (2, lambda tails: ((3, 11),) + tails[1:]),
        "outside 0..13": (3, lambda tails: tails[:1] + ((14,),)),
        "outside 0..13: (-": (1, lambda tails: ((-1, 5),) + tails[1:]),
        "has 4 rays": (3, lambda tails: ((),) + tails[1:]),
    }
    for text, (stages, change) in cases.items():
        case = doctored(fan, stages, change)
        assert case.is_join
        with pytest.raises(ValueError) as want:
            materialised(case).cone_dets
        assert text in str(want.value)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            case.cone_dets
    # a tail that starts at the level before's largest index repeats a ray
    # only in the cones whose head ends there, each of determinant 0
    case = doctored(fan, 2, lambda tails: ((5, 11),) + tails[1:])
    assert case.is_join and 0 in case.cone_dets
    assert case.cone_dets == materialised(case).cone_dets


def test_cone_dets_of_a_join_form_no_cone(monkeypatch):
    # the checks and the walk read each level's tails, so a join's
    # determinants come with its entries refused
    fan = build_fan(three_stage_tower())
    want = materialised(fan).cone_dets

    def refuse(*args):
        raise AssertionError("cone_dets formed a cone of a join")

    monkeypatch.setattr(_Join, "__getitem__", refuse)
    monkeypatch.setattr(_Join, "__iter__", refuse)
    assert fan.is_join and fan.cone_dets == want


def test_heads_with_equal_reduced_rows_and_different_divisors_walk_apart():
    # (2,2): stage 1's heads, in the walk's order, are (0,2), (0,4), (1,2),
    # (1,5), (3,4), (3,5).  Ray 0 is 0 and ray 2 twice ray 1, so the first
    # three are singular and (1,5) and then (3,4) are the first heads walked.
    # Each reduces a later row (x, y, 2x, y) to [2x, y], but (1,5) = (e0,
    # e1) from divisor 1 and (3,4) from divisor 2, so the cones over (3,4)
    # have half the determinants of those over (1,5): a slot keyed on the
    # reduced rows alone would copy the wrong block
    dims = (2, 2)
    stage1 = [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1), (0, 1, 0, 0)]
    stage2 = [(x, y, 2 * x, y) for x, y in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))]
    fan = Fan(dims, tuple(map(Ray, ray_labels(dims), stage1 + stage2)), *stage_join(dims, 36))
    heads = fan.maxcones.heads
    assert fan.is_join and sorted(heads)[3:5] == [(1, 5), (3, 4)]
    want = tuple(_det_rows([list(fan.rays[r].vector) for r in cone]) for cone in fan.maxcones)
    assert fan.cone_dets == want
    tails = len(fan.maxcones.tails)
    over = {head: want[i * tails : i * tails + tails] for i, head in enumerate(heads)}
    assert any(over[3, 4]) and over[1, 5] == tuple(2 * d for d in over[3, 4])


def test_the_walk_reduces_each_distinct_head_once(tmp_path):
    # on seed-1 fans, whose later stages' rays vanish on the earlier blocks,
    # heads of one divisor reduce the later rows alike, so each level walks
    # few heads: 1170 and 7484 reductions, where a walk of every head took
    # 32818 and 807759, and one without positive pivots 27546 and 650609
    calls = []
    run = fans._reduce
    for dims, bound in (((3, 3, 3), 2500), ((4, 4, 3), 15000)):
        _, fan = seeded_fan(tmp_path, dims)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fans, "_reduce", lambda *args: calls.append(1) or run(*args))
            dets = fan.cone_dets
        assert set(dets) == {1, -1}
        assert len(calls) < bound


def test_the_walks_memory_stays_bounded_where_no_head_repeats():
    # (3,3,3) with ray entries drawn in [-5, 5]: no two heads reduce the
    # later rows alike, so every head is walked.  The walk before the slot
    # peaked at 690 839 bytes here, building the fan included (tracemalloc,
    # Python 3.11); the slot holds one head's reduced rows per level, 17 024
    # bytes more, where a memo of every head would hold all 576 of the last
    # level's
    dims = (3, 3, 3)
    rng = random.Random(0)
    rays = tuple(Ray(label, tuple(rng.randint(-5, 5) for _ in range(sum(dims)))) for label in ray_labels(dims))
    dets, peak = traced_peak(lambda: Fan(dims, rays, *stage_join(dims, 13824)).cone_dets)
    calls = []
    run = fans._reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fans, "_reduce", lambda *args: calls.append(1) or run(*args))
        assert Fan(dims, rays, *stage_join(dims, 13824)).cone_dets == dets
    assert len(calls) == 32818 and 0 not in dets
    assert peak < 690_839 + 65_536


def test_a_join_base_that_repeats_a_ray_lifts_as_before():
    # doctored (2,2,1) joins whose level of two stages repeats a ray, lists
    # a tail out of order or reaches below the level before: each split's
    # lifts report as on the materialised base, which is not a join, so
    # that a repeated ray is a lift with too few rays, not determinant 0
    t = three_stage_tower()
    fan = build_fan(t)
    cases = [
        (2, lambda tails: ((5, 11),) + tails[1:]),
        (2, lambda tails: tails[:1] + ((11, 7),) + tails[2:]),
        (2, lambda tails: ((3, 11),) + tails[1:]),
        (1, lambda tails: (tails[0][::-1],) + tails[1:]),
    ]
    details = set()
    for stages, change in cases:
        case = doctored(fan, stages, change)
        want = BundleJoinReport()
        for m in (3, 2):
            fancheck._check_lifts(materialised(project_fan(case, m - 1)), want)
        assert verify_bundle_join(case).defects == want.defects
        details.update(d.detail.split(")) ")[-1] for d in want.defects)
    assert "has 3 rays" in details


def test_lift_pass_equals_the_reference_where_lifts_share_heads(tmp_path):
    # the split at 3 of the seed-1 (3,3,3) fan reads 576 lifts off the
    # projected join's level walk, and on a renumbered fan in one
    # prefix-shared pass; a scaled ray gives lift determinants +-2, and a
    # copied ray, on a renumbered fan, singular prefixes of determinant 0
    _, fan = seeded_fan(tmp_path, (3, 3, 3))
    assert len(project_fan(fan, 2).maxcones) == 576
    assert verify_bundle_join(fan) == reference_verify_bundle_join(fan) == BundleJoinReport([3, 2], [])
    details = set()
    for kind, renumber, seed in (("scale", False, 1), ("copy", True, 2)):
        case = ray_faulted(fan, random.Random(seed), kind, renumber)
        report = verify_bundle_join(case)
        assert report == reference_verify_bundle_join(case)
        details.update(d.detail.split(" projects ")[-1] for d in report.defects if d.kind == "lift_degenerate")
    assert {"with determinant 0", "with determinant 2"} <= details


def test_full_pipeline_on_random_towers():
    for seed in range(6):
        t = random_tower(seed)
        fan = build_fan(t)
        assert is_smooth(fan).ok
        assert is_complete_simplicial(fan).ok
        assert verify_bundle_join(fan).ok
        for stages in range(1, t.m + 1):
            assert project_fan(fan, stages) == build_fan(truncated(t, stages))
