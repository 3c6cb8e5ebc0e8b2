"""Orbit-closure fan: ray formula, cone enumeration, weights, and the oracle."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import tracemalloc
from math import factorial, prod

import pytest

from conftest import (
    POPULATION_SEEDS,
    RAY_FAULTS,
    chain_tuple_of_perm_tuple,
    cone_labels,
    identity,
    maximal_cone,
    perm_tuple_of_chain_tuple,
    proper_subsets,
    random_tower,
    ray_faulted,
    ray_index,
    reference_oracle,
    reference_pairing_identity,
    seeded_doc,
    subset,
    three_stage_tower,
    two_stage_tower,
    x_matrix,
    x_matrix_chain_sum,
)
from flagbott import orbitfan
from flagbott.exactlin import IntMatrix, NotUnimodular, mat_mul
from flagbott.fans import Fan, Ray, RayLabel, Subset
from flagbott.orbitfan import (
    ORACLE_SHOWN,
    OracleReport,
    all_rays,
    build_fan,
    derive_rays_from_weights,
    ray_generator,
    verify_oracle,
    verify_pairing_identity,
    weights_at,
)
from flagbott.permfan import perm_fan
from flagbott.tower import EnumerationTooLarge, FlagBottTower


def sub(ground: int, *members: int) -> Subset:
    return subset(ground, members)


def seeded_tower(dims: tuple[int, ...]) -> FlagBottTower:
    """The benchmark's seed-1 tower of the given dims."""
    twists = seeded_doc(dims, 1)["A"]
    return FlagBottTower(dims, {tuple(map(int, key.split(","))): IntMatrix.from_rows(rows) for key, rows in twists.items()})


TWO_STAGE_RAYS = {
    (1, (1,)): (1, 0, 0),
    (1, (2,)): (0, 1, 0),
    (1, (3,)): (-1, -1, 3),
    (1, (1, 2)): (1, 1, -2),
    (1, (1, 3)): (0, -1, 1),
    (1, (2, 3)): (-1, 0, 1),
    (2, (1,)): (0, 0, 1),
    (2, (2,)): (0, 0, -1),
}

THREE_STAGE_RAYS = {
    (1, (1,)): (1, 0, 0, 0, 0),
    (1, (2,)): (0, 1, 0, 0, 0),
    (1, (3,)): (-1, -1, 3, 7, 11),
    (1, (1, 2)): (1, 1, -2, -4, -6),
    (1, (2, 3)): (-1, 0, 1, 3, 5),
    (1, (1, 3)): (0, -1, 1, 3, 5),
    (2, (1,)): (0, 0, 1, 0, 0),
    (2, (2,)): (0, 0, 0, 1, 0),
    (2, (3,)): (0, 0, -1, -1, 15),
    (2, (1, 2)): (0, 0, 1, 1, -8),
    (2, (2, 3)): (0, 0, -1, 0, 7),
    (2, (1, 3)): (0, 0, 0, -1, 7),
    (3, (1,)): (0, 0, 0, 0, 1),
    (3, (2,)): (0, 0, 0, 0, -1),
}


def test_two_stage_ray_vectors():
    t = two_stage_tower()
    for (ell, members), vec in TWO_STAGE_RAYS.items():
        ground = t.dims[ell - 1] + 1
        assert ray_generator(t, ell, sub(ground, *members)) == vec


def test_three_stage_ray_vectors():
    t = three_stage_tower()
    for (ell, members), vec in THREE_STAGE_RAYS.items():
        ground = t.dims[ell - 1] + 1
        assert ray_generator(t, ell, sub(ground, *members)) == vec


def test_ray_generator_rejects_bad_labels():
    t = two_stage_tower()
    with pytest.raises(ValueError):
        ray_generator(t, 0, sub(3, 1))
    with pytest.raises(ValueError):
        ray_generator(t, 3, sub(3, 1))
    with pytest.raises(ValueError):
        ray_generator(t, 1, sub(2, 1))  # wrong ground for stage 1
    with pytest.raises(ValueError):
        ray_generator(t, 1, sub(3))  # empty
    with pytest.raises(ValueError):
        ray_generator(t, 1, sub(3, 1, 2, 3))  # full


def test_ray_generator_normalizes_kernel_directions():
    # nonzero last row in the twist matrix: the raw block coefficients pick
    # up a component along the trivially acting directions, which must be
    # removed before dropping the last coordinates
    t = FlagBottTower((1, 1), {(2, 1): IntMatrix.from_rows([[0, 1], [1, 2]])})
    assert ray_generator(t, 1, sub(2, 1)) == (1, 1)
    # and the oracle agrees cone by cone
    for v in itertools.product(
        itertools.permutations((1, 2)), itertools.permutations((1, 2))
    ):
        got = {
            ray_generator(t, ell, s)
            for ell, vp in enumerate(v, start=1)
            for s in chain_tuple_of_perm_tuple(v)[ell - 1]
        }
        assert got == derive_rays_from_weights(t, v)


def test_all_rays_counts_and_order():
    t = three_stage_tower()
    rays = all_rays(t)
    assert len(rays) == 14
    labels = [(r.label.stage, r.label.subset.mask) for r in rays]
    assert labels == sorted(labels)
    for r in rays:
        key = (r.label.stage, r.label.subset.members())
        assert r.vector == THREE_STAGE_RAYS[key]


def test_all_rays_rejects_invalid_tower():
    with pytest.raises(ValueError):
        all_rays(FlagBottTower((1, 1), {}))


def test_chain_tuple_round_trip():
    v = ((2, 3, 1), (1, 2), (2, 1, 3))
    assert perm_tuple_of_chain_tuple(chain_tuple_of_perm_tuple(v)) == v


def test_maximal_cone_labels():
    t = two_stage_tower()
    v = ((3, 1, 2), (2, 1))
    cone = maximal_cone(t, chain_tuple_of_perm_tuple(v))
    assert cone == frozenset(
        {
            RayLabel(1, sub(3, 2)),
            RayLabel(1, sub(3, 1, 2)),
            RayLabel(2, sub(2, 1)),
        }
    )
    with pytest.raises(ValueError):
        maximal_cone(t, chain_tuple_of_perm_tuple(v)[:1])
    with pytest.raises(ValueError):
        maximal_cone(t, chain_tuple_of_perm_tuple(((2, 1), (1, 2, 3))))


def test_build_fan_two_stage():
    t = two_stage_tower()
    fan = build_fan(t)
    assert len(fan.rays) == 8
    assert len(fan.maxcones) == 12
    assert fan.n == 3
    # the twelve cones as label sets, straight from the printed list
    printed = {
        frozenset({(1, s1), (1, s2), (2, s3)})
        for (s1, s2) in [
            ((1,), (1, 2)),
            ((1,), (1, 3)),
            ((2,), (1, 2)),
            ((2,), (2, 3)),
            ((3,), (1, 3)),
            ((3,), (2, 3)),
        ]
        for s3 in [(1,), (2,)]
    }
    built = {
        frozenset((lbl.stage, lbl.subset.members()) for lbl in cone_labels(fan, i))
        for i in range(len(fan.maxcones))
    }
    assert built == printed


def test_build_fan_three_stage_counts():
    fan = build_fan(three_stage_tower())
    assert len(fan.rays) == 14
    assert len(fan.maxcones) == 3 * 2 * 1 * 3 * 2 * 1 * 2
    assert fan.perm_tuples == tuple(
        itertools.product(
            itertools.permutations((1, 2, 3)),
            itertools.permutations((1, 2, 3)),
            itertools.permutations((1, 2)),
        )
    )


def test_build_fan_cone_cap():
    t = three_stage_tower()
    with pytest.raises(EnumerationTooLarge) as info:
        build_fan(t, cone_cap=71)
    assert info.value.count == 72
    assert info.value.cap == 71
    build_fan(t, cone_cap=72)


def test_build_fan_cone_cap_huge_dimension():
    # (10**9 + 1)! cones: counting stops at 10!, the first factorial over 10**6
    t = FlagBottTower((10**9,), {})
    with pytest.raises(EnumerationTooLarge) as info:
        build_fan(t)
    assert info.value.count == 3628800
    assert str(info.value) == "fan has at least 3628800 maximal cones, over the cap of 1000000"


def test_single_stage_fan_is_permutohedral():
    for n in (1, 2, 3):
        t = FlagBottTower((n,), {})
        assert build_fan(t) == perm_fan(n)


def test_cones_contain_their_stage_rays():
    t = two_stage_tower()
    fan = build_fan(t)
    for i, v in enumerate(fan.perm_tuples):
        expect = maximal_cone(t, chain_tuple_of_perm_tuple(v))
        assert cone_labels(fan, i) == expect


def test_x_matrix_identity_perms_is_plain_twist():
    t = three_stage_tower()
    v = ((1, 2, 3), (1, 2, 3), (1, 2))
    assert x_matrix(t, v, 2, 1) == t.twist(2, 1)
    # one intermediate stage: A(3,1) + A(3,2) A(2,1)
    expect = IntMatrix.from_rows(
        [
            [5 + 7 * 1 + 8 * 3, 6 + 7 * 2 + 8 * 4, 0],
            [0, 0, 0],
        ]
    )
    assert x_matrix(t, v, 3, 1) == expect


def test_x_matrix_matches_chain_sum():
    # at the identity tuple every B_p is the identity; the random tuples
    # exercise the row and column reindexing
    for seed in range(20):
        t = random_tower(seed, max_stages=4, max_dim=2)
        rng = random.Random(seed)
        tuples = [tuple(tuple(range(1, n + 2)) for n in t.dims)]
        for _ in range(25):
            tuples.append(tuple(tuple(rng.sample(range(1, n + 2), n + 1)) for n in t.dims))
        for v in tuples:
            for j in range(2, t.m + 1):
                for ell in range(1, j):
                    assert x_matrix(t, v, j, ell) == x_matrix_chain_sum(t, v, j, ell)


def test_x_matrix_permuted_rows():
    # permuting stage j permutes the rows of every X_(j, ell)
    t = three_stage_tower()
    base = ((1, 2, 3), (1, 2, 3), (1, 2))
    swapped = ((1, 2, 3), (2, 1, 3), (1, 2))
    x0 = x_matrix(t, base, 2, 1)
    x1 = x_matrix(t, swapped, 2, 1)
    assert x1.row(0) == x0.row(1)
    assert x1.row(1) == x0.row(0)
    assert x1.row(2) == x0.row(2)


def test_weights_at_identity_two_stage():
    t = two_stage_tower()
    # stage-major: weights (1, 1), (1, 2), (2, 1)
    assert weights_at(t, ((1, 2, 3), (1, 2))) == ((-1, 1, 0), (0, -1, 0), (-1, -2, -1))


def test_weights_pair_with_cone_rays_as_dual_basis():
    # weight matrix times ray-column matrix is the identity on each cone
    for t in (two_stage_tower(), three_stage_tower()):
        fan = build_fan(t)
        for i, v in enumerate(fan.perm_tuples):
            if i % 7:
                continue  # thinned; the acceptance suite covers every cone
            w = IntMatrix.from_rows(weights_at(t, v))
            cols = IntMatrix.from_rows(
                list(zip(*(fan.rays[r].vector for r in fan.maxcones[i])))
            )
            prod = mat_mul(w, cols)
            assert sorted(prod.col(k) for k in range(prod.cols)) == sorted(
                identity(fan.n).col(k) for k in range(fan.n)
            )


def test_derive_rays_matches_formula_on_goldens():
    for t in (two_stage_tower(), three_stage_tower()):
        fan = build_fan(t)
        for i, v in enumerate(fan.perm_tuples):
            formula = {fan.rays[r].vector for r in fan.maxcones[i]}
            assert derive_rays_from_weights(t, v) == formula


def test_weights_reject_bad_perm_tuples():
    t = two_stage_tower()
    with pytest.raises(ValueError, match=r"^need one permutation per stage \(2\), got 1$"):
        weights_at(t, ((1, 2, 3),))  # wrong arity
    with pytest.raises(ValueError, match=r"^\(2, 2\) is not a permutation of 1\.\.2$"):
        derive_rays_from_weights(t, ((1, 2, 3), (2, 2)))
    # entries equal to 1..n but not ints are refused with the same message;
    # a permutation given as a list is taken as its tuple
    cube = seeded_tower((3, 3, 3))
    ids = ((1, 2, 3, 4),) * 3
    for bad in ((1.0, 2, 3, 4), (True, 2, 3, 4)):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))} is not a permutation of 1\.\.4$"):
            weights_at(cube, ids[:2] + (bad,))
    assert weights_at(cube, [[2, 1, 3, 4], [1, 3, 2, 4], [4, 3, 2, 1]]) == weights_at(cube, ((2, 1, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1)))


def test_witness_perm_tuple_layout():
    t = three_stage_tower()
    v = orbitfan._witness(t, 2, sub(3, 1, 3))
    assert v == ((1, 2, 3), (2, 1, 3), (1, 2))


def test_witness_cone_contains_its_ray():
    t = three_stage_tower()
    for ell, n_ell in enumerate(t.dims, start=1):
        for s in proper_subsets(n_ell + 1):
            v = orbitfan._witness(t, ell, s)
            chain = chain_tuple_of_perm_tuple(v)[ell - 1]
            assert s in set(chain)


def test_oracle_rejects_doubled_weight(monkeypatch):
    t = two_stage_tower()
    true_weights_at = orbitfan.weights_at

    def doubled(t, v):
        ws = true_weights_at(t, v)
        return (tuple(2 * c for c in ws[0]),) + ws[1:]

    v = ((1, 2, 3), (1, 2))
    derive_rays_from_weights(t, v)
    monkeypatch.setattr(orbitfan, "weights_at", doubled)
    with pytest.raises(NotUnimodular, match="determinant") as caught:
        derive_rays_from_weights(t, v)
    assert caught.value.determinant in (2, -2)


def memoised_derive():
    """derive_rays_from_weights with its results kept, so that the
    reference decides many faulted fans of one tower at the cost of one."""
    seen = {}

    def derive(t, v):
        if v not in seen:
            try:
                seen[v] = derive_rays_from_weights(t, v)
            except NotUnimodular as e:
                seen[v] = e
        if isinstance(seen[v], NotUnimodular):
            raise seen[v]
        return seen[v]

    return derive


def test_verify_oracle_matches_per_cone_reference():
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS]
    towers = [t for t in towers if prod(factorial(d + 1) for d in t.dims) <= 576]
    assert len(towers) == 2 + 89
    rng = random.Random(7)
    disagreed = set()
    for t in towers:
        fan = build_fan(t)
        derive = memoised_derive()
        assert verify_oracle(fan, t) == reference_oracle(fan, t, derive) == OracleReport(len(fan.maxcones), 0, [])
        for kind in RAY_FAULTS:
            for renumber in (False, True):
                case = ray_faulted(fan, rng, kind, renumber)
                report = verify_oracle(case, t)
                assert report == reference_oracle(case, t, derive), (t.dims, kind, renumber)
                if not report.ok:
                    disagreed.add(kind)
    assert disagreed == set(RAY_FAULTS)


def holding(fan: Fan, *labels) -> list[int]:
    """The cones that hold every one of the labelled rays."""
    index = ray_index(fan)
    return [ci for ci, cone in enumerate(fan.maxcones) if all(index[lbl] in cone for lbl in labels)]


def with_vectors(fan: Fan, vectors: dict) -> Fan:
    """fan with the rays of the given labels set to the given vectors."""
    rays = tuple(Ray(ray.label, vectors.get(ray.label, ray.vector)) for ray in fan.rays)
    return dataclasses.replace(fan, rays=rays)


def disagreement(fan: Fan, cones) -> OracleReport:
    """The report of a fan on which exactly the given cones disagree."""
    return OracleReport(len(fan.maxcones), len(cones), sorted(cones)[:ORACLE_SHOWN])


def test_verify_oracle_diagonal_failure(monkeypatch):
    # a sign flip keeps (a) and (c), which are blind to the sign; only (b)
    # can fail, so the walk alone must find every cone holding the ray
    t = three_stage_tower()
    fan = build_fan(t)
    label = RayLabel(2, sub(3, 1, 3))
    u = fan.rays[ray_index(fan)[label]].vector
    flipped = with_vectors(fan, {label: tuple(-c for c in u)})
    monkeypatch.setattr(orbitfan, "weights_at", None)  # no cone is decided on its own
    report = verify_oracle(flipped, t)
    want = holding(fan, label)
    assert len(want) == 24
    assert report == disagreement(fan, want)
    monkeypatch.setattr(orbitfan, "_prefix_agrees", lambda *args: True)
    assert verify_oracle(flipped, t) == report


def test_verify_oracle_off_diagonal_failure(monkeypatch):
    # one coordinate of block 3 added to a stage-1 ray keeps (a) and (b);
    # (c) fails at every prefix that holds the ray, condemning its subtree
    t = three_stage_tower()
    fan = build_fan(t)
    label = RayLabel(1, sub(3, 2))
    u = fan.rays[ray_index(fan)[label]].vector
    monkeypatch.setattr(orbitfan, "weights_at", None)
    perturbed = with_vectors(fan, {label: u[:4] + (u[4] + 1,)})
    want = holding(fan, label)
    assert len(want) == 24
    assert verify_oracle(perturbed, t) == disagreement(fan, want)
    monkeypatch.setattr(orbitfan, "_prefix_agrees", lambda *args: True)
    assert verify_oracle(perturbed, t).ok


def test_verify_oracle_decides_broken_supports_cone_by_cone(monkeypatch):
    # swap a stage-1 and a stage-2 ray on a (2, 2) tower: the stage-2 label
    # now has a vector off block 1, which breaks (a); of the 20 cones
    # holding either ray, the 4 holding both still agree
    t = random_tower(9, max_stages=2, max_dim=2)
    assert t.dims == (2, 2)
    fan = build_fan(t)
    low, high = RayLabel(1, sub(3, 1)), RayLabel(2, sub(3, 2, 3))
    index = ray_index(fan)
    swapped = with_vectors(fan, {low: fan.rays[index[high]].vector, high: fan.rays[index[low]].vector})
    either = set(holding(fan, low)) | set(holding(fan, high))
    both = set(holding(fan, low, high))
    assert (len(either), len(both)) == (20, 4)
    calls = []
    true_weights_at = orbitfan.weights_at
    monkeypatch.setattr(orbitfan, "weights_at", lambda t, v: calls.append(v) or true_weights_at(t, v))
    report = verify_oracle(swapped, t)
    assert report == disagreement(fan, either - both)
    assert sorted(calls) == sorted(fan.perm_tuples[ci] for ci in holding(fan, high))
    assert report == reference_oracle(swapped, t)


def test_verify_oracle_never_reads_the_ray_formula(monkeypatch):
    t = three_stage_tower()
    fan = build_fan(t)

    def refuse(*args):
        raise AssertionError("the weight route read the ray formula")

    monkeypatch.setattr(orbitfan, "ray_generator", refuse)
    monkeypatch.setattr(orbitfan, "all_rays", refuse)
    assert verify_oracle(fan, t) == OracleReport(72, 0, [])


def test_the_oracles_memos_hit_and_stay_small(monkeypatch):
    # seed-1 (3,3,3) and (4,4,3): Z_(j,ell) is kept once per (j, ell,
    # prefix[ell:]), 1 + 1 + 24 and 1 + 1 + 120 entries, and (c) is decided
    # once per key of _prefix_agrees, 222 times over 600 prefixes and 1448
    # over 14520.  Keyed by the whole prefix, Z took 196 entries on
    # (3,3,3).  verify_oracle's peak read 0.15 and 0.80 MB (tracemalloc),
    # 0.05 and 0.17 MB without the memos
    for dims, prefixes, z_count, c_count in (((3, 3, 3), 600, 26, 222), ((4, 4, 3), 14520, 122, 1448)):
        t = seeded_tower(dims)
        fan = build_fan(t)
        tracemalloc.start()
        try:
            report = verify_oracle(fan, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == OracleReport(len(fan.maxcones), 0, [])
        assert peak < 2 * 2**20
        calls = []
        true_prefix_agrees = orbitfan._prefix_agrees
        monkeypatch.setattr(orbitfan, "_prefix_agrees", lambda *args: calls.append(args[3:]) or true_prefix_agrees(*args))
        assert verify_oracle(fan, t) == report
        zs, known = calls[0]
        assert len(calls) == prefixes and all(memos[0] is zs and memos[1] is known for memos in calls)
        assert (len(zs), len(known)) == (z_count, c_count)
        monkeypatch.undo()


def test_verify_oracle_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="dims"):
        verify_oracle(build_fan(two_stage_tower()), three_stage_tower())


def test_verify_oracle_rejects_cones_that_are_not_build_fans():
    t = two_stage_tower()
    fan = build_fan(t)
    cones, perms = list(fan.maxcones), list(fan.perm_tuples)
    cones[0], cones[5] = cones[5], cones[0]
    perms[0], perms[5] = perms[5], perms[0]
    last = len(fan.maxcones) - 1
    doctored = [
        (dataclasses.replace(fan, maxcones=tuple(cones)), 0),
        (dataclasses.replace(fan, perm_tuples=tuple(perms)), 0),
        (dataclasses.replace(fan, maxcones=fan.maxcones[:-1], perm_tuples=fan.perm_tuples[:-1]), last),
        (dataclasses.replace(fan, maxcones=fan.maxcones[:-1]), last),
        (dataclasses.replace(fan, maxcones=tuple(fan.maxcones) + fan.maxcones[:1]), last + 1),
    ]
    for case, ci in doctored:
        with pytest.raises(ValueError, match=f"^fan cone {ci} is not build_fan's"):
            verify_oracle(case, t)
    assert verify_oracle(fan, t).ok


def test_verify_oracle_rejects_a_fan_without_each_of_build_fans_labels_once():
    # a missing label, and a label repeated in place of (1, {1}), are
    # refused at cone 0, before any ray is looked up by label
    t = two_stage_tower()
    fan = build_fan(t)
    rays = list(fan.rays)
    rays[0] = Ray(RayLabel(1, sub(3, 1, 2)), rays[0].vector)
    for case in (dataclasses.replace(fan, rays=fan.rays[:-1]), dataclasses.replace(fan, rays=tuple(rays))):
        assert not case.is_join
        with pytest.raises(ValueError, match="^fan cone 0 is not build_fan's cone 0$"):
            verify_oracle(case, t)


def test_build_fans_fans_are_joins():
    towers = [two_stage_tower(), three_stage_tower()]
    towers += [random_tower(seed) for seed in POPULATION_SEEDS[:20]]
    for t in towers:
        fan = build_fan(t)
        assert fan.is_join
        # ray vectors are not part of the test
        assert ray_faulted(fan, random.Random(0), "flip", renumber=False).is_join
    for n in (1, 2, 3, 4):
        assert perm_fan(n).is_join


def test_verify_oracle_names_the_first_cone_off_build_fans_order():
    # with build_fan's ray labels, the oracle's label test names the first
    # cone whose rays or permutation tuple differ from build_fan's
    t = three_stage_tower()
    fan = build_fan(t)
    rng = random.Random(4)
    assert verify_oracle(fan, t).ok
    named = set()
    for _ in range(40):
        cones, perms = list(fan.maxcones), list(fan.perm_tuples)
        for faulted in rng.sample((cones, perms), rng.randint(1, 2)):
            c, d = rng.sample(range(72), 2)
            faulted[c], faulted[d] = faulted[d], faulted[c]
        case = dataclasses.replace(fan, maxcones=tuple(cones), perm_tuples=tuple(perms))
        ci = next(i for i, pair in enumerate(zip(cones, perms)) if pair != (fan.maxcones[i], fan.perm_tuples[i]))
        with pytest.raises(ValueError, match=f"^fan cone {ci} is not build_fan's cone {ci}$"):
            verify_oracle(case, t)
        named.add(ci)
    assert len(named) > 10


def test_pairing_identity_on_goldens():
    for t in (two_stage_tower(), three_stage_tower()):
        report = verify_pairing_identity(t)
        assert report.ok
        assert report.rays_checked == len(all_rays(t))
        assert report.pairings_checked == report.rays_checked * t.n


# entries in the last row and column exercise the kernel normalization
NONZERO_LAST_ROWS = FlagBottTower((3, 1), {(2, 1): IntMatrix.from_rows([[1, 0, -4, 2], [-3, 3, 1, -3]])})


def test_pairing_identity_with_nonzero_last_rows():
    t = NONZERO_LAST_ROWS
    report = verify_pairing_identity(t)
    assert report.ok
    fan = build_fan(t)
    for i, v in enumerate(fan.perm_tuples):
        formula = {fan.rays[r].vector for r in fan.maxcones[i]}
        assert derive_rays_from_weights(t, v) == formula


def test_pairing_identity_random_towers():
    for seed in range(40):
        assert verify_pairing_identity(random_tower(seed)).ok


def test_pairing_identity_equals_the_reference():
    towers = [two_stage_tower(), three_stage_tower(), NONZERO_LAST_ROWS]
    for t in towers + [random_tower(seed) for seed in POPULATION_SEEDS]:
        report = verify_pairing_identity(t)
        assert report == reference_pairing_identity(t)
        assert report.ok


@pytest.mark.parametrize("kind", ["bump", "negate", "swap_across"])
def test_pairing_identity_equals_the_reference_on_a_faulted_generator(kind, monkeypatch):
    # bump: +-1 on one entry of one ray; negate: one ray; swap_across: the
    # vectors of two rays of different stages
    towers = [two_stage_tower(), three_stage_tower(), NONZERO_LAST_ROWS]
    towers += [t for t in map(random_tower, POPULATION_SEEDS[:30]) if t.m > 1]
    for seed, t in enumerate(towers):
        rng = random.Random(seed)
        rays = {(ray.label.stage, ray.label.subset): ray.vector for ray in all_rays(t)}
        a = rng.choice(list(rays))
        faulty = dict(rays)
        if kind == "bump":
            k = rng.randrange(t.n)
            faulty[a] = tuple(c + rng.choice((-1, 1)) * (i == k) for i, c in enumerate(rays[a]))
        elif kind == "negate":
            faulty[a] = tuple(-c for c in rays[a])
        else:
            b = rng.choice([x for x in rays if x[0] != a[0]])
            faulty[a], faulty[b] = rays[b], rays[a]
        monkeypatch.setattr(orbitfan, "ray_generator", lambda t, ell, s: faulty[ell, s])
        report = verify_pairing_identity(t)
        assert report == reference_pairing_identity(t)
        assert not report.ok
        monkeypatch.undo()
