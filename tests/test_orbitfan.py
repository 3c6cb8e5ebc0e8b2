"""Orbit-closure fan: ray formula, cone enumeration, weights, and the oracle."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from conftest import random_tower, three_stage_tower, two_stage_tower
from flagbott import orbitfan
from flagbott.exactlin import IntMatrix, identity, mat_mul
from flagbott.fans import RayLabel, Subset
from flagbott.orbitfan import (
    EnumerationTooLarge,
    OracleFailure,
    all_rays,
    build_fan,
    chain_tuple_of_perm_tuple,
    derive_rays_from_weights,
    maximal_cone,
    perm_tuple_of_chain_tuple,
    ray_generator,
    verify_pairing_identity,
    weights_at,
    witness_perm_tuple,
    x_matrix,
)
from flagbott.permfan import perm_fan, proper_subsets
from flagbott.tower import FlagBottTower


def sub(ground: int, *members: int) -> Subset:
    return Subset.of(ground, members)


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
        frozenset((lbl.stage, lbl.subset.members()) for lbl in fan.cone_labels(i))
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


def test_single_stage_fan_is_permutohedral():
    for n in (1, 2, 3):
        t = FlagBottTower((n,), {})
        assert build_fan(t) == perm_fan(n)


def test_cones_contain_their_stage_rays():
    t = two_stage_tower()
    fan = build_fan(t)
    for i, v in enumerate(fan.perm_tuples):
        expect = maximal_cone(t, chain_tuple_of_perm_tuple(v))
        assert fan.cone_labels(i) == expect


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
    ws = weights_at(t, ((1, 2, 3), (1, 2)))
    assert ws.weight(1, 1) == (-1, 1, 0)
    assert ws.weight(1, 2) == (0, -1, 0)
    assert ws.weight(2, 1) == (-1, -2, -1)
    assert list(dict(ws.items())) == [(1, 1), (1, 2), (2, 1)]
    with pytest.raises(IndexError):
        ws.weight(1, 3)
    with pytest.raises(IndexError):
        ws.weight(3, 1)


def test_weights_pair_with_cone_rays_as_dual_basis():
    # weight matrix times ray-column matrix is the identity on each cone
    for t in (two_stage_tower(), three_stage_tower()):
        fan = build_fan(t)
        for i, v in enumerate(fan.perm_tuples):
            if i % 7:
                continue  # thinned; the acceptance suite covers every cone
            w = weights_at(t, v).matrix()
            cols = IntMatrix.from_cols(
                [fan.rays[r].vector for r in fan.maxcones[i]]
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
    with pytest.raises(ValueError):
        weights_at(t, ((1, 2, 3),))  # wrong arity
    with pytest.raises(ValueError):
        derive_rays_from_weights(t, ((1, 2, 3), (2, 2)))


def test_witness_perm_tuple_layout():
    t = three_stage_tower()
    v = witness_perm_tuple(t, 2, sub(3, 1, 3))
    assert v == ((1, 2, 3), (2, 1, 3), (1, 2))
    with pytest.raises(ValueError):
        witness_perm_tuple(t, 4, sub(3, 1))
    with pytest.raises(ValueError):
        witness_perm_tuple(t, 1, sub(4, 1))


def test_witness_cone_contains_its_ray():
    t = three_stage_tower()
    for ell, n_ell in enumerate(t.dims, start=1):
        for s in proper_subsets(n_ell + 1):
            v = witness_perm_tuple(t, ell, s)
            chain = chain_tuple_of_perm_tuple(v)[ell - 1]
            assert s in set(chain)


def test_oracle_rejects_doubled_weight(monkeypatch):
    t = two_stage_tower()
    true_weights_at = orbitfan.weights_at

    def doubled(t, v):
        ws = true_weights_at(t, v)
        return dataclasses.replace(ws, weights=(tuple(2 * c for c in ws.weights[0]),) + ws.weights[1:])

    v = ((1, 2, 3), (1, 2))
    derive_rays_from_weights(t, v)
    monkeypatch.setattr(orbitfan, "weights_at", doubled)
    with pytest.raises(OracleFailure, match="determinant"):
        derive_rays_from_weights(t, v)


def test_pairing_identity_on_goldens():
    for t in (two_stage_tower(), three_stage_tower()):
        report = verify_pairing_identity(t)
        assert report.ok
        assert report.rays_checked == len(all_rays(t))
        assert report.pairings_checked == report.rays_checked * t.n


def test_pairing_identity_with_nonzero_last_rows():
    # entries in the last row and column exercise the kernel normalization
    t = FlagBottTower(
        (3, 1),
        {(2, 1): IntMatrix.from_rows([[1, 0, -4, 2], [-3, 3, 1, -3]])},
    )
    report = verify_pairing_identity(t)
    assert report.ok
    fan = build_fan(t)
    for i, v in enumerate(fan.perm_tuples):
        formula = {fan.rays[r].vector for r in fan.maxcones[i]}
        assert derive_rays_from_weights(t, v) == formula


def test_pairing_identity_random_towers():
    for seed in range(40):
        assert verify_pairing_identity(random_tower(seed)).ok
