"""Permutohedral fan: rays, chains, permutations, and full fan structure."""

from __future__ import annotations

import itertools
import math

import pytest

from conftest import chain_of_permutation, cone_labels, permutation_of_chain, ray_index, subset
from flagbott import permfan
from flagbott.fans import RayLabel, permutation_chains
from flagbott.permfan import (
    Subset,
    check_permutation,
    perm_fan,
    perm_ray_vector,
    proper_subsets,
)
from flagbott.tower import EnumerationTooLarge


def test_subset_basics():
    s = subset(4, [1, 3])
    assert s.members() == (1, 3)
    assert 1 in s and 2 not in s and 3 in s
    assert len(s) == 2
    assert s.complement() == subset(4, [2, 4])
    assert s.is_proper_nonempty()
    assert not subset(3, []).is_proper_nonempty()
    assert not subset(3, [1, 2, 3]).is_proper_nonempty()
    assert str(s) == "{1,3}"


def test_subset_rejects_out_of_ground():
    with pytest.raises(ValueError):
        Subset(0, 0)
    with pytest.raises(ValueError):
        Subset(3, 0b1000)
    with pytest.raises(ValueError):
        Subset(3, -1)


def test_proper_subsets_count_and_order():
    subs = list(proper_subsets(3))
    assert len(subs) == 6
    masks = [s.mask for s in subs]
    assert masks == sorted(masks)
    assert all(s.is_proper_nonempty() for s in subs)


def test_permutation_checks():
    check_permutation((2, 1, 3))
    with pytest.raises(ValueError):
        check_permutation((1, 1, 3))
    with pytest.raises(ValueError):
        check_permutation((0, 1, 2))


def test_perm_ray_vector_figure_values():
    n = 2
    cases = {
        (1,): (1, 0),
        (2,): (0, 1),
        (3,): (-1, -1),
        (1, 2): (1, 1),
        (2, 3): (-1, 0),
        (1, 3): (0, -1),
    }
    for members, vec in cases.items():
        assert perm_ray_vector(n, subset(n + 1, members)) == vec


def test_perm_ray_vector_rejects_bad_labels():
    with pytest.raises(ValueError, match=r"^subset \{\} must be nonempty and proper$"):
        perm_ray_vector(2, subset(3, []))
    with pytest.raises(ValueError, match=r"^subset \{1,2,3\} must be nonempty and proper$"):
        perm_ray_vector(2, subset(3, [1, 2, 3]))
    with pytest.raises(ValueError, match=r"^subset ground 4, expected 3$"):
        perm_ray_vector(2, subset(4, [1]))


def test_chain_permutation_bijection():
    for n in range(1, 5):
        seen = set()
        for v in itertools.permutations(range(1, n + 2)):
            c = chain_of_permutation(v)
            assert permutation_of_chain(c) == v
            seen.add(c)
        assert len(seen) == math.factorial(n + 1)


def test_permutation_chains_are_growing_masks():
    # chain p of v is the mask of v's last p values; stage_join numbers the rays
    for n in range(1, 5):
        perms, chains = permutation_chains(n)
        assert perms == list(itertools.permutations(range(1, n + 2)))
        assert len(chains) == len(perms)
        for v, masks in zip(perms, chains):
            assert masks == tuple(s.mask for s in chain_of_permutation(v))


def test_chain_of_permutation_example():
    # v = (3, 1, 2): S_1 = {2}, S_2 = {1, 2}
    c = chain_of_permutation((3, 1, 2))
    assert [s.members() for s in c] == [(2,), (1, 2)]


def test_perm_fan_counts():
    for n in range(1, 5):
        fan = perm_fan(n)
        assert len(fan.rays) == 2 ** (n + 1) - 2
        assert len(fan.maxcones) == math.factorial(n + 1)
        assert fan.dims == (n,)
        assert fan.n == n
        for cone in fan.maxcones:
            assert len(cone) == n
            assert list(cone) == sorted(cone)


def test_perm_fan_rejects_nonpositive():
    with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
        perm_fan(0)


def test_perm_fan_is_bounded_by_the_cone_cap(monkeypatch):
    # (n+1)! cones over the cap are refused before any ray is formed
    monkeypatch.setattr(permfan, "DEFAULT_CONE_CAP", 6)
    assert len(perm_fan(2).maxcones) == 6
    monkeypatch.setattr(permfan, "DEFAULT_CONE_CAP", 5)
    monkeypatch.setattr(permfan, "perm_ray_vector", lambda n, s: pytest.fail("a ray was formed"))
    with pytest.raises(EnumerationTooLarge, match="^fan has at least 6 maximal cones, over the cap of 5$"):
        perm_fan(2)


def test_perm_fan_n2_matches_figure():
    fan = perm_fan(2)
    by_label = {fan.rays[i].label.subset.members(): fan.rays[i].vector for i in range(6)}
    assert by_label == {
        (1,): (1, 0),
        (2,): (0, 1),
        (3,): (-1, -1),
        (1, 2): (1, 1),
        (1, 3): (0, -1),
        (2, 3): (-1, 0),
    }
    cones = {
        frozenset(lbl.subset.members() for lbl in cone_labels(fan, i))
        for i in range(len(fan.maxcones))
    }
    assert cones == {
        frozenset({(1,), (1, 2)}),
        frozenset({(2,), (1, 2)}),
        frozenset({(2,), (2, 3)}),
        frozenset({(3,), (2, 3)}),
        frozenset({(3,), (1, 3)}),
        frozenset({(1,), (1, 3)}),
    }


def test_perm_fan_cone_matches_its_chain():
    fan = perm_fan(3)
    for i, perm in enumerate(fan.perm_tuples):
        chain = chain_of_permutation(perm[0])
        expect = {RayLabel(1, s) for s in chain}
        assert cone_labels(fan, i) == expect


def test_ray_index_lookup():
    # perm_fan forms its cones from subset masks: the ray of mask s is ray s - 1
    for n in range(1, 5):
        fan = perm_fan(n)
        for i, ray in enumerate(fan.rays):
            assert ray_index(fan)[ray.label] == i == ray.label.subset.mask - 1
