"""Property tests: the loader's error contract, the chain/permutation
bijection, the determinant and adjugate identities, the prefix-shared
determinants against Bareiss, the weight recurrence against its
chain-sum form, the pairing check against its chain-sum reference, the
paper's theorem on drawn towers, the prefix-tree oracle against the
per-cone one, the bitmask wall census against explicit wall normals,
the flip path and the lift check against the references on a fan with
a ray fault, the stage-by-stage cone join against whole tuples of stage
cones, and the export text against its cone-by-cone reference on drawn
cones."""

from __future__ import annotations

import dataclasses
import json
import random
from math import factorial, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import (  # noqa: E402
    RAY_FAULTS,
    bundle_paths,
    chain_of_permutation,
    permutation_of_chain,
    perturbed,
    ray_faulted,
    reference_format_fan,
    reference_is_complete_simplicial,
    reference_maxcones,
    reference_verify_bundle_join,
    reference_oracle,
    reference_pairing_identity,
    weights_chain_sum,
    x_matrix,
    x_matrix_chain_sum,
)
from flagbott.cli import SpecError, format_fan, load_tower  # noqa: E402
from flagbott.exactlin import IntMatrix, _det_rows, _dets, adjugate_det, det, mat_mul  # noqa: E402
from flagbott.fancheck import is_complete_simplicial, is_smooth, verify_bundle_join  # noqa: E402
from flagbott.orbitfan import (  # noqa: E402
    build_fan,
    derive_rays_from_weights,
    verify_oracle,
    verify_pairing_identity,
    weights_at,
)
from flagbott.tower import FlagBottTower, validate  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
# near-valid towers reach past the top-level checks into keys, matrices and shapes
entries = st.integers(-2, 2) | st.booleans() | st.just(1.5) | st.just("1")
matrices = st.lists(st.lists(entries, max_size=4), max_size=4) | json_values
keys = st.sampled_from(["2,1", "3,1", "3,2", "1,2", "2, 1", "02,1", "x"])
near_valid = st.fixed_dictionaries(
    {
        "dims": st.lists(st.integers(-1, 3) | st.booleans(), max_size=3),
        "A": st.dictionaries(keys, matrices, max_size=4),
    }
)
documents = (json_values | near_valid).map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=40)


@SETTINGS
@hypothesis.given(documents)
def test_load_tower_raises_only_spec_error(tmp_path, text):
    p = tmp_path / "tower.json"
    p.write_bytes(text)
    try:
        t = load_tower(str(p))
    except SpecError as e:
        assert str(e).startswith(str(p))
    else:
        assert validate(t) == []


@SETTINGS
@hypothesis.given(st.integers(2, 9).flatmap(lambda g: st.permutations(range(1, g + 1))))
def test_chain_permutation_round_trip(v):
    v = tuple(v)
    assert permutation_of_chain(chain_of_permutation(v)) == v


@st.composite
def square_pair(draw):
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
    return IntMatrix.from_rows(draw(square)), IntMatrix.from_rows(draw(square))


@SETTINGS
@hypothesis.given(square_pair())
def test_det_is_multiplicative(pair):
    a, b = pair
    assert det(mat_mul(a, b)) == det(a) * det(b)


@SETTINGS
@hypothesis.given(square_pair())
def test_adjugate_times_matrix_is_det_identity(pair):
    m, _ = pair
    adj, d = adjugate_det(m)
    hypothesis.assume(d != 0)
    n = m.rows
    assert mat_mul(adj, m) == IntMatrix.from_rows([[d if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def det_batches(draw):
    """Square matrices as index tuples into shared rows.  Each matrix
    extends one of a few drawn stems, so matrices in drawn, unsorted order
    share leading rows; indices repeat, a zero row is always there, and
    zero entries are common, so prefixes go singular and pivots move off
    the first column; other entries reach twist size."""
    n = draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 1, -1)) | st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=6))
    rows.append((0,) * n)
    index = st.integers(0, len(rows) - 1)
    stems = draw(st.lists(st.lists(index, max_size=n), min_size=1, max_size=3))
    matrix = st.sampled_from(stems).flatmap(
        lambda stem: st.lists(index, min_size=n - len(stem), max_size=n - len(stem)).map(
            lambda tail: tuple(stem + tail)
        )
    )
    return draw(st.lists(matrix, max_size=8)), rows


@SETTINGS
@hypothesis.given(det_batches())
@hypothesis.example(([], []))
@hypothesis.example(([()], []))
@hypothesis.example(([(0, 1, 2), (0, 1, 3), (0, 2, 1), (0, 1, 2)], [(0, 1, 2), (0, 3, 1), (4, 0, 0), (0, 0, 0)]))
def test_prefix_shared_dets_equal_bareiss(batch):
    matrices, rows = batch
    assert _dets(matrices, rows) == [_det_rows([list(rows[i]) for i in m]) for m in matrices]


@st.composite
def towers(draw, dims, bound: int):
    """A tower of drawn dims, with twist entries in [-bound, bound]."""
    dims = draw(dims)
    entries = st.integers(-bound, bound)
    twists = {}
    for j in range(2, len(dims) + 1):
        for ell in range(1, j):
            row = st.lists(entries, min_size=dims[ell - 1] + 1, max_size=dims[ell - 1] + 1)
            rows = draw(st.lists(row, min_size=dims[j - 1] + 1, max_size=dims[j - 1] + 1))
            twists[(j, ell)] = IntMatrix.from_rows(rows)
    return FlagBottTower(tuple(dims), twists)


@st.composite
def tower_and_perm_tuple(draw):
    t = draw(towers(st.lists(st.integers(1, 3), min_size=2, max_size=3), 5))
    v = tuple(tuple(draw(st.permutations(range(1, n + 2)))) for n in t.dims)
    return t, v


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(tower_and_perm_tuple())
def test_x_matrix_equals_chain_sum(tower_and_v):
    t, v = tower_and_v
    for j in range(2, t.m + 1):
        for ell in range(1, j):
            assert x_matrix(t, v, j, ell) == x_matrix_chain_sum(t, v, j, ell)
    assert weights_at(t, v) == weights_chain_sum(t, v)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(towers(st.lists(st.integers(1, 3), min_size=1, max_size=3), 10**6))
def test_pairing_identity_equals_the_reference_on_a_drawn_tower(t):
    # last rows are drawn like the others, so the kernel normalization runs
    report = verify_pairing_identity(t)
    assert report == reference_pairing_identity(t)
    assert report.ok


def cone_count(dims) -> int:
    return prod(factorial(n + 1) for n in dims)


# at most 576 cones, so that every check runs in well under a second
small_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda d: cone_count(d) <= 576)


@hypothesis.settings(SETTINGS, max_examples=15)
@hypothesis.given(towers(small_dims, 10**6))
def test_fan_of_a_drawn_tower_is_smooth_complete_and_a_join(t):
    fan = build_fan(t)
    assert len(fan.rays) == sum(2 ** (n + 1) - 2 for n in t.dims)
    assert len(fan.maxcones) == cone_count(t.dims)
    assert is_smooth(fan).ok
    assert is_complete_simplicial(fan).ok
    for cone, v in zip(fan.maxcones, fan.perm_tuples):
        assert derive_rays_from_weights(t, v) == {fan.rays[r].vector for r in cone}
    assert verify_bundle_join(fan, t).ok


@hypothesis.settings(SETTINGS, max_examples=15)
@hypothesis.given(
    towers(small_dims, 10**6), st.sampled_from(RAY_FAULTS), st.booleans(), st.integers(0, 2**32 - 1)
)
def test_prefix_oracle_equals_per_cone_oracle_on_a_faulted_fan(t, kind, renumber, seed):
    fan = ray_faulted(build_fan(t), random.Random(seed), kind, renumber)
    assert verify_oracle(fan, t) == reference_oracle(fan, t)


@hypothesis.settings(SETTINGS, max_examples=15)
@hypothesis.given(towers(small_dims, 10**6), st.integers(0, 2**32 - 1))
def test_bitmask_census_equals_wall_normals_on_a_perturbed_fan(t, seed):
    fan = perturbed(build_fan(t), random.Random(seed))
    assert is_complete_simplicial(fan) == reference_is_complete_simplicial(fan)


@hypothesis.settings(SETTINGS, max_examples=15)
@hypothesis.given(
    towers(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda d: cone_count(d) <= 576), 10**6),
    st.sampled_from(RAY_FAULTS + ("scale",)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_flip_and_slice_paths_equal_the_references_on_a_faulted_fan(paths, t, kind, renumber, seed):
    base = build_fan(t)
    fan = ray_faulted(base, random.Random(seed), kind, renumber)
    # a ray fault keeps build_fan's combinatorics; only renumbering leaves them
    kept = [ray.label for ray in fan.rays] == [ray.label for ray in base.rays]
    assert renumber or kept
    assert fan.is_join == kept
    paths.clear()
    assert is_complete_simplicial(fan) == reference_is_complete_simplicial(fan)
    assert paths == ["flip" if kept and 0 not in fan.cone_dets else "census"]
    paths.clear()
    assert verify_bundle_join(fan, t) == reference_verify_bundle_join(fan, t)
    assert paths == bundle_paths(fan)


@hypothesis.settings(SETTINGS, max_examples=10)
@hypothesis.given(
    towers(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda d: cone_count(d) <= 1296), 2)
)
def test_build_fan_joins_stage_cones_in_product_order(t):
    assert build_fan(t).maxcones == reference_maxcones(t)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(towers(small_dims, 5), st.data())
def test_format_fan_equals_the_reference_on_drawn_cones(t, data):
    fan = build_fan(t)
    assert format_fan(fan) == reference_format_fan(fan)
    # cones drawn from the fan's, in any order, repeated and cut short
    index = st.integers(0, len(fan.maxcones) - 1)
    cone = st.tuples(index, st.integers(0, fan.n)).map(lambda p: fan.maxcones[p[0]][: p[1]])
    cones = data.draw(st.lists(index.map(fan.maxcones.__getitem__) | cone, max_size=40))
    drawn = dataclasses.replace(fan, maxcones=tuple(cones))
    assert format_fan(drawn) == reference_format_fan(drawn)
