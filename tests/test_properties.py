"""Property tests: the loader's error contract, the chain/permutation
bijection, the determinant and adjugate identities, the prefix-shared
determinants and a join's level walk against Bareiss, the latter also
where heads share their walk below, the flag-minor walk of
is_generic_matrix against one determinant per row set, the weight
recurrence against its chain-sum form, the pairing check against its
chain-sum reference, the paper's theorem on drawn towers, the
prefix-tree oracle against the per-cone one, the bitmask wall census
against explicit wall normals, the flip path and the lift check against
the references on a fan with a ray fault, the stage-by-stage cone join
against whole tuples of stage cones, the lazy join against the tuple of
its entries, and the export text against its cone-by-cone reference on
drawn cones."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
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
    reference_is_generic_matrix,
    reference_maxcones,
    reference_verify_bundle_join,
    reference_oracle,
    reference_pairing_identity,
    weights_chain_sum,
    x_matrix,
    x_matrix_chain_sum,
)
from flagbott.cli import SpecError, format_fan, load_tower  # noqa: E402
from flagbott.exactlin import IntMatrix, _det_rows, adjugate_det, det, mat_mul  # noqa: E402
from flagbott.fancheck import is_complete_simplicial, is_smooth, verify_bundle_join  # noqa: E402
from flagbott.fans import Fan, Ray, _join_dets, ray_labels, stage_join  # noqa: E402
from flagbott.orbitfan import (  # noqa: E402
    build_fan,
    derive_rays_from_weights,
    verify_oracle,
    verify_pairing_identity,
    weights_at,
)
from flagbott.permfan import perm_ray_vector  # noqa: E402
from flagbott.tower import FlagBottTower, is_generic_matrix, validate  # noqa: E402

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
    """Square matrices as ascending index tuples into shared rows, indices
    repeating, and the width n.  Each matrix extends one of a few drawn
    ascending stems by indices no smaller than the stem's last, so
    matrices in drawn, unsorted order share leading rows; a zero row, the
    last, is always there, and zero entries are common, so prefixes go
    singular and pivots move off the first column; other entries reach
    twist size."""
    n = draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 1, -1)) | st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=6))
    rows.append((0,) * n)
    index = st.integers(0, len(rows) - 1)
    stems = draw(st.lists(st.lists(index, max_size=n).map(sorted), min_size=1, max_size=3))
    matrix = st.sampled_from(stems).flatmap(
        lambda stem: st.lists(
            st.integers(stem[-1] if stem else 0, len(rows) - 1), min_size=n - len(stem), max_size=n - len(stem)
        ).map(lambda tail: tuple(stem + sorted(tail)))
    )
    return draw(st.lists(matrix, max_size=8)), rows, n


@SETTINGS
@hypothesis.given(det_batches())
@hypothesis.example(([], [], 0))
@hypothesis.example(([()], [], 0))
@hypothesis.example(([(0, 1, 2), (0, 1, 3), (0, 1, 2), (0, 2, 3), (0, 1, 2)], [(0, 1, 2), (0, 3, 1), (4, 0, 0), (0, 0, 0)], 3))
def test_prefix_shared_dets_equal_bareiss(batch):
    # the fan's determinant pass on a flat batch, its one level; a batch of
    # no matrices of width n > 0 is refused
    matrices, rows, n = batch
    want = [_det_rows([list(rows[i]) for i in m]) for m in matrices]
    assert _join_dets(tuple(matrices), rows, n) == (want if matrices or not n else None)


@st.composite
def flag_matrices(draw):
    """A square matrix of size 1..7, its entries in [-2, 2], so that many
    vanish, or huge, then up to two planted dependences: a row whose first
    k entries combine those of k - 1 other rows, so that a flag minor of k
    rows vanishes while smaller ones need not."""
    size = draw(st.integers(1, 7))
    entry = draw(st.sampled_from((st.integers(-2, 2), st.integers(10**12, 10**15) | st.integers(-(10**15), -(10**12)))))
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        k, target = draw(st.integers(1, size)), draw(st.integers(0, size - 1))
        others = [r for r in range(size) if r != target]
        sources = draw(st.lists(st.sampled_from(others), min_size=k - 1, max_size=k - 1, unique=True)) if k > 1 else []
        coefs = draw(st.lists(st.sampled_from((-2, -1, 1, 3)), min_size=len(sources), max_size=len(sources)))
        rows[target][:k] = [sum(f * rows[r][c] for f, r in zip(coefs, sources)) for c in range(k)]
    return IntMatrix.from_rows(rows)


@hypothesis.settings(SETTINGS, max_examples=200)
@hypothesis.given(flag_matrices())
def test_flag_minor_walk_equals_one_determinant_per_row_set(g):
    assert is_generic_matrix(g) == reference_is_generic_matrix(g)


@st.composite
def joins_with_drawn_rays(draw):
    """A fan with build_fan's labels and stage_join's cones for one to three
    drawn stages, at most 576 cones, and drawn ray vectors with entries in
    [-2, 2], so that heads go singular: a join whatever its vectors."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda d: cone_count(d) <= 576)))
    labels = ray_labels(dims)
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * sum(dims)), min_size=len(labels), max_size=len(labels)))
    return Fan(dims, tuple(map(Ray, labels, vectors)), *stage_join(dims, 576))


@SETTINGS
@hypothesis.given(joins_with_drawn_rays())
def test_join_walk_equals_bareiss_cone_by_cone(fan):
    assert fan.is_join
    assert fan.cone_dets == tuple(_det_rows([list(fan.rays[r].vector) for r in cone]) for cone in fan.maxcones)


@st.composite
def joins_with_block_rays(draw):
    """A fan with build_fan's labels and stage_join's cones for one to three
    drawn stages, at most 576 cones, whose stage-ell rays vanish on the
    earlier blocks and hold on their own block the one-factor ray times a
    drawn 1, -1 or 2, and entries in [-2, 2] on the later blocks: heads of
    one divisor reduce the later rows alike, with either sign, so that
    each level's slot hits with divisors 1 and 2."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda d: cone_count(d) <= 576)))
    vectors = []
    for label in ray_labels(dims):
        before, after = sum(dims[: label.stage - 1]), sum(dims[label.stage :])
        own = perm_ray_vector(dims[label.stage - 1], label.subset)
        factor = draw(st.sampled_from((1, -1, 2)))
        later = draw(st.tuples(*[st.integers(-2, 2)] * after))
        vectors.append((0,) * before + tuple(factor * a for a in own) + later)
    return Fan(dims, tuple(map(Ray, ray_labels(dims), vectors)), *stage_join(dims, 576))


@SETTINGS
@hypothesis.given(joins_with_block_rays())
def test_join_walk_with_shared_heads_equals_bareiss_cone_by_cone(fan):
    assert fan.is_join
    assert fan.cone_dets == tuple(_det_rows([list(fan.rays[r].vector) for r in cone]) for cone in fan.maxcones)


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


# one to four stages, so that a join nests up to three levels of heads
join_dims = st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda d: cone_count(d) <= 576)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(towers(join_dims, 5), st.data())
def test_a_join_behaves_as_the_tuple_of_its_entries(t, data):
    # build_fan's cones and permutation tuples are formed on demand, yet
    # index, slice, iterate, compare, hash and print as their tuples do
    fan = build_fan(t)
    for join in (fan.maxcones, fan.perm_tuples):
        ref = tuple(join)
        n = len(ref)
        assert len(join) == n == cone_count(t.dims)
        assert [join[i] for i in range(-n, n)] == [*ref, *ref]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                join[i]
        bound = st.none() | st.integers(-n - 2, n + 2)
        cut = slice(data.draw(bound), data.draw(bound), data.draw(st.none() | st.integers(-4, 4).filter(bool)))
        assert type(join[cut]) is tuple and join[cut] == ref[cut]
        assert list(join) == list(ref)
        assert join == ref and ref == join and not join != ref
        k = data.draw(st.integers(0, n - 1))
        other = ref[:k] + ((),) + ref[k + 1 :]
        assert join != other and other != join and not join == other
        assert hash(join) == hash(ref) and repr(join) == repr(ref)
    # a join's fan equals and hashes as its materialised copy, and stays
    # a join through pickle and deepcopy
    copied = dataclasses.replace(fan, maxcones=tuple(fan.maxcones), perm_tuples=tuple(fan.perm_tuples))
    assert fan == copied and hash(fan) == hash(copied) and not copied.is_join
    for kept in (pickle.loads(pickle.dumps(fan)), copy.deepcopy(fan)):
        assert kept.is_join and kept == fan


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
