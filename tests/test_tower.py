"""Tower data type, validation, and genericity."""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from conftest import random_tower, three_stage_tower, truncated, two_stage_tower
from flagbott import tower
from flagbott.exactlin import DimensionMismatch, IntMatrix
from flagbott.tower import (
    FlagBottTower,
    InvalidStagePair,
    SamplingExhausted,
    is_generic_matrix,
    plucker,
    sample_generic,
    validate,
)


def test_tower_properties():
    t = three_stage_tower()
    assert t.m == 3
    assert t.n == 5
    assert t.twist(2, 1).rows == 3
    assert t.twist(3, 1) == IntMatrix.from_rows([[5, 6, 0], [0, 0, 0]])
    assert validate(t) == []


def test_twist_rejects_bad_stage_pairs():
    t = two_stage_tower()
    with pytest.raises(InvalidStagePair):
        t.twist(1, 1)
    with pytest.raises(InvalidStagePair):
        t.twist(1, 2)
    with pytest.raises(InvalidStagePair):
        t.twist(3, 1)


def test_validate_reports_shape_defects():
    t = FlagBottTower(
        dims=(2, 1),
        twists={(2, 1): IntMatrix.from_rows([[1, 2], [3, 4]])},
    )
    defects = validate(t)
    assert len(defects) == 1
    assert "(2, 1)" in defects[0]


def test_validate_reports_missing_and_extra_keys():
    assert validate(FlagBottTower(dims=(1, 1), twists={})) != []
    t = FlagBottTower(
        dims=(1,),
        twists={(2, 1): IntMatrix.from_rows([[1, 2], [0, 0]])},
    )
    assert validate(t) != []
    assert validate(FlagBottTower(dims=(), twists={})) != []
    assert validate(FlagBottTower(dims=(0, 1), twists={(2, 1): IntMatrix.zero(2, 1)})) != []


def test_validate_reports_bools():
    # bools are ints to isinstance; a JSON true must not pass for a 1
    assert validate(FlagBottTower((True,), {})) == ["stage 1 dimension must be a positive integer, got True"]
    t = FlagBottTower((2, 1), {(2, 1): IntMatrix.from_rows([[True, 0, 0], [0, 0, 0]])})
    assert validate(t) == ["matrix for stage pair (2, 1) holds a bool; entries must be int"]


def test_truncated():
    t = three_stage_tower()
    t2 = truncated(t, 2)
    assert t2.dims == (2, 2)
    assert t2.twists == {(2, 1): t.twist(2, 1)}
    assert truncated(t, 3) == t
    with pytest.raises(ValueError):
        truncated(t, 0)
    with pytest.raises(ValueError):
        truncated(t, 4)


def test_plucker_minors():
    g = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert plucker(g, (1,)) == 1
    assert plucker(g, (2, 3)) == 1 * 3 - 1 * 2
    assert plucker(g, (1, 2, 3)) == 2
    with pytest.raises(ValueError):
        plucker(g, (2, 1))
    with pytest.raises(ValueError):
        plucker(g, (0,))


def test_flag_minors_need_a_square_matrix():
    for g in (IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), IntMatrix.zero(0, 3), IntMatrix.zero(3, 1)):
        with pytest.raises(DimensionMismatch):
            plucker(g, (1,))
        with pytest.raises(DimensionMismatch):
            is_generic_matrix(g)


def leibniz_det(rows: list[list[int]]) -> int:
    """Sum over permutations of signed entry products; slow but obviously right."""
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(k), 2))
        total += (-1) ** inversions * prod(rows[i][c] for i, c in enumerate(perm))
    return total


def test_plucker_flag_minors_match_leibniz():
    rng = random.Random(11)
    mats = [IntMatrix.from_rows([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]])]
    for size in range(1, 6):
        for trial in range(8):
            # small entries hit vanishing minors; every trial draws a
            # numerator and a denominator per entry, so that the even
            # (integer) trials keep their matrices; odd trials are skipped
            den = 6 if trial % 2 else 1
            rows = [[(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(size)] for _ in range(size)]
            if not trial % 2:
                mats.append(IntMatrix.from_rows([[a for a, _ in row] for row in rows]))
    for g in mats:
        for k in range(1, g.rows + 1):
            for indices in itertools.combinations(range(1, g.rows + 1), k):
                rows = [[g[i - 1, c] for c in range(k)] for i in indices]
                assert plucker(g, indices) == leibniz_det(rows)


def test_is_generic_vandermonde_accepted():
    g = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    ok, witness = is_generic_matrix(g)
    assert ok
    assert witness is None


def test_is_generic_rejects_permutation_matrices():
    for size in (2, 3, 4):
        for perm in itertools.permutations(range(size)):
            rows = [[1 if j == perm[i] else 0 for j in range(size)] for i in range(size)]
            ok, witness = is_generic_matrix(IntMatrix.from_rows(rows))
            assert not ok
            assert witness is not None


def test_is_generic_invariant_under_row_scaling():
    vandermonde = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    degenerate = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [0, 1, 3]])
    factors = (2, -3, 5)
    for g in (vandermonde, degenerate):
        scaled = IntMatrix.from_rows(
            [[f * e for e in g.row(i)] for i, f in enumerate(factors)]
        )
        assert is_generic_matrix(g)[0] == is_generic_matrix(scaled)[0]


def test_sample_generic_outputs_pass():
    for seed in range(5):
        g = sample_generic(3, bound=5, seed=seed)
        assert (g.rows, g.cols) == (4, 4)
        ok, _ = is_generic_matrix(g)
        assert ok


def test_sample_generic_exhaustion(monkeypatch):
    monkeypatch.setattr(tower, "MAX_ATTEMPTS", 0)
    with pytest.raises(SamplingExhausted):
        sample_generic(2, bound=2, seed=0)
    with pytest.raises(ValueError):
        sample_generic(2, bound=1, seed=0)


def test_random_tower_sampler_is_deterministic():
    a = random_tower(1234)
    b = random_tower(1234)
    assert a == b
    assert validate(a) == []
