"""Tower data type, validation, and genericity."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from math import prod

import pytest

from conftest import (
    random_tower,
    reference_is_generic_matrix,
    reference_sample_generic,
    three_stage_tower,
    truncated,
    two_stage_tower,
)
from flagbott import tower
from flagbott.exactlin import IntMatrix
from flagbott.tower import (
    FlagBottTower,
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
    with pytest.raises(ValueError, match=r"^need 1 <= ell < j <= 2, got \(1, 1\)$"):
        t.twist(1, 1)
    with pytest.raises(ValueError, match=r"^need 1 <= ell < j <= 2, got \(1, 2\)$"):
        t.twist(1, 2)
    with pytest.raises(ValueError, match=r"^need 1 <= ell < j <= 2, got \(3, 1\)$"):
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
    assert validate(FlagBottTower(dims=(0, 1), twists={(2, 1): IntMatrix(2, 1, (0, 0))})) != []


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


def test_plucker_refuses_indices_that_are_not_ints():
    # a bool is an int to isinstance: True would name row 1; a float would
    # fail inside IntMatrix.row
    g = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    for indices in ((True, 2), (False,), (1.0,), (1, 2.0), (1, True)):
        with pytest.raises(ValueError, match=r"^row indices must be strictly increasing in 1\.\.3: "):
            plucker(g, indices)


def test_flag_minors_need_a_square_matrix():
    for g in (IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), IntMatrix(0, 3, ()), IntMatrix(3, 1, (0, 0, 0))):
        message = rf"^flag minors need a square matrix, got {g.rows}x{g.cols}$"
        with pytest.raises(ValueError, match=message):
            plucker(g, (1,))
        with pytest.raises(ValueError, match=message):
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
                rows = [list(g.row(i - 1)[:k]) for i in indices]
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


def drawn_matrices(seed: int, count: int) -> list[IntMatrix]:
    """Square matrices of sizes 1..7: entries in [-2, 2], so that minors
    vanish often, or up to 10**12 with, half the time, a planted
    dependence: a row whose first k entries combine those of k - 1 others,
    so that the first vanishing flag minor is most likely of k rows."""
    rng = random.Random(seed)
    mats = []
    for _ in range(count):
        size = rng.randint(1, 7)
        bound = rng.choice((2, 10**12))
        rows = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        if bound > 2 and rng.random() < 0.5:
            k = rng.randint(1, size)
            target, *sources = rng.sample(range(size), k)
            coefs = [rng.choice((-2, -1, 1, 3)) for _ in sources]
            rows[target][:k] = [sum(f * rows[r][c] for f, r in zip(coefs, sources)) for c in range(k)]
        mats.append(IntMatrix.from_rows(rows))
    return mats


def test_is_generic_matrix_equals_the_reference():
    mats = drawn_matrices(7, 3000)
    results = [is_generic_matrix(g) for g in mats]
    assert results == [reference_is_generic_matrix(g) for g in mats]
    # the draw reaches each level's first vanishing minor, and generic points
    assert {len(w) for ok, w in results if not ok} == set(range(1, 8))
    assert sum(ok for ok, _ in results) > 100


def test_is_generic_matrix_keeps_one_node_per_row_set():
    # the 7 x 7 Vandermonde matrix on 1..7 is generic: the walk holds at
    # most the C(7, 3) = 35 row sets of a level, and peaked at 18 064 bytes
    # (tracemalloc, Python 3.11); a node per ordered row tuple held
    # 7!/4! = 210 and up to 5 040, 3.7 MB
    g = IntMatrix.from_rows([[x**c for c in range(7)] for x in range(1, 8)])
    tracemalloc.start()
    try:
        assert is_generic_matrix(g) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 65_536


def test_sample_generic_equals_the_reference_sampler(monkeypatch):
    # both samplers stop after 500 candidates, which bound 2 exhausts on
    # 3 seeds of n = 5 and on every seed from n = 6 on; bound 5 needs at
    # most 481 on these seeds.  Equal outcomes mean that the two reject
    # the same candidates of one draw until they return the same matrix
    monkeypatch.setattr(tower, "MAX_ATTEMPTS", 500)

    def outcome(sample, n, bound, seed):
        try:
            return sample(n, bound, seed)
        except SamplingExhausted:
            return None

    outcomes = [
        outcome(sample_generic, n, bound, seed)
        for n in range(1, 10) for bound in (2, 5) for seed in range(5)
    ]
    assert outcomes == [
        outcome(reference_sample_generic, n, bound, seed)
        for n in range(1, 10) for bound in (2, 5) for seed in range(5)
    ]
    assert outcomes.count(None) == 23


def test_sample_generic_refuses_bools():
    with pytest.raises(ValueError, match=r"^n must be positive, got True$"):
        sample_generic(True, 5, 0)
    with pytest.raises(ValueError, match=r"^n must be positive, got False$"):
        sample_generic(False, 5, 0)
    with pytest.raises(ValueError, match=r"^bound must be at least 2, got True$"):
        sample_generic(2, True, 0)


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
