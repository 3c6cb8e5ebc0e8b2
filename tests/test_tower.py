"""Tower data type, validation, genericity, and the stage action pieces."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from conftest import random_tower, three_stage_tower, two_stage_tower
from flagbott.exactlin import IntMatrix
from flagbott.tower import (
    FlagBottTower,
    InvalidStagePair,
    NotInvertible,
    RationalMatrix,
    SamplingExhausted,
    is_generic_matrix,
    lambda_of,
    phi_apply,
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


def test_truncated():
    t = three_stage_tower()
    t2 = t.truncated(2)
    assert t2.dims == (2, 2)
    assert t2.twists == {(2, 1): t.twist(2, 1)}
    assert t.truncated(3) == t
    with pytest.raises(ValueError):
        t.truncated(0)
    with pytest.raises(ValueError):
        t.truncated(4)


def test_rational_matrix_mul_and_triangular():
    a = RationalMatrix.from_rows([[1, 2], [0, 3]])
    b = RationalMatrix.from_rows([[1, 0], [1, 1]])
    assert a.mul(b).row(0) == (Fraction(3), Fraction(2))
    assert a.is_upper_triangular()
    assert not b.is_upper_triangular()
    assert a.diagonal_entries() == (Fraction(1), Fraction(3))
    assert a.scale_rows([2, 3]).row(1) == (Fraction(0), Fraction(9))


def test_plucker_minors():
    g = RationalMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert plucker(g, (1,)) == Fraction(1)
    assert plucker(g, (2, 3)) == Fraction(1 * 3 - 1 * 2)
    assert plucker(g, (1, 2, 3)) == Fraction(2)
    with pytest.raises(ValueError):
        plucker(g, (2, 1))
    with pytest.raises(ValueError):
        plucker(g, (0,))


def leibniz_det(rows: list[list[Fraction]]) -> Fraction:
    """Sum over permutations of signed entry products; slow but obviously right."""
    k = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(k), 2))
        total += (-1) ** inversions * prod(rows[i][c] for i, c in enumerate(perm))
    return total


def test_plucker_flag_minors_match_leibniz():
    rng = random.Random(11)
    mats = [RationalMatrix.from_rows([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]])]
    for size in range(1, 6):
        for trial in range(8):
            # small numerators hit vanishing minors; odd trials are rational
            den = 6 if trial % 2 else 1
            rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(size)]
                    for _ in range(size)]
            mats.append(RationalMatrix.from_rows(rows))
    for g in mats:
        for k in range(1, g.size + 1):
            for indices in itertools.combinations(range(1, g.size + 1), k):
                rows = [[g.entry(i - 1, c) for c in range(k)] for i in indices]
                assert plucker(g, indices) == leibniz_det(rows)


def test_is_generic_vandermonde_accepted():
    g = RationalMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    ok, witness = is_generic_matrix(g)
    assert ok
    assert witness is None


def test_is_generic_rejects_permutation_matrices():
    for size in (2, 3, 4):
        for perm in itertools.permutations(range(size)):
            rows = [[1 if j == perm[i] else 0 for j in range(size)] for i in range(size)]
            ok, witness = is_generic_matrix(RationalMatrix.from_rows(rows))
            assert not ok
            assert witness is not None


def test_is_generic_invariant_under_row_scaling():
    vandermonde = RationalMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    degenerate = RationalMatrix.from_rows([[1, 1, 1], [1, 2, 4], [0, 1, 3]])
    scaling = RationalMatrix.diagonal([2, -3, 5])
    for g in (vandermonde, degenerate):
        scaled = scaling.mul(g)
        assert is_generic_matrix(g)[0] == is_generic_matrix(scaled)[0]


def test_sample_generic_outputs_pass():
    for seed in range(5):
        g = sample_generic(3, bound=5, seed=seed)
        assert g.size == 4
        ok, _ = is_generic_matrix(g)
        assert ok


def test_sample_generic_exhaustion():
    with pytest.raises(SamplingExhausted):
        sample_generic(2, bound=2, seed=0, max_attempts=0)
    with pytest.raises(ValueError):
        sample_generic(2, bound=1, seed=0)


def test_lambda_of_diagonal_character():
    # exponent rows [[1, 2, 0]] applied to diag(b11, b22, b33)
    a = IntMatrix.from_rows([[1, 2, 0], [0, 0, 0]])
    b = RationalMatrix.from_rows(
        [[2, 1, 0], [0, 3, 1], [0, 0, 5]]
    )
    lam = lambda_of(a, b)
    assert lam.diagonal_entries() == (Fraction(2) * Fraction(9), Fraction(1))
    zero_diag = RationalMatrix.from_rows([[0, 1], [0, 1]])
    with pytest.raises(NotInvertible):
        lambda_of(IntMatrix.from_rows([[1, 0]]), zero_diag)


def test_lambda_of_zero_exponent_ignores_zero_diagonal():
    a = IntMatrix.from_rows([[0, 1]])
    b = RationalMatrix.from_rows([[0, 0], [0, 2]])
    assert lambda_of(a, b).diagonal_entries() == (Fraction(2),)


def test_lambda_of_ignores_offdiagonal_entries():
    a = IntMatrix.from_rows([[2, -1, 3], [0, 4, -2]])
    diag = (Fraction(2), Fraction(-3, 2), Fraction(5))
    plain = RationalMatrix.diagonal(diag)
    messy = RationalMatrix.from_rows(
        [[diag[0], 7, -9], [0, diag[1], Fraction(1, 3)], [0, 0, diag[2]]]
    )
    assert lambda_of(a, plain) == lambda_of(a, messy)


def test_phi_apply_two_stage():
    # stage 2 of the two-stage tower twists by b11^1 * b22^2 of the stage-1 group element
    t = two_stage_tower()
    g1 = RationalMatrix.identity(3)
    g2 = RationalMatrix.identity(2)
    b1 = RationalMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    b2 = RationalMatrix.identity(2)
    out = phi_apply(t, 2, [g1, g2], [b1, b2])
    assert out[0] == g1.mul(b1)
    # Lambda has diag (2 * 9, 1); its inverse scales the rows of g2 * b2
    assert out[1].row(0) == (Fraction(1, 18), Fraction(0))
    assert out[1].row(1) == (Fraction(0), Fraction(1))


def test_phi_apply_requires_upper_triangular():
    t = two_stage_tower()
    g = [RationalMatrix.identity(3), RationalMatrix.identity(2)]
    bad = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        phi_apply(t, 2, g, [bad, RationalMatrix.identity(2)])


def _random_rational(rng: random.Random, size: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
            for _ in range(size)
        ]
    )


def _random_triangular(rng: random.Random, size: int) -> RationalMatrix:
    rows = []
    for i in range(size):
        row = [Fraction(0)] * i
        row.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
        row.extend(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(size - i - 1)
        )
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def test_phi_apply_identity_elements_fix_points():
    t = three_stage_tower()
    rng = random.Random(7)
    gs = tuple(_random_rational(rng, d + 1) for d in t.dims)
    ids = tuple(RationalMatrix.identity(d + 1) for d in t.dims)
    assert phi_apply(t, t.m, gs, ids) == gs


def test_phi_apply_is_a_right_action():
    # acting by bs and then by cs must equal acting once by the stagewise
    # products bs[i] * cs[i], with exact rational arithmetic on both sides
    t = three_stage_tower()
    for seed in range(5):
        rng = random.Random(seed)
        gs = tuple(_random_rational(rng, d + 1) for d in t.dims)
        bs = tuple(_random_triangular(rng, d + 1) for d in t.dims)
        cs = tuple(_random_triangular(rng, d + 1) for d in t.dims)
        twice = phi_apply(t, t.m, phi_apply(t, t.m, gs, bs), cs)
        merged = tuple(b.mul(c) for b, c in zip(bs, cs))
        assert twice == phi_apply(t, t.m, gs, merged)


def test_random_tower_sampler_is_deterministic():
    a = random_tower(1234)
    b = random_tower(1234)
    assert a == b
    assert validate(a) == []
