"""Exact integer linear algebra, checked against a cofactor-expansion oracle."""

from __future__ import annotations

import random

import pytest

from conftest import identity
from flagbott.exactlin import (
    IntMatrix,
    NotUnimodular,
    _det_rows,
    adjugate_det,
    det,
    mat_mul,
    unimodular_inverse,
)
from flagbott.fans import _join_dets


def cofactor_det(rows: list[list[int]]) -> int:
    """Textbook Laplace expansion along the first row; slow but obviously right."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for c in range(k):
        if rows[0][c] == 0:
            continue
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        sign = 1 if c % 2 == 0 else -1
        total += sign * rows[0][c] * cofactor_det(minor)
    return total


def random_matrix(rng: random.Random, size: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
    )


def test_constructors_and_indexing():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == (1, 2, 3, 4, 5, 6)
    assert m.row(1) == (4, 5, 6)
    assert m.col(2) == (3, 6)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert IntMatrix(2, 2, (0,) * 4) == IntMatrix.from_rows([[0, 0], [0, 0]])
    assert not m.is_square()
    assert identity(2).is_square()


def test_constructor_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_index_out_of_range():
    m = identity(2)
    with pytest.raises(IndexError):
        m.row(2)
    with pytest.raises(IndexError):
        m.col(-1)


def test_mat_mul():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5, 6], [7, 8]])
    assert mat_mul(a, b) == IntMatrix.from_rows([[19, 22], [43, 50]])
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a


def test_mat_mul_shape_mismatch():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match=r"^1x2 times 1x2$"):
        mat_mul(a, a)


def test_det_small_cases():
    assert det(IntMatrix.from_rows([[7]])) == 7
    assert det(identity(4)) == 1
    assert det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix(3, 3, (0,) * 9)) == 0
    # upper triangular: product of the diagonal
    assert det(IntMatrix.from_rows([[2, 9, 9], [0, 3, 9], [0, 0, 5]])) == 30


def test_dets_edge_cases():
    # the fan's determinant pass, on cones as ascending index tuples: an
    # empty batch, refused when it should have width n > 0, and 0x0 cones
    assert _join_dets((), [], 0) == []
    assert _join_dets((), [(1, 0)], 2) is None
    assert _join_dets(((),), [], 0) == [1]
    # row 0 leads with a zero, so its matrices pivot off the first column;
    # (0, 1) comes twice, (0, 0) repeats a row and (1, 2) holds the zero row
    rows = [(0, 1), (1, 0), (0, 0), (3, 5)]
    matrices = ((0, 1), (0, 1), (0, 3), (0, 0), (1, 2), (1, 3), (1, 3))
    assert _join_dets(matrices, rows, 2) == [-1, -1, -3, 0, 0, 5, 5]
    assert _join_dets(matrices, rows, 2) == [_det_rows([list(rows[i]) for i in m]) for m in matrices]


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError, match=r"^determinant of 1x2$"):
        det(IntMatrix.from_rows([[1, 2]]))


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(1, 6)
        m = random_matrix(rng, size)
        assert det(m) == cofactor_det(m.to_rows())


def test_det_transpose_invariant():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6))
        assert det(m) == det(IntMatrix.from_rows(list(zip(*m.to_rows()))))


def test_adjugate_identity():
    # m * adj(m) == det(m) * I, for singular matrices too
    rng = random.Random(13)
    for _ in range(200):
        size = rng.randint(1, 6)
        m = random_matrix(rng, size, bound=4)
        adj, d = adjugate_det(m)
        assert d == det(m)
        prod = mat_mul(m, adj)
        expect = IntMatrix.from_rows(
            [[d if i == k else 0 for k in range(size)] for i in range(size)]
        )
        assert prod == expect
        assert mat_mul(adj, m) == expect


def test_unimodular_inverse_round_trip():
    rng = random.Random(17)
    found = 0
    while found < 60:
        size = rng.randint(1, 5)
        m = random_matrix(rng, size, bound=2)
        if det(m) not in (1, -1):
            continue
        found += 1
        inv = unimodular_inverse(m)
        assert mat_mul(m, inv) == identity(size)
        assert mat_mul(inv, m) == identity(size)


def test_unimodular_inverse_rejects_other_determinants():
    with pytest.raises(NotUnimodular) as info:
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert info.value.determinant == 2
    with pytest.raises(NotUnimodular) as info:
        unimodular_inverse(IntMatrix(2, 2, (0,) * 4))
    assert info.value.determinant == 0


def test_entries_stay_python_ints():
    # Bareiss intermediates can exceed 64 bits; exactness must survive that
    m = IntMatrix.from_rows(
        [[10**9 + i * j for j in range(5)] for i in range(5)]
    )
    assert det(m) == cofactor_det(m.to_rows())
