"""Property test of the Cramer identity behind the wall sign rule in fancheck."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from flagbott.exactlin import IntMatrix, adjugate_det, det  # noqa: E402


@st.composite
def matrix_column_position(draw):
    n = draw(st.integers(1, 5))
    entry = st.integers(-5, 5)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    x = draw(st.lists(entry, min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    return rows, x, k


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(matrix_column_position())
def test_adjugate_row_pairs_to_column_replaced_det(case):
    rows, x, k = case
    adj, d = adjugate_det(IntMatrix.from_rows(rows))
    hypothesis.assume(d != 0)
    replaced = [row[:k] + [xi] + row[k + 1 :] for row, xi in zip(rows, x)]
    assert sum(a * b for a, b in zip(adj.row(k), x)) == det(IntMatrix.from_rows(replaced))
