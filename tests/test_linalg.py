"""The LDL^T signature against the characteristic-polynomial reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_symmetric_signature
from quiverinv.errors import InputError
from quiverinv.linalg import symmetric_signature

ENTRIES = st.integers(-3, 3)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 8))
    upper = {(i, j): draw(ENTRIES) for i in range(n) for j in range(i, n)}
    return tuple(
        tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n)
    )


@st.composite
def gram_matrices(draw):
    """B^T B for a random k x n integer B: positive semidefinite, with corank
    n - rank(B), so k < n reaches corank > 0."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, 8))
    b = [[draw(ENTRIES) for _ in range(n)] for _ in range(k)]
    return tuple(
        tuple(sum(row[i] * row[j] for row in b) for j in range(n)) for i in range(n)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(symmetric_matrices(), gram_matrices()))
def test_signature_matches_charpoly_reference(matrix):
    assert symmetric_signature(matrix) == ref_symmetric_signature(matrix)


@pytest.mark.parametrize(
    "matrix, expected",
    [
        ((), ("positive_definite", 0)),
        (((0, 1), (1, 0)), ("indefinite", None)),  # zero pivot, nonzero row
        (((0, 0), (0, 1)), ("positive_semidefinite", 1)),  # zero pivot, zero row
        (((0, 0), (0, 0)), ("positive_semidefinite", 2)),
        (((1, 1, 0), (1, 1, 1), (0, 1, 1)), ("indefinite", None)),  # late zero pivot
        (((2, -1), (-1, 2)), ("positive_definite", 0)),
        (((-1,),), ("indefinite", None)),
    ],
)
def test_signature_edge_cases(matrix, expected):
    assert symmetric_signature(matrix) == expected
    assert ref_symmetric_signature(matrix) == expected


@pytest.mark.parametrize(
    "matrix",
    [((1, 5), (2, 1)), ((1, 2),), ((1, 0), (0,)), ((1, 0, 0), (0, 1, 0))],
    ids=["asymmetric", "one_row", "ragged", "wide"],
)
def test_signature_rejects_non_symmetric(matrix):
    with pytest.raises(InputError):
        symmetric_signature(matrix)
