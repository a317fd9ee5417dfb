"""The Bareiss rank, kernel and signature against the Fraction
Gauss-Jordan and characteristic-polynomial references."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_kernel, ref_rank, ref_symmetric_signature
from quiverinv import linalg
from quiverinv.errors import InputError
from quiverinv.linalg import symmetric_signature

ENTRIES = st.integers(-3, 3)
RATIONALS = st.one_of(ENTRIES, st.builds(F, ENTRIES, st.integers(2, 3)))


@st.composite
def rectangular_matrices(draw):
    """m x n with m <= 6 and n <= 8, entries in -3..3 or, for some matrices,
    thirds and halves among them.  Only the first k rows are drawn freely;
    the others are combinations of them with coefficients in -2..2 (zero
    rows when k = 0), and the rows are then shuffled, so the rank is often
    below min(m, n).  A drawn set of columns is zeroed."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 8))
    entries = draw(st.sampled_from((ENTRIES, RATIONALS)))
    k = draw(st.integers(0, m))
    rows = [[draw(entries) for _ in range(n)] for _ in range(k)]
    for _ in range(m - k):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(k)]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
    for j in draw(st.sets(st.integers(0, n - 1))) if n else ():
        for row in rows:
            row[j] = 0
    return tuple(tuple(row) for row in draw(st.permutations(rows)))


@settings(max_examples=300)
@given(rectangular_matrices())
def test_rank_and_kernel_match_gauss_jordan_reference(matrix):
    ncols = len(matrix[0]) if matrix else 0
    rank = linalg.rank(matrix)
    basis = linalg.kernel_basis(matrix)
    assert rank == ref_rank(matrix)
    assert basis == ref_kernel(matrix)
    assert len(basis) == ncols - rank
    # column f is free when it is not in the span of the columns before it
    free = [
        f for f in range(ncols)
        if ref_rank([row[: f + 1] for row in matrix]) == ref_rank([row[:f] for row in matrix])
    ]
    for f, vec in zip(free, basis, strict=True):
        assert all(type(x) is int for x in vec)
        assert math.gcd(*vec) == 1 and vec[f] > 0
        assert not any(linalg.dot(row, vec) for row in matrix)


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


@settings(max_examples=300)
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
        # Bareiss divides by the last nonzero pivot after a skipped zero one
        (((0, 0, 0), (0, 2, 1), (0, 1, 2)), ("positive_semidefinite", 1)),
        (
            ((5, 0, 3, 4), (0, 0, 0, 0), (3, 0, 2, 3), (4, 0, 3, 5)),
            ("positive_semidefinite", 2),
        ),  # B^T B for B = ((2, 0, 1, 1), (1, 0, 1, 2))
        (((F(1, 2), F(1, 3)), (F(1, 3), F(1, 2))), ("positive_definite", 0)),
        (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), ("positive_semidefinite", 1)),
        (((F(1, 2), 1), (1, F(1, 3))), ("indefinite", None)),
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
