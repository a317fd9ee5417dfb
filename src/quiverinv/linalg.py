"""Small exact linear algebra helpers over the integers and rationals.

Everything in this package that looks like numerical linear algebra is done
here, exactly.  Matrices are sequences of equal-length rows with ``int`` or
``Fraction`` entries; results come back as tuples.  Sizes are tiny (vertex
counts of quivers, representation dimensions), so the simple cubic
algorithms below are the right tool: echelon forms for rank, kernels and
inverses, Bareiss elimination for determinants, and a symmetric LDL^T
elimination for the signature of a Tits form.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError, InvariantError


def _as_rows(matrix):
    return [list(row) for row in matrix]


def _clear_row_denominators(row):
    """Scale a row of rationals to a primitive integer row (rank-safe)."""
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    out = [int(x * denom) if isinstance(x, Fraction) else x * denom for x in row]
    g = 0
    for x in out:
        g = gcd(g, x)
    if g > 1:
        out = [x // g for x in out]
    return out


def rank(matrix):
    """Exact rank via integer echelon reduction with gcd normalization."""
    rows = [_clear_row_denominators(r) for r in _as_rows(matrix)]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rnk = 0
    col = 0
    while col < ncols and rnk < len(rows):
        pivot = None
        for i in range(rnk, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rnk], rows[pivot] = rows[pivot], rows[rnk]
        prow = rows[rnk]
        p = prow[col]
        for i in range(rnk + 1, len(rows)):
            q = rows[i][col]
            if q:
                row = rows[i]
                for j in range(col, ncols):
                    row[j] = row[j] * p - prow[j] * q
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    for j in range(ncols):
                        row[j] //= g
        rnk += 1
        col += 1
    return rnk


def rref(matrix):
    """Reduced row echelon form over Fraction; returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                q = rows[i][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(matrix):
    """Primitive integer basis of the right kernel {x : M x = 0}."""
    if not matrix or not matrix[0]:
        n = len(matrix[0]) if matrix else 0
        return tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
    rows, pivots = rref(matrix)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ivec = [int(x * denom) for x in vec]
        g = 0
        for x in ivec:
            g = gcd(g, x)
        if g > 1:
            ivec = [x // g for x in ivec]
        basis.append(tuple(ivec))
    return tuple(basis)


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vecmat(v, a):
    return tuple(
        sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))
    )


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a))


def det(matrix):
    """Determinant by fraction-free Bareiss elimination (integer entries)."""
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = None
            for i in range(k + 1, n):
                if rows[i][k]:
                    pivot = i
                    break
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def inverse(matrix):
    """Exact inverse over Fraction (raises if singular)."""
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise InvariantError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows[:n])


def int_inverse(matrix):
    """Inverse of a unimodular integer matrix, as integers."""
    inv = inverse(matrix)
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise InvariantError("matrix is not unimodular")
            irow.append(int(x))
        out.append(tuple(irow))
    return tuple(out)


def symmetric_signature(matrix):
    """Classify a symmetric matrix S of integers or rationals as one of
    ``positive_definite``, ``positive_semidefinite`` (singular), or
    ``indefinite``, together with the corank (``None`` when indefinite).

    One symmetric elimination S = L D L^T over Fraction, in order and without
    pivoting, on the upper triangle.  A negative pivot makes S indefinite.  A
    zero pivot whose remaining row is nonzero does too, since the principal
    minor [[0, b], [b, c]] has determinant -b^2 < 0.  A zero pivot whose
    remaining row is zero adds one to the corank.  A non-square or
    non-symmetric matrix raises ``InputError``.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("signature needs a square matrix")
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise InputError("signature needs a symmetric matrix")
    a = [[Fraction(x) for x in row] for row in matrix]
    corank = 0
    for k in range(n):
        row = a[k]
        p = row[k]
        if p < 0:
            return "indefinite", None
        if p == 0:
            if any(row[k + 1:]):
                return "indefinite", None
            corank += 1
            continue
        for i in range(k + 1, n):
            f = row[i] / p
            if f:
                below = a[i]
                for j in range(i, n):
                    below[j] -= f * row[j]
    if corank == 0:
        return "positive_definite", 0
    return "positive_semidefinite", corank
