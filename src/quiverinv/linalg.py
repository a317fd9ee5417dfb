"""Small exact linear algebra helpers over the integers and rationals.

Everything in this package that looks like numerical linear algebra is done
here, exactly.  Matrices are sequences of equal-length rows with ``int`` or
``Fraction`` entries; results come back as tuples.  Sizes are tiny (vertex
counts of quivers, representation dimensions), so the simple cubic
algorithms below are the right tool: echelon forms for rank and kernels,
and fraction-free Bareiss elimination on Python ints for determinants,
inverses and the signature of a Tits form.  The Bareiss routines first
scale rational input to integers by the lcm of its denominators.
"""

from fractions import Fraction
from math import gcd, lcm

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


def _square_integer_rows(matrix):
    """The rows of a square matrix as lists of ints, scaled by the positive
    lcm L of the denominators of its entries, together with L.  A
    non-square or ragged matrix raises ``InputError``."""
    rows = _as_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("expected a square matrix")
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    fracs = [[Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in fracs for x in row))
    return [[int(x * scale) for x in row] for row in fracs], scale


def _adjugate(rows):
    """``(det M, adj M)`` of a square integer matrix M, given as a list of
    row lists that it consumes, by fraction-free (Bareiss) Gauss-Jordan
    elimination on ``[M | I]``.

    Each step multiplies every other row by the pivot, subtracts a multiple
    of the pivot row and divides exactly by the previous pivot, so every
    entry stays an integer (a minor of M).  A zero pivot is swapped with a
    nonzero one below it; a singular M raises ``InvariantError``.  The
    elimination ends at ``[D I | D (PM)^-1]`` for the row-swapped matrix PM
    of determinant D.  It runs in place: step k clears column k of the left
    block as column k of the right block first leaves the identity, so that
    column holds the right block's from then on.  The swaps are undone on
    the columns at the end, since M^-1 = (PM)^-1 P.
    """
    n = len(rows)
    swaps = []
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            raise InvariantError("matrix is singular")
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            swaps.append((k, pivot))
        top = rows[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                row = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
                row[k] = -f
                rows[i] = row
        top[k] = prev
        prev = p
    for k, pivot in reversed(swaps):
        for row in rows:
            row[k], row[pivot] = row[pivot], row[k]
    sign = (-1) ** len(swaps)
    return sign * prev, [[sign * x for x in row] for row in rows]


def det(matrix):
    """Exact determinant by fraction-free Bareiss elimination: an ``int``
    when every entry is integral, else a ``Fraction``.  A non-square matrix
    raises ``InputError``."""
    rows, scale = _square_integer_rows(matrix)
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
    d = sign * rows[n - 1][n - 1]
    return d if scale == 1 else Fraction(d, scale ** n)


def inverse(matrix):
    """Exact inverse over Fraction, adj M / det M from the Bareiss
    elimination.  A singular matrix raises ``InvariantError``, a non-square
    one ``InputError``."""
    rows, scale = _square_integer_rows(matrix)
    d, adj = _adjugate(rows)
    return tuple(tuple(Fraction(scale * x, d) for x in row) for row in adj)


def int_inverse(matrix):
    """Inverse of a unimodular integer matrix, as integers: adj M / det M,
    which is integral exactly when det M = +-1.  Any other matrix raises
    ``InvariantError`` (a rational one only when its inverse is not
    integral), a non-square one ``InputError``."""
    rows, scale = _square_integer_rows(matrix)
    d, adj = _adjugate(rows)
    inv = [[scale * x for x in row] for row in adj]
    if any(x % d for row in inv for x in row):
        raise InvariantError("matrix is not unimodular")
    return tuple(tuple(x // d for x in row) for row in inv)


def symmetric_signature(matrix):
    """Classify a symmetric matrix S of integers or rationals as one of
    ``positive_definite``, ``positive_semidefinite`` (singular), or
    ``indefinite``, together with the corank (``None`` when indefinite).

    One symmetric Bareiss elimination on the upper triangle of S, scaled to
    integers by a positive factor, in order and without pivoting.  Each
    step divides exactly by the previous nonzero pivot, so a pivot is the
    principal minor on its own row and the earlier pivot rows, and has the
    sign of the matching pivot of S = L D L^T.  A negative pivot makes S
    indefinite.  A zero pivot whose remaining row is nonzero does too,
    since the principal minor [[0, b], [b, c]] has determinant -b^2 < 0.  A
    zero pivot whose remaining row is zero adds one to the corank.  A
    non-square or non-symmetric matrix raises ``InputError``.
    """
    a, _ = _square_integer_rows(matrix)
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise InputError("signature needs a symmetric matrix")
    corank = 0
    prev = 1
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
            f = row[i]
            below = a[i]
            below[i:] = [(p * x - f * y) // prev for x, y in zip(below[i:], row[i:])]
        prev = p
    if corank == 0:
        return "positive_definite", 0
    return "positive_semidefinite", corank
