"""Small exact linear algebra helpers over the integers and rationals.

Everything in this package that looks like numerical linear algebra is done
here, exactly.  Matrices are sequences of equal-length rows with ``int`` or
``Fraction`` entries; results come back as tuples.  Sizes are tiny (vertex
counts of quivers, representation dimensions), so simple cubic algorithms
on Python ints are the right tool.  Rational input is first scaled to
integers by the lcm of all its denominators.  Then two fraction-free
(Bareiss) eliminations do the work: one echelon elimination for ranks and
kernels, and a symmetric pass without pivoting for the signature of a Tits
form.  Solving with an Euler matrix needs neither: it is unitriangular, and
``EulerMatrix.solve_left`` and ``solve_right`` substitute along its rows.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError


def _integer_rows(matrix):
    """The rows of a matrix as lists of ints, scaled by the positive lcm L
    of the denominators of its entries, together with L."""
    rows = [list(row) for row in matrix]
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    fracs = [[Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in fracs for x in row))
    return [[int(x * scale) for x in row] for row in fracs], scale


def _eliminate(rows, ncols, clear_above):
    """Fraction-free (Bareiss) elimination of an integer matrix, given as a
    list of row lists that it changes in place: ``(pivot columns, last pivot
    D)``, with D = 1 when there is none.

    A column takes the first nonzero entry on or below the current row as
    its pivot, or has none.  Each step multiplies the rows below by the
    pivot, subtracts a multiple of the pivot row and divides exactly by the
    previous pivot, so every entry stays an integer (a minor of the
    matrix).  The rows below change in place and only right of the pivot
    column, where they are not already zero.  With ``clear_above`` the rows
    above are reduced the same way, whole (their entries in earlier free
    columns scale too), and the matrix ends as D times its reduced row
    echelon form: every pivot equals D.
    """
    nrows = len(rows)
    pivots = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        if clear_above:
            for i in range(r):
                f = rows[i][col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        pivots.append(col)
        prev = p
    return pivots, prev


def rank(matrix):
    """Exact rank: the number of pivots of the Bareiss elimination."""
    rows, _ = _integer_rows(matrix)
    return len(_eliminate(rows, len(rows[0]) if rows else 0, False)[0])


def kernel_basis(matrix):
    """Primitive integer basis of the right kernel {x : M x = 0}: one vector
    per column without a pivot, positive there, in column order.

    On D times the reduced row echelon form the vector of a free column f
    is D at f and minus row r's entry at f at the pivot column of row r,
    divided by its content with the sign of D."""
    rows, _ = _integer_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    pivots, last = _eliminate(rows, ncols, True)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = last
        for row, col in zip(rows, pivots):
            vec[col] = -row[f]
        g = gcd(*vec) if last > 0 else -gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return tuple(basis)


def dot(a, b):
    return sum(map(mul, a, b))


def bilinear(matrix, x, y):
    """x^T M y for int tuples x and y, skipping the zero entries of x."""
    return sum(a * sum(map(mul, row, y)) for a, row in zip(x, matrix) if a)


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vecmat(v, a):
    return tuple(
        sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))
    )


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
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("signature needs a square matrix")
    a, _ = _integer_rows(matrix)
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
