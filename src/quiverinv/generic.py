"""Generic representations: generic subdimension vectors, generic hom and
ext, Schur roots, and the canonical decomposition.

Everything here reads dimension vectors alone; no representation is ever
built.  The sampled-representation oracle, which measures hom and ext on
concrete random matrices, lives in the test suite (``tests/oracles.py``).
For an acyclic quiver ``hom(a, b) - ext(a, b)`` is the Euler pairing
``<a, b>``, so hom follows from ext, and ext is computed structurally
through Schofield's theorem, read on either side:

    ext(a, b) = max(-<a', b>  :  a' a generic subdimension vector of a)
              = max(-<a, b - s>  :  s a generic subdimension vector of b)

where a' is a generic subdimension vector of a exactly when
``ext(a', a - a') = 0``, and b - s runs over the generic quotients of b.
So a vector a may be kept as the rows ``<a', -> = a' M`` of its nonzero
generic subdimension vectors, and a vector b as the columns
``<-, q> = M q`` of its nonzero generic quotients q: ext(a, b) = 0 exactly
when every row of a is nonnegative on b, or every column of b on a, a test
that stops at the first negative one.  The recursion is lazy.  A zero test
reads the rows of a if they are cached.  Otherwise it first reads the
Euler form: ext(a, b) = 0 forces <a, b> = hom(a, b) >= 0, and <a, b> is
the first row of a (a' = a) on b and the first column of b (q = b) on a,
so a negative pairing answers before either is expanded.  Then it reads
the columns of b if they are cached, and otherwise expands the vector with
the smaller price (below), a on a tie: a large a against a small b costs
about as much as b.  The stability tests and the decompositions scan the
box of d in lexicographic order and test ext only on the vectors whose
weight can change the answer.  So a vector gets its subdimension vectors,
rows and columns only when some test needs them.  On the matrix's plan,
freed with it, the caches hold the subdimension vectors, the rows and the
columns of each vector expanded, and the canonical decomposition of each
vector asked for; nothing is cached per pair.
``box_limit`` bounds the recursion's total work from a cold cache, as on a
fresh matrix, as if every v <= d were expanded: the points of the
subdimension boxes of all v <= d, the price of d.  The lazy scans usually
do far less, but the price is that of the full expansion, so it refuses the
same inputs.  Every vector either side expands lies below d, and
``ext_generic(a, b)``, which prices a alone, expands b only when b's price
is the smaller, so no side costs more than the price checked.
"""

import itertools
import math
from operator import mul, sub as minus
from dataclasses import dataclass

from .core import dimension_vectors
from .errors import BudgetError, InvariantError, PreconditionError, as_budget
from .linalg import bilinear, dot

BOX_LIMIT = 10**7


def _price(vec):
    """The recursion's work for ``vec`` from a cold cache: the subdimension
    box points of every v <= vec, prod((x + 1)(x + 2) / 2)."""
    work = 1
    for x in vec:
        work *= (x + 1) * (x + 2) // 2
    return work


def _boxed_vectors(euler, box_limit, d, *others):
    """``dimension_vectors`` of a public call, plus a nonnegative integral
    ``box_limit`` and recursion work for ``d`` within it.

    From a cold cache (a fresh matrix) the recursion scans the subdimension
    box of every v <= d, ``_price(d)`` points in all; that total, not the
    box of ``d`` alone, is what ``box_limit`` bounds.  Only ``d`` is priced:
    no vector of ``others`` is expanded unless its price is smaller.
    """
    vecs = dimension_vectors(euler, d, *others)
    box_limit = as_budget(box_limit, "box_limit")
    if _price(vecs[0]) > box_limit:
        raise BudgetError("subdimension box points summed over all v <= d", box_limit)
    return vecs


def generic_subdims(euler, d, box_limit=BOX_LIMIT):
    """All generic subdimension vectors of d, sorted lexicographically.

    d' is included exactly when the generic representation of dimension d
    has a subrepresentation of dimension d', i.e. ext(d', d - d') = 0.
    """
    (dt,) = _boxed_vectors(euler, box_limit, d)
    return _subdims(euler, dt)


def _subdims(euler, dt):
    cache = euler.plan.subdims
    cached = cache.get(dt)
    if cached is None:
        cached = tuple(_generic_subs(euler, dt, lambda sub: True))
        cache[dt] = cached
    return cached


def _generic_subs(euler, dt, wanted):
    """The generic subdimension vectors of d on which ``wanted`` holds, in
    lexicographic order.  ext is tested only on the vectors that ``wanted``
    keeps, so a scan whose answer hangs on a few of them expands only
    those."""
    for sub in itertools.product(*(range(x + 1) for x in dt)):
        if wanted(sub) and _ext_vanishes(euler, sub, tuple(map(minus, dt, sub))):
            yield sub


def _forms(vectors, lines):
    """The forms ``(v . line for line in lines)`` of the nonzero vectors v,
    one per direction, the first seen in each.  M is invertible, so forms
    share a direction only when their vectors do; walked in descending
    order, the first in each direction is the largest multiple, the one
    that the minimum in ext needs."""
    by_direction = {}
    for vec in vectors:
        if any(vec):
            form = tuple(sum(map(mul, vec, line)) for line in lines)
            g = math.gcd(*form)
            by_direction.setdefault(tuple(x // g for x in form), form)
    return tuple(by_direction.values())


def _rows(euler, at):
    """The rows <beta, -> = beta M of the nonzero generic subdimension
    vectors beta of a, one per direction, in reverse lexicographic order of
    beta (beta = a first).

    ext(a, b) = max(0, -min(row . b)) over these rows.  The same number is
    read off the columns of b (``_cols``, the quotient side); ``_side``
    builds the rows of a only when neither side is cached and a's price is
    at most b's, so they never cost more than the price checked.  They are
    cached per vector, never per pair.
    """
    cache = euler.plan.rows
    rows = cache.get(at)
    if rows is None:
        rows = _forms(reversed(_subdims(euler, at)), tuple(zip(*euler.matrix)))
        cache[at] = rows
    return rows


def _cols(euler, bt):
    """The columns <-, q> = M q of the nonzero generic quotient vectors
    q = b - s of b, s a generic subdimension vector of b, one per direction,
    in reverse lexicographic order of q (q = b first).

    ext(a, b) = max(0, -min(a . col)) over these columns, by Schofield's
    theorem read on the quotients of b.  They are cached per vector, never
    per pair.
    """
    cache = euler.plan.cols
    cols = cache.get(bt)
    if cols is None:
        quotients = (tuple(map(minus, bt, sub)) for sub in _subdims(euler, bt))
        cols = _forms(quotients, euler.matrix)
        cache[bt] = cols
    return cols


def _side(euler, at, bt):
    """``(forms, vec)`` with ext(a, b) = max(0, -min(form . vec)): the rows
    of a on b, or the columns of b on a.  A memoised side is read first,
    rows before columns; otherwise the vector with the smaller price is
    expanded, a on a tie.  The price, not the box, decides: a smaller box
    can hide a larger price ((14, 0) against (3, 3)), and ``ext_generic``
    prices a alone."""
    rows = euler.plan.rows.get(at)
    if rows is not None:
        return rows, bt
    cols = euler.plan.cols.get(bt)
    if cols is not None:
        return cols, at
    if _price(bt) < _price(at):
        return _cols(euler, bt), at
    return _rows(euler, at), bt


def _ext_vanishes(euler, at, bt):
    """ext(a, b) == 0: every row of a is nonnegative on b, or every column
    of b on a (early exit).

    Unless the rows of a are memoised, the Euler form answers first:
    ext(a, b) = 0 forces <a, b> = hom(a, b) >= 0, and <a, b> is the first
    row of a (beta = a) on b and the first column of b (q = b) on a, so a
    negative pairing answers as either side would, before one is expanded.
    Then the columns of b, if memoised, and otherwise the side with the
    smaller price (see ``_side``).  Inside a scan of d both vectors lie
    below d, so either side stays within the price that ``box_limit``
    checked.
    """
    # a zero vector answers before either side is asked for: ``_subdims(v)``
    # tests (0, v) and (v, 0) while it builds the set that the rows and the
    # columns of v come from
    if not any(at) or not any(bt):
        return True
    if at not in euler.plan.rows and bilinear(euler.matrix, at, bt) < 0:
        return False
    forms, vec = _side(euler, at, bt)
    for form in forms:
        if sum(map(mul, form, vec)) < 0:
            return False
    return True


def ext_generic(euler, a, b, box_limit=BOX_LIMIT):
    """dim Ext^1 between independent generic representations of a and b."""
    at, bt = _boxed_vectors(euler, box_limit, a, b)
    return _ext(euler, at, bt)


def _ext(euler, at, bt):
    if not any(bt):
        return 0
    # the zero subvector (zero quotient), which has no form, scores 0: ext
    # is never negative
    forms, vec = _side(euler, at, bt)
    return max(0, -min((sum(map(mul, form, vec)) for form in forms), default=0))


def generic_hom_ext(euler, a, b, box_limit=BOX_LIMIT):
    """(hom, ext) between independent generic representations of a and b."""
    at, bt = _boxed_vectors(euler, box_limit, a, b)
    ext = _ext(euler, at, bt)
    hom = euler.euler(at, bt) + ext
    if hom < 0:
        raise InvariantError("negative generic hom dimension")
    return hom, ext


def is_schur_root(euler, d, box_limit=BOX_LIMIT):
    """True when the generic representation of d is indecomposable with
    trivial endomorphisms; equivalently d is stable for its own canonical
    weight, tested on generic subdimension vectors."""
    (dt,) = _boxed_vectors(euler, box_limit, d)
    if not any(dt):
        raise PreconditionError("the zero vector is not a root")
    return _stable(euler, dt, euler.theta(dt))


def _stable(euler, dt, th):
    """The generic representation of d is theta-stable: d is nonzero, theta
    kills d and is negative on every proper nonzero generic subdimension
    vector."""
    if not any(dt) or dot(th, dt) != 0:
        return False
    return not any(
        _generic_subs(
            euler, dt, lambda sub: dot(th, sub) >= 0 and any(sub) and sub != dt
        )
    )


def root_class(euler, d):
    """Tag by the Tits form: 'real' (q=1), 'isotropic' (q=0), 'imaginary'."""
    q = euler.tits(d)
    if q == 1:
        return "real"
    if q == 0:
        return "isotropic"
    if q < 0:
        return "imaginary"
    return "non_root"


@dataclass(frozen=True)
class GenericDecomposition:
    """Canonical decomposition of a dimension vector.

    ``summands`` is a tuple of (root, multiplicity, cls) with roots in sorted
    vertex order; the sum of mult * root recovers the input.
    """

    dimension: tuple
    summands: tuple


def canonical_decomposition(euler, d, box_limit=BOX_LIMIT):
    """Decomposition of the generic representation into Schur summands.

    If d is not a Schur root, the generic representation splits off a
    generic subdimension vector d' with ext vanishing in both directions,
    and the decomposition is the multiset union of the two halves.  The
    refinement loop below scans subdimension vectors in lexicographic order,
    so the output is deterministic; the result itself is unique by the
    theory, which the tests verify against exhaustive search.
    """
    (dt,) = _boxed_vectors(euler, box_limit, d)
    summands = _candecomp_tuple(euler, dt)
    tagged = tuple(
        (root, mult, root_class(euler, root)) for root, mult in summands
    )
    return GenericDecomposition(dt, tagged)


def _candecomp_tuple(euler, dt):
    if not any(dt):
        return ()
    cache = euler.plan.candecomp
    cached = cache.get(dt)
    if cached is not None:
        return cached
    if _stable(euler, dt, euler.theta(dt)):
        result = ((dt, 1),)
        cache[dt] = result
        return result
    # the first proper generic subdimension vector (ext(sub, rest) = 0) with
    # ext(rest, sub) = 0 too; the small sub is expanded before the large rest
    split = next(
        (
            sub
            for sub in _generic_subs(euler, dt, lambda sub: any(sub) and sub != dt)
            if _ext_vanishes(euler, tuple(map(minus, dt, sub)), sub)
        ),
        None,
    )
    if split is None:
        raise InvariantError("non-Schur vector admits no generic splitting")
    left = _candecomp_tuple(euler, split)
    right = _candecomp_tuple(euler, tuple(map(minus, dt, split)))
    result = _merge_summands(left, right)
    cache[dt] = result
    return result


def _merge_summands(left, right):
    counts = {}
    for root, mult in left + right:
        counts[root] = counts.get(root, 0) + mult
    return tuple(sorted(counts.items()))
