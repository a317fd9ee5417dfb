"""Littlewood-Richardson products of Schur functions.

The strip-insertion enumeration lives in ``_lrkernel_py.schur_mult``.  The
public functions here (``partition``, ``schur_product``, ``lr_coefficient``,
``tensor_fold``) validate and coerce their input once and then call two
internals that take plain int tuples: ``_product`` for one product and
``_fold`` for a sorted sequence of trimmed partitions.  Hot callers that
already hold such tuples (``siweights``) call ``_fold`` directly.

All entry points cache aggressively: the weight-space enumeration in
``siweights`` revisits the same small products thousands of times.
"""

from . import _lrkernel_py
from .errors import InputError


def _ints(values, what):
    """A tuple of ints equal to ``values``; fractional or non-numeric
    entries raise ``InputError`` instead of being truncated or parsed."""
    vals = tuple(values)
    try:
        t = tuple(int(x) for x in vals)
    except (TypeError, ValueError):
        t = None
    if t != vals:
        raise InputError(f"{what} entries must be integers: {list(vals)}")
    return t


def _rows(rows):
    r = _ints((rows,), "row bound")[0]
    if r < 0:
        raise InputError(f"row bound must be nonnegative: {rows!r}")
    return r


def _cap(cap):
    return None if cap is None else _ints(cap, "cap")


def partition(parts):
    """Validate and normalize to a trimmed, weakly decreasing tuple."""
    p = _ints(parts, "partition")
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise InputError(f"not weakly decreasing: {list(p)}")
    if p and p[-1] < 0:
        raise InputError("partition parts must be nonnegative")
    return p


_PRODUCT_CACHE = {}


def _product(lam, mu, rows, cap):
    """schur_product on trimmed partitions, an int ``rows`` and an int-tuple
    ``cap`` (or None); the result dict is the cached one."""
    if lam > mu:
        lam, mu = mu, lam
    key = (lam, mu, rows, cap)
    found = _PRODUCT_CACHE.get(key)
    if found is None:
        found = _lrkernel_py.schur_mult(lam, mu, rows, cap)
        _PRODUCT_CACHE[key] = found
    return found


def schur_product(lam, mu, rows, cap=None):
    """Expansion of S_lam * S_mu in at most ``rows`` rows.

    Returns a dict mapping trimmed partitions nu to c^nu_{lam,mu}, keeping
    only nu with at most ``rows`` rows and, when ``cap`` is given, nu
    contained rowwise in ``cap`` (row r at most cap[r], missing rows zero).
    Discarding wider shapes is exact as long as every target coefficient the
    caller extracts lies inside the cap, since c^nu vanishes unless both
    factors fit inside nu.
    """
    return _product(partition(lam), partition(mu), _rows(rows), _cap(cap))


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c^nu_{lam,mu}."""
    lam = partition(lam)
    mu = partition(mu)
    nu = partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = max(len(nu), 1)
    if len(lam) > rows or len(mu) > rows:
        return 0
    return _product(lam, mu, rows, nu).get(nu, 0)


def _fold(lams, rows, cap):
    """tensor_fold on a sorted sequence of trimmed partitions, an int
    ``rows`` and an int-tuple ``cap`` (or None)."""
    acc = {(): 1}
    for lam in lams:
        if not lam:
            continue
        contained = len(lam) <= rows and (
            cap is None
            or all(
                lam[r] <= (cap[r] if r < len(cap) else 0)
                for r in range(len(lam))
            )
        )
        if not contained:
            return {}
        nxt = {}
        for nu, mult in acc.items():
            for out, c in _product(nu, lam, rows, cap).items():
                nxt[out] = nxt.get(out, 0) + mult * c
        acc = nxt
        if not acc:
            break
    return acc


def tensor_fold(lams, rows, cap=None):
    """Expansion of a product of several Schur functions.

    Returns {nu: multiplicity} under the same row/cap trimming rules as
    schur_product.  Factors are folded in sorted order so the cache sees a
    canonical sequence regardless of how the caller discovered them.
    """
    return _fold(sorted(partition(l) for l in lams), _rows(rows), _cap(cap))


def clear_caches():
    _PRODUCT_CACHE.clear()
