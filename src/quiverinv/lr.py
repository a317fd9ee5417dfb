"""Littlewood-Richardson products of Schur functions.

A coefficient c^nu_{lam,mu} counts chains

    lam = nu0 <= nu1 <= ... <= nuk = nu

where step e adds a horizontal strip of mu[e] boxes and the strip row counts
satisfy the ballot condition: entry e+1 boxes in rows <= r+1 never outnumber
entry e boxes in rows <= r.  Such chains are exactly the lattice-word skew
tableaux of shape nu/lam and content mu; ``_schur_mult`` enumerates them.
Two consequences of the ballot condition prune the walk.  Entry e never
enters a row above row e, so its strip starts at row e.  And once entry e
is placed, row e is final: when the factor sizes fill the cap exactly, the
cap is the only possible target, so the strip of entry e must bring row e
up to the cap.

In at most two rows no walk is needed.  Padding the factors to (l1, l2) and
(m1, m2), the GL_2 Clebsch-Gordan rule (Fulton-Harris, *Representation
Theory*, section 11) gives S_lam * S_mu restricted to two rows as

    sum over 0 <= j <= min(l1 - l2, m1 - m2) of S_(l1 + m1 - j, l2 + m2 + j),

each term with coefficient 1.

The public functions (``partition``, ``schur_product``, ``lr_coefficient``,
``tensor_fold``) validate and coerce their input once and then call
internals that take plain int tuples: ``_product`` for one product,
``_times`` for an expansion times one Schur function, ``_fold`` for a
sorted sequence of trimmed partitions (one ``_times`` per factor), and
``_coef`` for a single coefficient.  Hot callers that already hold such
tuples (``siweights``) call ``_times``, ``_fold`` and ``_coef`` directly.
``_coef`` reads nu off ``_product`` over len(nu) rows capped at nu, which
the sizes fill exactly, so ``_product`` holds the only closed form: with
``rows <= 2`` it answers by the two-row rule, and with three or more rows
it calls the one walk, ``_schur_mult``.

Walked answers are cached in ``_PRODUCT_CACHE``: the weight-space
enumeration in ``siweights`` revisits the same products and coefficients
thousands of times.  Closed-form answers are computed afresh on every call
and never stored, so the cache holds only results of three or more rows.
"""

from .errors import InputError, as_int


def _rows(rows):
    r = as_int(rows, "row bound")
    if r < 0:
        raise InputError(f"row bound must be nonnegative: {rows!r}")
    return r


def _cap(cap):
    return None if cap is None else tuple(as_int(x, "cap entry") for x in cap)


def partition(parts):
    """Validate and normalize to a trimmed, weakly decreasing tuple."""
    p = tuple(as_int(x, "partition entry") for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise InputError(f"not weakly decreasing: {list(p)}")
    if p and p[-1] < 0:
        raise InputError("partition parts must be nonnegative")
    return p


_NO_CAP = 1 << 30


def _schur_mult(lam, mu, maxrows, cap):
    """The strip-insertion enumeration: a dict mapping partitions nu
    (trimmed tuples) to c^nu_{lam,mu}, restricted to partitions with at most
    ``maxrows`` rows and, when ``cap`` is given, to nu contained in ``cap``
    rowwise.

    It trusts its input: ``lam`` and ``mu`` are trimmed partitions,
    ``maxrows`` a nonnegative int and ``cap`` an int tuple or None.  The
    public functions validate and coerce before reaching it."""
    if len(lam) > maxrows or len(mu) > maxrows:
        return {}
    # fewer strips = shallower search; the coefficient is symmetric
    if len(mu) > len(lam):
        lam, mu = mu, lam
    capl = [_NO_CAP] * maxrows
    if cap is not None:
        for r in range(maxrows):
            capl[r] = cap[r] if r < len(cap) else 0
    shape = list(lam) + [0] * (maxrows - len(lam))
    for r in range(maxrows):
        if shape[r] > capl[r]:
            return {}
    # a cap the factor sizes fill exactly admits no target but the cap
    tight = cap is not None and sum(capl) == sum(lam) + sum(mu)
    results = {}
    k = len(mu)
    nrows = maxrows

    def place_entry(e, a_prev):
        if e == k:
            end = nrows
            while end and not shape[end - 1]:
                end -= 1
            key = tuple(shape[:end])
            results[key] = results.get(key, 0) + 1
            return
        size = mu[e]
        old = shape[:]
        if e:
            prefix = [0] * (nrows + 1)
            for r in range(nrows):
                prefix[r + 1] = prefix[r] + a_prev[r]
        else:
            prefix = None
        a_cur = [0] * nrows

        def place_row(r, rem, cum):
            if rem == 0:
                place_entry(e + 1, a_cur)
                return
            if r == nrows:
                return
            tmax = min(rem, capl[r] - shape[r])
            if r:
                tmax = min(tmax, old[r - 1] - shape[r], shape[r - 1] - shape[r])
            if prefix is not None:
                tmax = min(tmax, prefix[r] - cum)
            # no later entry reaches row e, so under a tight cap the strip
            # must fill it
            tmin = capl[r] - shape[r] if tight and r == e else 0
            for t in range(tmax, tmin - 1, -1):
                shape[r] += t
                a_cur[r] = t
                place_row(r + 1, rem - t, cum + t)
                shape[r] -= t
                a_cur[r] = 0

        # by the ballot condition entry e never enters a row above row e
        place_row(e, size, 0)

    place_entry(0, None)
    return results


def _coef(lam, mu, nu):
    """lr_coefficient on trimmed partitions: the entry nu of the product
    over len(nu) rows capped at nu, by the two-row rule when nu has at most
    two rows and by the walk otherwise."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    return _product(lam, mu, len(nu), nu).get(nu, 0)


_PRODUCT_CACHE = {}


def _product(lam, mu, rows, cap):
    """schur_product on trimmed partitions, an int ``rows`` and an int-tuple
    ``cap`` (or None).  With ``rows <= 2`` the result is built afresh by the
    two-row rule; otherwise it is the cached dict of the strip walk."""
    if rows < 3:
        if len(lam) > rows or len(mu) > rows:
            return {}
        l1, l2 = (lam + (0, 0))[:2]
        m1, m2 = (mu + (0, 0))[:2]
        a, b = l1 + m1, l2 + m2
        # in one row only the term j = 0 has no second row
        lo, hi = 0, min(l1 - l2, m1 - m2) if rows == 2 else 0
        if cap is not None:
            c1, c2 = (cap + (0, 0))[:2]
            lo, hi = max(0, a - c1), min(hi, c2 - b)
        return {
            ((a - j, b + j) if b + j else (a,) if a else ()): 1
            for j in range(lo, hi + 1)
        }
    if lam > mu:
        lam, mu = mu, lam
    key = (lam, mu, rows, cap)
    found = _PRODUCT_CACHE.get(key)
    if found is None:
        found = _schur_mult(lam, mu, rows, cap)
        _PRODUCT_CACHE[key] = found
    return found


def schur_product(lam, mu, rows, cap=None):
    """Expansion of S_lam * S_mu in at most ``rows`` rows.

    Returns a new dict mapping trimmed partitions nu to c^nu_{lam,mu}, keeping
    only nu with at most ``rows`` rows and, when ``cap`` is given, nu
    contained rowwise in ``cap`` (row r at most cap[r], missing rows zero).
    Discarding wider shapes is exact as long as every target coefficient the
    caller extracts lies inside the cap, since c^nu vanishes unless both
    factors fit inside nu.
    """
    return dict(_product(partition(lam), partition(mu), _rows(rows), _cap(cap)))


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c^nu_{lam,mu}."""
    return _coef(partition(lam), partition(mu), partition(nu))


def _times(acc, lam, rows, cap):
    """The expansion ``acc`` ({nu: multiplicity}) times S_lam, over at most
    ``rows`` rows and capped at ``cap`` (or None), as a new dict."""
    out = {}
    for nu, mult in acc.items():
        for key, c in _product(nu, lam, rows, cap).items():
            out[key] = out.get(key, 0) + mult * c
    return out


def _fold(lams, rows, cap):
    """tensor_fold on a sorted sequence of trimmed partitions, an int
    ``rows`` and an int-tuple ``cap`` (or None)."""
    acc = None
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
        if acc is None:
            # the product with S_() is the factor itself
            acc = {lam: 1}
            continue
        acc = _times(acc, lam, rows, cap)
        if not acc:
            break
    return {(): 1} if acc is None else acc


def tensor_fold(lams, rows, cap=None):
    """Expansion of a product of several Schur functions.

    Returns {nu: multiplicity} under the same row/cap trimming rules as
    schur_product.  Factors are folded in sorted order so the cache sees a
    canonical sequence regardless of how the caller discovered them.
    """
    return _fold(sorted(partition(l) for l in lams), _rows(rows), _cap(cap))


def clear_caches():
    _PRODUCT_CACHE.clear()
