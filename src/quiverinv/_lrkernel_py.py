"""The Littlewood-Richardson kernel.

Expands a product of Schur functors restricted to a bounded number of rows.
A coefficient c^nu_{lam,mu} counts chains

    lam = nu0 <= nu1 <= ... <= nuk = nu

where step e adds a horizontal strip of mu[e] boxes and the strip row counts
satisfy the ballot condition: entry e+1 boxes in rows <= r+1 never outnumber
entry e boxes in rows <= r.  Such chains are exactly the lattice-word skew
tableaux of shape nu/lam and content mu.

This is the only kernel.  It trusts its input: ``lam`` and ``mu`` are
trimmed partitions, ``maxrows`` a nonnegative int and ``cap`` an int tuple or
None.  The public functions of ``lr`` validate and coerce before calling it.
"""

_NO_CAP = 1 << 30


def schur_mult(lam, mu, maxrows, cap=None):
    """dict mapping partitions nu (trimmed tuples) to c^nu_{lam,mu},
    restricted to partitions with at most ``maxrows`` rows and, when ``cap``
    is given, to nu contained in ``cap`` rowwise."""
    lam = tuple(lam)
    mu = tuple(mu)
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
            for t in range(tmax, -1, -1):
                shape[r] += t
                a_cur[r] = t
                place_row(r + 1, rem - t, cum + t)
                shape[r] -= t
                a_cur[r] = 0

        place_row(0, size, 0)

    place_entry(0, None)
    return results
