"""Dimensions of semi-invariant weight spaces, with checkers built on them.

The coordinate ring of the representation space decomposes, arrow by arrow,
into Schur-functor blocks indexed by one partition per arrow (Cauchy).  A
weight-theta semi-invariant contributes to the block exactly when, at every
vertex, the tensor product of the incoming Schur factors matches the product
of the outgoing ones twisted by the theta(v)-th power of the determinant.
Dual factors never appear explicitly: pairing S_nu against the dual block
shifts the target partition by theta(v) along the full column, which is the
determinant-power bookkeeping, and the per-vertex multiplicity becomes

    sum_nu  c_nu(tail factors) * c_{nu - theta(v)*1}(head factors)

with nu running over partitions with at most d(v) rows.  Tails-only and
heads-only vertices degenerate to a single coefficient of the rectangle
R = (|theta(v)|^d(v)); a heads-only side is read as the tails-only side of
-theta(v).  Since c^R_{alpha,beta} is 1 when beta is the complement of
alpha in R and 0 otherwise, that coefficient is the coefficient of the
complement of the largest factor in the product of the others.  Every
multiplicity is thus read one target at a time: the factors but one fold
capped at the target, and each partition of that fold meets the last
factor in a single LR coefficient (``lr._coef``).  At a vertex with both
sides only the side with fewer factors is folded whole; each nu of it,
shifted by theta(v), is one target on the other side.

The block is nonzero only when the partition sizes s_a = |lambda_a| satisfy
the flow-balance equations sum_out s - sum_in s = theta(v) d(v) at every
vertex; on an acyclic quiver that flow polytope is bounded, so the whole
enumeration is finite.

Parallel arrows (same tail, same head) meet the same two vertices, and each
vertex multiplicity reads its partitions sorted, so every ordering of the
partitions on a bundle of parallel arrows gives the same block.  The sum
therefore runs over the quiver's bundles: a flow fixes the total size on
each bundle, a block takes one multiset of partitions per bundle, and it
counts once per ordering of that multiset over the bundle's arrows.  A
generalized Kronecker quiver has one bundle, hence a single flow per weight.
One depth-first walk lists every bundle's multisets (``_multisets``).

The bundle flows are read off a spanning forest of the bundles, kept in
the quiver's plan: the supplies theta(v) d(v) fix the flow on every tree
bundle once the flows on the other bundles, one free coordinate per
independent cycle, are chosen.  Where the bundles form a forest (Dynkin
quivers, D~n, E~n, Kronecker quivers) a weight has at most one flow; A~n
has one free coordinate.

Every factor of a rectangle coefficient fits inside the rectangle, so a
bundle that meets a one-sided vertex v only takes partitions of width at
most |theta(v)|; the sum skips the wider ones, which give that vertex
multiplicity 0.

A one-sided vertex v fed by a single bundle (a lone end) reads nothing
but that bundle's multiset M, and its multiplicity is c^R(M).  Such a
bundle is a leaf: it serves v, which leaves the loop over vertices, and
since a flow puts w * d(v) on it for the width w of v, it takes the same
choices on every flow.  Its row bound says which.  With one row, because
its other end u has d(u) = 1, every partition on it is a single row, c^R
of one-row factors is a Kostka number K_{R,alpha}, and the multisets,
each counted once per ordering, add up to the sum of K_{R,alpha} over the
compositions alpha of |R| into p parts, for p arrows.  By the Cauchy
identity that is s_R(1^p), the dimension of the GL_p module of highest
weight R, read off MacMahon's box formula (``_rect_dim``; hook-content
formula, Stanley, EC2 7.21): one number and no multiset.  With d(v) >= 2
rows, as many as the bundle carries, the bundle is bound to R: the walk
carries the product of all parts but the last, capped at R, and each term
of that product gives the last part, its complement in R, with c^R as
coefficient.  Only the multisets with c^R != 0 are visited, each weighed
by c^R.  When u is such an end too (a twin), the bundle is a whole
component, so a flow gives u the same rectangle and c^R squared serves
both ends: the walk sums weight * (c^R)^2 to one number and builds no
multiset.  A vertex of dimension one is never visited: its multiplicity
is 1 on every flow.

Budgets count ordered partition tuples, one partition per arrow, as if no
arrows were bundled and no width were bounded.  One pass over the bundle
flows both sizes the enumeration (by cached partition counts, before any
partition list is built) and keeps the flows that carry tuples; the Cauchy
sum then runs over the kept flows only.  Both totals are sums, so neither
the budget nor the answer depends on the order in which the flows arrive.

Only the support of d matters: if d vanishes off a full subquiver Q',
SI(Q,d)_theta = SI(Q',d|Q')_{theta|Q'}, and when theta|Q' = 0 that is the
ring of invariants of GL(d|Q') on rep(Q',d|Q'), which on an acyclic quiver
is the constants (Derksen-Weyman).  So a weight that vanishes on the
support of d, n = 0 on every ray among them, has dimension 1 along its
whole ray with no flow pass and no sum.  The sum would visit one tuple
there, every partition empty, and that one tuple is still charged: at
budget 0 such a weight raises BudgetError, as the flow pass would.

When d vanishes somewhere, every weight that agrees with theta on the
support of d has the same dimension, so the other answers for such a d are
memoised on the matrix's plan (``sidims``), one entry per ray: keyed by d
and the primitive direction p of theta on its support, it maps each
multiple m of p asked so far to its price, the least budget under which
the sum runs, and its dimension.  A memoised answer is returned only when
the call's budget covers its price, so the same inputs raise BudgetError
as on a fresh matrix; an answer from the pivot side (see ``si_dim``) is
never stored, so ``circ`` keeps its two sides independent.  A ray of
``si_table`` or ``polynomiality_check`` whose points are all held within
the budget is read in one lookup, with no layout built; any other ray
derives its key once and hands each point its multiple.  A d with no zero
entry is not memoised: its entry would serve only the same weight asked
again.

What both read of the dimension vector alone (bundle row bounds, parallel
bundles, the vertex sides, their one-sided ends and the leaves) is its
layout, built once per vector: once per call of ``si_dim`` and per side
of ``circ``, at most once per ray of ``si_table`` and
``polynomiality_check``, and once per vector scanned by the wild search.

A sum that the literal side would run above ``PIVOT_THRESHOLD`` tuples,
and that the pivot of ``si_dim`` does not take, may be moved to a smaller
vector by Bernstein-Gelfand-Ponomarev reflections (``_reduce``): a sink x
with theta(x) <= 0, or a source with theta(x) >= 0, whose reflected
dimension sum_{arrows at x} d(other end) - d(x) lies in [0, d(x)), is
reflected, arrows at x reversed, theta(x) negated and a_xy theta(x) added
to each neighbour y.  The dimension is unchanged; without the sign of
theta(x) it is not.  The reflected side is sized like the pivot side and
summed only when it is cheaper; pricing and refusals stay the literal
side's, and the reflected quivers are kept on the plan (``reflections``).
"""

import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import generic, linalg, lr
from .core import EulerMatrix, Quiver, classify_path_algebra, dimension_vectors
from .errors import (
    BudgetError,
    InputError,
    InvariantError,
    PreconditionError,
    as_budget,
    as_int,
)

DEFAULT_BUDGET = 5_000_000

_PARTS_CACHE = {}
_COUNT_CACHE = {}
_TUPLE_COUNT_CACHE = {}


def clear_caches():
    _PARTS_CACHE.clear()
    _COUNT_CACHE.clear()
    _TUPLE_COUNT_CACHE.clear()


def count_partitions(size, rows):
    """Number of partitions of ``size`` with at most ``rows`` parts.

    Each row bound keeps one table of counts by size, filled part size by
    part size, p_k(s) = p_{k-1}(s) + p_k(s - k), with k up to the smaller
    of ``rows`` and the table's largest size, since no larger part fits.
    A size beyond the table rebuilds it at twice that size.
    """
    if size == 0:
        return 1
    if rows <= 0 or size < 0:
        return 0
    table = _COUNT_CACHE.get(rows)
    if table is None or len(table) <= size:
        top = 2 * size
        table = [1] + [0] * top
        for k in range(1, min(rows, top) + 1):
            for s in range(k, top + 1):
                table[s] += table[s - k]
        _COUNT_CACHE[rows] = table
    return table[size]


def partitions_bounded(size, rows, width=None):
    """All partitions of ``size`` with at most ``rows`` parts, and with no
    part above ``width`` when it is given, as a tuple.

    Parts are positive, so a negative ``width`` leaves the empty partition
    alone, as ``width = 0`` does; a ``width`` of ``size`` or more bounds
    nothing.
    """
    if width is None or width > size:
        width = size
    elif width < 0:
        width = 0
    key = (size, rows, width)
    found = _PARTS_CACHE.get(key)
    if found is not None:
        return found
    out = []

    def rec(remaining, max_part, slots, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0 or max_part == 0:
            return
        cap = min(max_part, remaining)
        for p in range(cap, 0, -1):
            if p * slots < remaining:
                break
            prefix.append(p)
            rec(remaining - p, p, slots - 1, prefix)
            prefix.pop()

    rec(size, width, rows, [])
    result = tuple(out)
    _PARTS_CACHE[key] = result
    return result


def _count_tuples(total, p, rows):
    """Number of ordered p-tuples of partitions, each with at most ``rows``
    parts, whose sizes sum to ``total``: the coefficient of x^total in the
    p-th power of the generating function of those partitions."""
    if p == 1:
        return count_partitions(total, rows)
    key = (total, p, rows)
    found = _TUPLE_COUNT_CACHE.get(key)
    if found is None:
        base = [count_partitions(s, rows) for s in range(total + 1)]
        power = base
        for _ in range(p - 2):
            power = [
                sum(base[s] * power[t - s] for s in range(t + 1))
                for t in range(total + 1)
            ]
        found = sum(base[s] * power[total - s] for s in range(total + 1))
        _TUPLE_COUNT_CACHE[key] = found
    return found


def _multisets(total, p, rows, width=None, rect=None, summed=False):
    """Every multiset of p partitions, each with at most ``rows`` parts and
    none above ``width`` (see ``partitions_bounded``), whose sizes sum to
    ``total``, as ``(weight, parts)`` pairs.

    ``parts`` is the multiset as a sorted tuple and ``weight`` is its number
    of orderings, p! / prod(m!) over the multiplicities m of its distinct
    partitions; the weights sum to the number of ordered p-tuples of such
    partitions, ``_count_tuples(total, p, rows)`` when nothing bounds the
    width.  With ``rect = (dv, w)``, dv >= 1, only the multisets on which
    the rectangle R = (w^dv) has a nonzero coefficient c^R are listed, and
    the weight is the number of orderings times c^R.  With ``rect`` and
    ``summed`` they are not listed but summed in the walk, to the single
    choice ``(S, ())`` with S the sum of orderings * (c^R)^2 over them, or
    to no choice when S is 0: a bundle whose two ends both read c^R.

    Parts are chosen depth-first in (size, partition) order, so the last
    one is the largest in size and takes the boxes left.  Without ``rect``
    it is any partition of them.  With it the product of the others is
    carried along, capped at R (``lr._times``), and a prefix whose product
    is empty is cut there.  c^R_{nu,mu} is 1 when mu is the complement of
    nu in R and 0 otherwise, so each term nu of the last product, with
    coefficient c, gives the one last part that completes it, the
    complement of nu, at c^R = c.  For p = 1 that forces the rectangle
    itself, and for p = 2 it pairs each partition with its complement.  A
    summed walk builds that last part only where it is read: on a size tie,
    to keep the (size, partition) order and weigh a run, and where ``rows``
    or ``width`` may exclude it.
    """
    if width is None or width > total:
        width = total
    elif width < 0:
        width = 0
    if rect is None:
        if p == 1:
            return [(1, (lam,)) for lam in partitions_bounded(total, rows, width)]
    else:
        dv, w = rect
        if w < 0 or total != w * dv:
            return []
        # no part of a multiset with c^R != 0 is wider or taller than R
        rows, width = min(rows, dv), min(width, w)
        box = (w,) * dv if w else ()
        if p == 1:
            if len(box) > rows or w > width:
                return []
            return [(1, ())] if summed else [(1, (box,))]
        # the last part is at most width wide only when row dv of its
        # complement nu reaches w - width
        floor = w - width
        # where no last part can be too tall or too wide, a summed walk
        # reads it only on a size tie
        lean = summed and rows >= dv and not floor
    out = []
    prefix = []
    found = 0

    def rec(i, remaining, acc, size, index, weight, run):
        nonlocal found
        # the parts still to choose, this one included, are no smaller,
        # and none holds more than rows * width boxes
        low = max(size, remaining - (p - 1 - i) * rows * width)
        for s in range(low, remaining // (p - i) + 1):
            lams = partitions_bounded(s, rows, width)
            for j in range(index if s == size else 0, len(lams)):
                lam = lams[j]
                nxt = lr._times(acc, lam, dv, box) if rect and lam else acc
                if not nxt:
                    continue
                r = run + 1 if i and s == size and j == index else 1
                prefix.append(lam)
                if i < p - 2:
                    rec(i + 1, remaining - s, nxt, s, j, weight // r, r)
                    prefix.pop()
                    continue
                # the last part; within a size the order is decreasing, as
                # listed by partitions_bounded, so on a tie it is no larger
                # than lam, and lam once more lengthens its run
                left = remaining - s
                tie = left == s
                if rect is None:
                    lasts = partitions_bounded(left, rows, width)
                    for mu in lasts[j:] if tie else lasts:
                        wt = weight // r
                        if mu == lam:
                            wt //= r + 1
                        out.append((wt, tuple(sorted(prefix + [mu]))))
                    prefix.pop()
                    continue
                # one last part per term of the product
                if lean and not tie:
                    found += weight // r * sum(c * c for c in nxt.values())
                    prefix.pop()
                    continue
                for nu, c in nxt.items():
                    if floor and (len(nu) < dv or nu[-1] < floor):
                        continue
                    mu = _complement(nu, dv, w)
                    if len(mu) > rows:
                        continue
                    wt = weight // r
                    if tie:
                        if mu > lam:
                            continue
                        if mu == lam:
                            wt //= r + 1
                    if summed:
                        found += wt * c * c
                    else:
                        out.append((wt * c, tuple(sorted(prefix + [mu]))))
                prefix.pop()

    rec(0, total, {(): 1}, 0, 0, math.factorial(p), 0)
    if summed:
        return [(found, ())] if found else []
    return out


def _shift(nu, dv, m):
    """nu - m * (1,...,1) over dv rows, trimmed, or None when not a partition."""
    padded = list(nu) + [0] * (dv - len(nu))
    if m > 0 and padded[-1] < m:
        return None
    shifted = [x - m for x in padded]
    while shifted and shifted[-1] == 0:
        shifted.pop()
    return tuple(shifted)


def _complement(lam, dv, w):
    """The complement of ``lam`` in the rectangle (w^dv), rotated to a
    partition and trimmed, or None when ``lam`` does not fit inside it."""
    if len(lam) > dv or (lam and lam[0] > w):
        return None
    out = [w] * (dv - len(lam)) + [w - x for x in reversed(lam)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _coefficient(target, factors, dv):
    """The coefficient of S_target in the product of the sorted, nonempty
    ``factors``, over at most ``dv`` rows.

    All factors but the last fold capped at ``target``, since c^target
    vanishes unless both of its factors fit inside target; each alpha of
    that fold then meets the last factor in one LR coefficient."""
    if sum(map(sum, factors)) != sum(target):
        return 0
    if not factors:
        return 1
    last = factors[-1]
    if len(factors) == 1:
        return 1 if last == target else 0
    if len(factors) == 2:
        return lr._coef(factors[0], last, target)
    total = 0
    for alpha, c in lr._fold(factors[:-1], dv, target).items():
        total += c * lr._coef(alpha, last, target)
    return total


def _rect_mult(dv, w, factors):
    """c^R(factors): the multiplicity of R = (w^dv), w >= 0, in the product
    of the sorted, nonempty ``factors``.

    c^R_{alpha,beta} is 1 when beta is the complement of alpha in R and 0
    otherwise, so c^R(factors) is the coefficient of the complement of the
    last (largest) factor in the product of the others: a target far
    smaller than R.
    """
    if not factors:
        return 1 if w * dv == 0 else 0
    rest = _complement(factors[-1], dv, w)
    return 0 if rest is None else _coefficient(rest, factors[:-1], dv)


def _rect_dim(p, dv, w):
    """s_R(1^p) for the rectangle R = (w^dv), w >= 0: the dimension of the
    GL_p module of highest weight R, and the sum of the Kostka numbers
    K_{R,alpha} over the compositions alpha of w * dv into p parts.

    R is empty when w = 0, whatever dv is; otherwise R has dv rows and
    vanishes on p variables when dv > p.  Else MacMahon's box formula,
    prod over i <= dv and j <= p - dv of (w + i + j - 1) / (i + j - 1),
    in exact integers.
    """
    if w == 0:
        return 1
    if dv > p:
        return 0
    num = den = 1
    for i in range(1, dv + 1):
        for j in range(1, p - dv + 1):
            num *= w + i + j - 1
            den *= i + j - 1
    return num // den


def _vertex_mult(dv, tv, tails, heads):
    """Multiplicity of det^tv in (tail product) tensor (head product)^*.

    A heads-only side at tv is read as the tails-only side at -tv, and a
    one-sided multiplicity is ``_rect_mult`` of the rectangle (tv^dv).
    At a vertex with both sides only the side with fewer factors is folded,
    uncapped; each nu of that fold, shifted by the determinant power, is a
    single target on the other side, read by ``_coefficient``.
    """
    if not tails:
        tv, tails, heads = -tv, heads, ()
    tails = tuple(lam for lam in tails if lam)
    heads = tuple(lam for lam in heads if lam)
    if not heads:
        return _rect_mult(dv, tv, tails) if tv >= 0 else 0
    # sum_nu c_nu(tails) * c_{nu - tv*1}(heads), read from either side
    if len(heads) < len(tails):
        tails, heads, tv = heads, tails, -tv
    result = 0
    for nu, c in lr._fold(tails, dv, None).items():
        target = _shift(nu, dv, tv)
        if target is not None:
            result += c * _coefficient(target, heads, dv)
    return result


def _flows(plan, supply):
    """Nonnegative bundle flows with prescribed divergence.

    supply[v] = (sum of flows out of v) - (sum of flows in), fixed per
    vertex, indexed in sorted vertex order; each flow is an int tuple over
    the plan's bundles, the total carried by each bundle's parallel arrows.

    The plan's spanning forest gives every such flow as base + sum t_i *
    row_i: ``base`` puts on each tree bundle the net supply of one of its
    sides, and the free coordinates t are the flows on the other bundles.
    With no free coordinate (Dynkin quivers, D~n, E~n, Kronecker quivers)
    the flow is fixed and only its signs are checked.  Otherwise each free
    coordinate runs over 0 <= t <= the sum of the positive supplies (no
    bundle of a nonnegative flow on an acyclic quiver carries more),
    narrowed by the tree bundles that no later coordinate touches.  The
    last coordinate, the only one on A~n, thus takes an exact interval, and
    only flows are yielded.
    """
    for comp in plan.components:
        if sum(map(supply.__getitem__, comp)):
            return
    flow = [0] * len(plan.bundles)
    for k, sign, far, bridge in plan.tree:
        # most far sides are a single leaf
        f = sum(map(supply.__getitem__, far)) if len(far) > 1 else supply[far[0]]
        if sign < 0:
            f = -f
        if f < 0 and bridge:
            return
        flow[k] = f
    cycles = plan.cycles
    if not cycles:
        yield tuple(flow)
        return
    bound = sum(s for s in supply if s > 0)
    yield from _free_flows(flow, cycles, 0, bound)


def _free_flows(flow, cycles, i, bound):
    """The flows for coordinates i, i + 1, ... of ``cycles``, with the
    earlier ones already added into ``flow``; ``flow`` is restored after."""
    j, row, closing = cycles[i]
    lo, hi = 0, bound
    for k, c in closing:
        f = flow[k]
        if c > 0:
            if -f > lo:
                lo = -f
        elif f < hi:
            hi = f
    if lo > hi:
        return
    last = i + 1 == len(cycles)
    for k, c in row:
        flow[k] += c * lo
    for t in range(lo, hi + 1):
        flow[j] = t
        if last:
            yield tuple(flow)
        else:
            yield from _free_flows(flow, cycles, i + 1, bound)
        for k, c in row:
            flow[k] += c
    for k, c in row:
        flow[k] -= c * (hi + 1)
    flow[j] = 0


PIVOT_THRESHOLD = 10_000


def _pivot_vector(euler, theta):
    """The e with theta = -<-, e>, when it is a genuine dimension vector.
    The Euler matrix of an acyclic path algebra is unitriangular in a
    topological order, so one back-substitution gives e, and e is integral."""
    e = euler.solve_right(tuple(-t for t in theta))
    if any(x < 0 for x in e):
        return None
    return e


def _reflected(euler, x):
    """The Euler matrix of the quiver with every arrow at vertex index x
    reversed, kept on the plan of ``euler``; the new matrix keeps ``euler``
    under x in turn, so reflecting back at x returns it, memos and all.
    Vertex ids, hence the sorted order and every index, are unchanged."""
    found = euler.plan.reflections.get(x)
    if found is None:
        quiver = euler.quiver
        vx = euler.order[x]
        arrows = tuple(
            (a, h, t) if vx in (t, h) else (a, t, h) for a, t, h in quiver.arrows
        )
        found = EulerMatrix(Quiver(quiver.vertices, arrows, quiver.name))
        euler.plan.reflections[x] = found
        found.plan.reflections[x] = euler
    return found


def _reduce(euler, dt, th):
    """``(euler', dt', th')`` with dim SI(Q',dt')_th' = dim SI(Q,dt)_th
    and |dt'| < |dt|, from Bernstein-Gelfand-Ponomarev reflections, or
    None when no reflection applies.

    A sink x with th(x) <= 0, or a source with th(x) >= 0, is reflected
    when its reflected dimension dt'(x), the sum of dt over the arrows at
    x less dt(x), satisfies 0 <= dt'(x) < dt(x): the arrows at x turn
    round, th'(x) = -th(x), and th'(y) = th(y) + a_xy th(x) for each of
    the a_xy arrows between x and a neighbour y.  Without the sign of th(x)
    the identity fails.  The first vertex in sorted order that qualifies is
    reflected, and the quiver it gives is searched again; |dt| falls at
    every step, so the search ends.
    """
    reduced = None
    while True:
        plan = euler.plan
        for x, tails, heads in plan.incidence:
            sx = th[x]
            if (tails and heads) or (sx < 0 if tails else sx > 0):
                continue
            arms = [
                (h if t == x else t, p)
                for t, h, p in map(plan.bundles.__getitem__, tails or heads)
            ]
            bx = sum(p * dt[y] for y, p in arms) - dt[x]
            if 0 <= bx < dt[x]:
                break
        else:
            return reduced
        dt = dt[:x] + (bx,) + dt[x + 1 :]
        moved = list(th)
        moved[x] = -sx
        for y, p in arms:
            moved[y] += p * sx
        th = tuple(moved)
        euler = _reflected(euler, x)
        reduced = euler, dt, th


def _layout(plan, dt):
    """What the flow pass and the Cauchy sum read of the dimension vector
    ``dt``, whatever the weight: ``(shape, parallel, sides, ends,
    leaves)``.

    ``shape`` gives each bundle's row bound min(d(tail), d(head)) and
    number of arrows, and ``parallel`` the ``(position, arrows)`` of each
    bundle of two or more arrows.  ``sides`` gives the ``(v, d(v), tail
    bundles, head bundles)`` of each vertex that an arrow touches, that no
    leaf serves, and where d(v) >= 2.  Where d(v) = 0 the multiplicity is
    1 whatever it is given.
    Where d(v) = 1 it is 1 on every flow: each partition at v then has at
    most one row, S_lam(k) is det^|lam|, and the flow balances the sizes
    at v to theta(v).
    ``ends`` is the plan's ``(position, v, sign)`` of each bundle end at a
    one-sided vertex (sign +1 at a vertex with tails only, -1 at one with
    heads only): every partition on the bundle must fit inside the
    rectangle (|theta(v)|^d(v)) there, so its width is at most
    sign * theta(v).  Where d(v) vanishes, the flows that carry tuples put
    nothing on the bundle, and the empty partition fits any width.

    ``leaves`` lists a ``(position, v, sign, d(v), twin)`` for each bundle
    that serves one of the plan's ``lone`` ends v, met by no other bundle,
    and its twin end if it has one: no other vertex reads its multisets,
    and the ends it serves are not in ``sides``.  The bundle's row bound
    says how v reads them.  With one row, because the other end has
    dimension 1, their sum at v is the closed form ``_rect_dim``.  With two
    or more, v has exactly as many rows, and the multisets are enumerated
    bound to its rectangle (``_multisets`` with ``rect``); an end with more
    rows leaves the complement of most product terms too tall for the
    bundle, and binding it costs more than it prunes.  When the other end u
    also qualifies, ``twin`` is its ``(u, sign)``: the bundle is then a
    whole component, each weight with a flow gives u the same width, hence
    the same rectangle, and the walk sums the bundle to one number.
    Callers build the layout once per vector, so a ray of weights shares
    one.
    """
    shape = tuple((min(dt[t], dt[h]), p) for t, h, p in plan.bundles)
    parallel = tuple((k, p) for k, (_, p) in enumerate(shape) if p > 1)
    leaves = []
    fed = set()
    for k, lone in plan.lone:
        rows = shape[k][0]
        if rows > 1:
            ends = [(v, sign) for v, sign in lone if dt[v] == rows]
            if ends:
                twin = ends[1] if len(ends) == 2 else None
                leaves.append((k, *ends[0], rows, twin))
                fed.update(v for v, _ in ends)
        elif rows == 1:
            t, h, _ = plan.bundles[k]
            for v, sign in lone:
                if dt[h if sign > 0 else t] == 1:
                    leaves.append((k, v, sign, dt[v], None))
                    fed.add(v)
                    break
    sides = tuple(
        (v, dt[v], tails, heads)
        for v, tails, heads in plan.incidence
        if dt[v] > 1 and v not in fed
    )
    return shape, parallel, sides, plan.ends, tuple(leaves)


def _constant(budget):
    """1, the dimension at a weight that vanishes on the support of d.

    Such a weight gives the all-zero supply, hence the zero flow alone and
    one ordered tuple of empty partitions, whose block is 1; the shortcut
    keeps that price of one tuple, so budget 0 raises BudgetError.  Callers
    test the weight themselves, off the products th(v) d(v).
    """
    if budget < 1:
        raise BudgetError("semi-invariant partition tuples", budget)
    return 1


def _sized_flows(plan, dt, layout, th, cap):
    """(arrow flows, cost, flows) for the Cauchy sum of dim SI(Q,dt)_th,
    from one pass over the bundle flows; ``layout`` is ``_layout(plan, dt)``.

    ``cost`` is the number of ordered partition tuples, one partition per
    arrow, behind the sum, priced by cached counts, so no partition list is
    built; ``flows`` are the bundle flows that carry at least one tuple,
    hence at most ``cost`` of them.  A bundle of p arrows carrying T stands
    for C(T + p - 1, p - 1) arrow flows, and the first total counts them.
    Once more than ``cap`` arrow flows or tuples turn up the pass stops and
    both totals read ``cap + 1``; both are running sums, so whether that
    happens does not depend on the order of the flows.  The sum thus runs
    under a budget exactly when the larger total fits it.
    """
    shape, parallel = layout[:2]
    nflows = 0
    cost = 0
    kept = []
    for flow in _flows(plan, [t * x for t, x in zip(th, dt)]):
        n = 1
        for k, p in parallel:
            n *= math.comb(flow[k] + p - 1, p - 1)
        nflows += n
        if nflows > cap:
            return cap + 1, cap + 1, ()
        c = 1
        for s, (r, p) in zip(flow, shape):
            c *= _count_tuples(s, p, r)
            if c == 0:
                break
        if c:
            cost += c
            if cost > cap:
                return cap + 1, cap + 1, ()
            kept.append(flow)
    return nflows, cost, kept


def si_dim(euler, d, theta, budget=DEFAULT_BUDGET, pivot=True):
    """dim SI(Q,d)_theta, exactly.

    Zero whenever theta(d) != 0 and one whenever theta vanishes on the
    support of d (priced as one tuple); otherwise the Cauchy-block sum
    described in the module docstring.  Raises BudgetError once more than
    ``budget`` ordered partition tuples (one partition per arrow) or arrow
    flows would be examined; the sum itself visits only one multiset of
    partitions per bundle of parallel arrows, skips partitions wider than
    the rectangle of a one-sided vertex, and on a bundle bound to an end's
    rectangle visits only the multisets that rectangle admits, which is
    never more; one walk, ``_multisets``, lists both kinds, and sums a
    bundle whose two ends share the rectangle to one number.  A one-row
    bundle at such an end takes its closed form.

    One pass over the bundle flows, which the quiver's spanning forest maps
    from its cycle space, sizes the enumeration with cached partition
    counts and keeps the flows that carry tuples; the sum then runs over
    those flows alone.  Weights of the form -<-,e> for a dimension vector e
    admit a second, often far smaller enumeration: dim SI(Q,d)_{-<-,e>}
    equals dim SI(Q,e)_{<d,->}.  When the literal side is over budget or above
    ``PIVOT_THRESHOLD`` tuples, the other side is sized by a pass of its own
    and the smaller one is summed; ``pivot=False`` forces the literal side,
    which ``circ`` uses to keep its two evaluations independent.  When the
    literal side would run above ``PIVOT_THRESHOLD`` and the pivot does not
    answer, reflections at sinks and sources may give a smaller vector of
    the same dimension (``_reduce``), summed only when it is cheaper; this
    too only with ``pivot=True``, and it changes no price and no refusal.

    ``budget`` must be a nonnegative integer; anything else, here and in
    the other public functions of this module, is an ``InputError``.
    """
    (dt,) = dimension_vectors(euler, d)
    layout = _layout(euler.plan, dt)
    return _si_dim(euler, dt, layout, euler.tup(theta), as_budget(budget), pivot)


def _sum_within(plan, dt, th, cap):
    """The Cauchy sum of dim SI(Q,dt)_th when it is sized at no more than
    ``cap`` arrow flows and tuples, else None: the other side of ``si_dim``,
    a pivot vector or a reflected one."""
    layout = _layout(plan, dt)
    _, cost, flows = _sized_flows(plan, dt, layout, th, cap)
    return _cauchy_sum(layout, th, flows) if cost <= cap else None


def _ray_key(dt, th):
    """``(key, m)`` for the plan's ``sidims``: th on the support of dt,
    its other entries set to 0, is m * p for a primitive p and m >= 1, and
    ``key`` is ``(dt, p)``.  th must not vanish on that support.  A ray
    derives it once, at its own weight, and the point n th of the ray is
    ``(key, n * m)``."""
    on = tuple(t if x else 0 for t, x in zip(th, dt))
    m = math.gcd(*on)
    return (dt, on if m == 1 else tuple(t // m for t in on)), m


def _si_dim(euler, dt, layout, th, budget, pivot=True, ray=None):
    """dim SI(Q,dt)_th for int tuples, with ``layout = _layout(plan, dt)``.

    A weight with th(dt) != 0 needs no test of its own: some component's
    supplies then miss zero, so ``_flows`` yields nothing, the cost is 0
    and the sum is 0, with no pivot and no BudgetError.  A weight that
    vanishes on the support of dt, where every product th(v) dt(v) is 0,
    reads no layout: it is ``_constant``.

    When dt has a zero entry, every other answer summed on the literal side
    is kept in the plan's ``sidims``, under the ray key of ``_ray_key`` and
    the multiple m of its primitive direction, together with its price:
    the larger of its arrow flows and its tuples, the least budget under
    which that sum runs.  ``ray`` is that ``(key, m)`` when the caller has
    derived it, as ``_si_ray`` does once per ray; when it is None it is
    derived here, if dt has a zero entry.  A kept answer is returned only to a call whose budget covers
    its price, where the literal side would run too; any other call takes
    the path above.  An answer from the pivot side or from a reflected
    vector is not kept, so that ``circ``, which runs both of its sides
    literally, never reads one side's value as the other's.
    """
    if not any(map(mul, th, dt)):
        return _constant(budget)
    plan = euler.plan
    if ray is None and 0 in dt:
        ray = _ray_key(dt, th)
    if ray is not None:
        found = plan.sidims.get(ray[0], {}).get(ray[1])
        if found is not None and found[0] <= budget:
            return found[1]
    arrows, cost, flows = _sized_flows(plan, dt, layout, th, budget)
    if pivot and (cost > budget or cost > PIVOT_THRESHOLD):
        e = _pivot_vector(euler, th)
        if e is not None:
            wl = linalg.vecmat(dt, euler.matrix)
            dim = _sum_within(plan, e, wl, min(cost - 1, budget))
            if dim is not None:
                return dim
        reduced = _reduce(euler, dt, th) if cost <= budget else None
        if reduced is not None:
            r_euler, r_dt, r_th = reduced
            dim = _sum_within(r_euler.plan, r_dt, r_th, cost - 1)
            if dim is not None:
                return dim
    if cost > budget:
        raise BudgetError("semi-invariant partition tuples", budget)
    dim = _cauchy_sum(layout, th, flows)
    if ray is not None:
        key, m = ray
        plan.sidims.setdefault(key, {})[m] = (max(arrows, cost), dim)
    return dim


def _merge(combo, ks):
    """The partitions chosen on the bundles at positions ``ks``, sorted."""
    return tuple(sorted([lam for k in ks for lam in combo[k][1]]))


def _cauchy_sum(layout, th, flows):
    """The Cauchy blocks over the given flows, for the vector that
    ``layout`` was built from.  Each block takes one multiset of partitions
    per bundle, counted once per ordering over the bundle's arrows, and is
    a product of vertex multiplicities.  A bundle at a one-sided vertex
    only takes partitions that fit inside its rectangle; the others would
    give that vertex multiplicity 0.

    Every choice is a ``(weight, parts)`` pair of ``_multisets``, and a
    block counts the product of the weights.  A leaf of the layout takes
    the same choices on every flow, since a flow puts w * d(v) on it for
    the width w of its end v, and the ends it serves are not in ``sides``.
    A leaf of one row takes the single choice ``_rect_dim``, its multisets
    summed at once; a wider one takes the walk bound to the rectangle of
    v, each multiset weighed by its coefficient there, or with a twin the
    walk's sum of weight * c^2, a single choice that serves both ends."""
    if not flows:
        return 0
    shape, _, sides, ends, leaves = layout
    widths = [None] * len(shape)
    for k, v, sign in ends:
        w = sign * th[v]
        if widths[k] is None or w < widths[k]:
            widths[k] = w
    fixed = [None] * len(shape)
    for k, v, sign, dv, twin in leaves:
        w = sign * th[v]
        r, p = shape[k]
        if r == 1:
            c = _rect_dim(p, dv, w)
            fixed[k] = [(c, ())] if c else []
        else:
            # with a twin both ends are lone, so the bundle is a whole
            # component, and a flow balances it: d(u) = d(v) gives th(u) =
            # -th(v), and the opposite end signs give u the width w of v,
            # the same rectangle
            fixed[k] = _multisets(w * dv, p, r, widths[k], (dv, w), twin is not None)
    total = 0
    for flow in flows:
        choices = [
            _multisets(s, p, r, w) if f is None else f
            for s, (r, p), w, f in zip(flow, shape, widths, fixed)
        ]
        for combo in itertools.product(*choices):
            prod = 1
            for v, dv, tails, heads in sides:
                # a side fed by one bundle reads its sorted multiset as is,
                # and an empty side (a source or a sink) reads nothing
                mult = _vertex_mult(
                    dv,
                    th[v],
                    combo[tails[0]][1]
                    if len(tails) == 1
                    else _merge(combo, tails) if tails else (),
                    combo[heads[0]][1]
                    if len(heads) == 1
                    else _merge(combo, heads) if heads else (),
                )
                if mult == 0:
                    prod = 0
                    break
                prod *= mult
            if prod:
                for weight, _ in combo:
                    prod *= weight
                total += prod
    return total


@dataclass(frozen=True)
class SIWeightTable:
    """Dimensions of SI(Q,d) along the ray of a weight: dims[n] at n*theta.

    A weight with theta(d) != 0 never admits semi-invariants anywhere on its
    ray, and the table is identically zero in that case; a weight that
    vanishes on the support of d admits only the constants, and the table
    is identically one.
    """

    base_weight: tuple
    dims: tuple


def si_table(euler, d, theta, n_max, budget=DEFAULT_BUDGET):
    """dim SI(Q,d)_{n theta} for n = 0, ..., n_max, each as ``si_dim``
    gives it, with its budget and pivot rule.

    The input is checked once, here, and the ray is ``_table`` of the
    checked tuples: the layout of d is built at most once for the whole
    ray, and along it only the weight, and so the supply, changes.  A ray
    whose points the memo holds within the budget builds no layout at all
    (``_si_ray``).  When theta(d) != 0 the table is zero throughout, n = 0
    included.  When theta vanishes on the support of d so does every
    n theta, and the table is one throughout, with no layout built; it
    costs one tuple, as does n = 0 on any ray with theta(d) = 0, so
    ``budget=0`` raises BudgetError there.
    """
    (dt,) = dimension_vectors(euler, d)
    th = euler.tup(theta)
    n_max = as_int(n_max, "table length")
    if n_max < 0:
        raise InputError("table length must be nonnegative")
    return SIWeightTable(th, _table(euler, dt, th, n_max, as_budget(budget)))


def _table(euler, dt, th, n_max, budget):
    """The dims of ``si_table`` for checked int tuples.

    The products th(v) dt(v) give both tests at once: their sum is
    theta(d), and a nonzero product is exactly a vertex of the support of
    dt where th does not vanish.  Only the rays with such a vertex and
    theta(d) = 0 reach ``_si_ray``.
    """
    on = tuple(map(mul, th, dt))
    if sum(on):
        return (0,) * (n_max + 1)
    if any(on):
        return _si_ray(euler, dt, th, n_max, budget)
    return (_constant(budget),) * (n_max + 1)


def _si_ray(euler, dt, th, n_max, budget):
    """dim SI(Q,dt)_{n th} for n = 0, ..., n_max, each as ``_si_dim`` gives
    it, for a th that does not vanish on the support of dt (``_table``
    tests that).

    When dt has a zero entry the ray key is derived once (``_ray_key``)
    and the ray's entry in the plan's ``sidims`` is read in one loop over
    the multiples n th, n >= 1, that stops at the first one missing or
    priced above the budget.  If none stops it, and the budget covers the
    one tuple of n = 0, the dimensions are read from it, with no layout
    and no point evaluated.  Otherwise one layout serves the ray, and each
    point is ``_si_dim``, handed its ``(key, multiple)`` so that it derives
    no key of its own; it still reads the multiples held.
    """
    if 0 not in dt:
        rays = [None] * (n_max + 1)
    else:
        key, g = _ray_key(dt, th)
        if budget >= 1:
            held = euler.plan.sidims.get(key, {})
            dims = [1]
            for m in range(g, g * n_max + 1, g):
                found = held.get(m)
                if found is None or found[0] > budget:
                    break
                dims.append(found[1])
            else:
                return tuple(dims)
        rays = [(key, n * g) for n in range(n_max + 1)]
    layout = _layout(euler.plan, dt)
    return tuple(
        _si_dim(euler, dt, layout, tuple(n * t for t in th), budget, ray=ray)
        for n, ray in enumerate(rays)
    )


def circ(euler, d, e, budget=DEFAULT_BUDGET):
    """The pairing d o e, evaluated on both sides of the reciprocity.

    Computes dim SI(Q,e)_{<d,->} and dim SI(Q,d)_{-<-,e>} and insists they
    agree; either number is the value.
    """
    dt, et = dimension_vectors(euler, d, e)
    return _circ(euler, dt, et, as_budget(budget))


def _circ(euler, dt, et, budget):
    plan = euler.plan
    left = _si_dim(
        euler,
        et,
        _layout(plan, et),
        linalg.vecmat(dt, euler.matrix),
        budget,
        pivot=False,
    )
    right = _si_dim(
        euler,
        dt,
        _layout(plan, dt),
        tuple(-x for x in linalg.matvec(euler.matrix, et)),
        budget,
        pivot=False,
    )
    if left != right:
        raise InvariantError(
            f"reciprocity mismatch: {left} != {right} for d={dt}, e={et}"
        )
    return left


@dataclass(frozen=True)
class PolynomialityResult:
    status: str
    degree: int | None
    degree_second: int | None
    violated_at: int | None
    first: tuple
    second: tuple


def _pin_polynomial(values):
    """Minimal polynomial degree consistent with the samples, plus the
    constant top difference.  (None, None) when the difference table never
    flattens before running out of entries, i.e. the samples do not pin a
    degree."""
    level = list(values)
    degree = 0
    while len(level) >= 2:
        if all(v == level[0] for v in level):
            return degree, level[0]
        level = [b - a for a, b in zip(level, level[1:])]
        degree += 1
    return None, None


def polynomiality_check(euler, d, e, n_max, budget=DEFAULT_BUDGET):
    """Confirm that N -> (N d) o e and N -> d o (N e) are polynomial.

    The fit must be pinned by the data: the difference table has to bottom
    out strictly before the last column, otherwise the sample proves nothing
    and the call is rejected.  A pinned degree k meets every sample, since
    all (k+1)-th differences vanish; a constant term other than 1 is
    reported as violated at 0 (which cannot occur unless the enumeration
    itself is broken).
    """
    dt, et = dimension_vectors(euler, d, e)
    n_max = as_int(n_max, "n_max")
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    budget = as_budget(budget)
    if _circ(euler, dt, et, budget) == 0:
        raise PreconditionError("polynomiality requires circ(d, e) != 0")
    wl = linalg.vecmat(dt, euler.matrix)
    wr = tuple(-x for x in linalg.matvec(euler.matrix, et))
    first = _table(euler, et, wl, n_max, budget)
    second = _table(euler, dt, wr, n_max, budget)
    degrees = tuple(_pin_polynomial(values)[0] for values in (first, second))
    if None in degrees:
        raise PreconditionError(
            f"n_max={n_max} leaves the interpolating degree unpinned"
        )
    if first[0] != 1 or second[0] != 1:
        return PolynomialityResult("violated", None, None, 0, first, second)
    return PolynomialityResult(
        "ok", degrees[0], degrees[1], None, first, second
    )


@dataclass(frozen=True)
class LogConcavityResult:
    status: str
    index: int | None


def log_concavity_check(values):
    """First interior index with v[i-1] * v[i+1] > v[i]^2, if any."""
    vals = [as_int(x, "sequence entry") for x in values]
    if any(v < 0 for v in vals):
        raise InputError("log-concavity applies to nonnegative sequences")
    for i in range(1, len(vals) - 1):
        if vals[i - 1] * vals[i + 1] > vals[i] ** 2:
            return LogConcavityResult("violated", i)
    return LogConcavityResult("ok", None)


@dataclass(frozen=True)
class WildViolation:
    status: str
    dprime: tuple | None
    d: tuple | None
    theta: tuple | None
    n: int | None
    si_theta: int | None
    si_2theta: int | None
    frontier: tuple


def wild_violation_search(
    euler, dprime_max=2, n_cap=16, budget=DEFAULT_BUDGET
):
    """Hunt for a weight whose SI dimensions fail the square bound.

    Scans imaginary non-isotropic Schur roots d' (entries up to dprime_max,
    lexicographic order), forms theta = -<-,d'> and the integral solution
    d'' of <d'',-> = theta_{d'}, and walks N upward until

        dim SI(Q, N d'')_{2 theta}  >  (dim SI(Q, N d'')_theta)^2 .

    Both dimensions are evaluated through the reciprocity identity, on the
    d' side, where the enumeration is small; reciprocity itself is checked
    independently by ``circ``.  Returns the first hit or a not_found result
    carrying the search frontier.
    """
    cls = classify_path_algebra(euler.quiver)
    if cls.type != "wild":
        raise PreconditionError("violation search requires a wild quiver")
    dimension_vectors(euler)  # the path-algebra check alone: no vector given
    budget = as_budget(budget)
    n = euler.n
    frontier = []
    for entries in itertools.product(range(dprime_max + 1), repeat=n):
        if not any(entries):
            continue
        if generic.root_class(euler, entries) != "imaginary":
            continue
        if not generic.is_schur_root(euler, entries):
            continue
        theta_dp = euler.theta(entries)
        dpp = euler.solve_left(theta_dp)
        if any(x < 0 for x in dpp):
            frontier.append((entries, "d'' not effective"))
            continue
        theta = tuple(-x for x in euler.weight_right(entries))
        double = tuple(2 * x for x in entries)
        single_layout = _layout(euler.plan, entries)
        double_layout = _layout(euler.plan, double)
        reached = 0
        try:
            for nn in range(1, n_cap + 1):
                weight = tuple(nn * t for t in theta_dp)
                u = _si_dim(euler, entries, single_layout, weight, budget)
                w = _si_dim(euler, double, double_layout, weight, budget)
                reached = nn
                if w > u * u:
                    return WildViolation(
                        "found",
                        entries,
                        tuple(nn * x for x in dpp),
                        theta,
                        nn,
                        u,
                        w,
                        (),
                    )
        except BudgetError:
            frontier.append((entries, f"budget at N={reached + 1}"))
            continue
        frontier.append((entries, f"no hit through N={n_cap}"))
    return WildViolation(
        "not_found", None, None, None, None, None, None, tuple(frontier)
    )
