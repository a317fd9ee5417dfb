"""Independent cross-checks for the test suite.

Each helper recomputes a quantity by a different route than the library:
Schur polynomials by semistandard-tableau enumeration, Pieri products by
horizontal strips, cone membership by exact Caratheodory search,
subrepresentation existence by exhaustive subspace scans over a prime
field, generic hom and ext by the minimum over representations sampled
with small rational entries (``Representation``, ``random_representation``,
``hom_ext_concrete``, ``hom_ext_sampled``: the library reads dimension
vectors alone and builds no representation, so this oracle lives here),
thin semi-invariant dimensions by torus character counts,
canonical decompositions by exhaustive multiset search, Dynkin and
Euclidean trees by canonical tree codes against every candidate diagram,
the Schofield recursion by a plain copy of its first implementation that
reads nothing of the Euler matrix but ``euler.matrix`` and reads ext(a, b)
off the subdimension vectors of a alone (this rows-only copy is the oracle
for the library's two-sided rule, which may read it off the generic
quotients of b instead), the signature of a symmetric matrix by the sign pattern of its characteristic polynomial, ranks,
kernels, inverses and Coxeter matrices by Gauss-Jordan elimination over
Fraction, and semi-invariant dimensions by a copy of the first two-walk
``si_dim`` over every ordered partition tuple, with vertex multiplicities
read off sequential ``lr.tensor_fold`` products.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from quiverinv import linalg
from quiverinv.core import EulerMatrix, Quiver
from quiverinv.errors import InputError, InvariantError
from quiverinv.generic import ext_generic, is_schur_root


# ---------------------------------------------------------------------------
# Schur polynomials via semistandard tableaux


def ssyt_contents(lam, nvars):
    """Yield the content vector of every SSYT of shape lam, entries 1..nvars.

    Rows weakly increase left to right, columns strictly increase top down.
    """
    lam = tuple(lam)
    if not lam:
        yield (0,) * nvars
        return
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]
    filling = {}

    def fill(k):
        if k == len(cells):
            content = [0] * nvars
            for val in filling.values():
                content[val - 1] += 1
            yield tuple(content)
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for val in range(lo, nvars + 1):
            filling[(r, c)] = val
            yield from fill(k + 1)
        filling.pop((r, c), None)

    yield from fill(0)


def schur_poly(lam, nvars):
    """Monomial expansion {exponent tuple: coefficient} of s_lam."""
    out = {}
    for content in ssyt_contents(lam, nvars):
        out[content] = out.get(content, 0) + 1
    return out


def poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def schur_expand(poly, nvars):
    """Expand a symmetric polynomial in the Schur basis.

    Strips the lexicographically largest surviving monomial; its exponent is
    a partition and its coefficient the Schur coefficient.
    """
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        lam = tuple(x for x in lead if x)
        if tuple(sorted(lead, reverse=True)) != lead:
            raise AssertionError(f"leading exponent {lead} is not a partition")
        out[lam] = coeff
        for exp, c in schur_poly(lam, nvars).items():
            key = tuple(exp)
            nxt = work.get(key, 0) - coeff * c
            if nxt:
                work[key] = nxt
            else:
                work.pop(key, None)
    return out


@functools.lru_cache(maxsize=None)
def _schur_product_oracle(lam, mu):
    nvars = max(1, sum(lam) + sum(mu))
    product = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
    return schur_expand(product, nvars)


def lr_oracle(lam, mu, nu):
    """c^nu_{lam,mu} from an explicit Schur-polynomial product (expanded once
    per pair lam, mu)."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    expansion = _schur_product_oracle(tuple(lam), tuple(mu))
    return expansion.get(tuple(x for x in nu if x), 0)


def pieri_row(lam, k):
    """Partitions obtained from lam by adding a horizontal strip of size k.

    No two added cells share a column: mu_i <= lam_{i-1} row by row.
    """
    lam = tuple(lam)
    rows = len(lam) + 1
    out = set()

    def grow(i, remaining, built):
        if i == rows:
            if remaining == 0:
                out.add(tuple(x for x in built if x))
            return
        base = lam[i] if i < len(lam) else 0
        upper = lam[i - 1] if i > 0 else base + remaining
        for new in range(base, min(upper, base + remaining) + 1):
            grow(i + 1, remaining - (new - base), built + [new])

    grow(0, k, [])
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# Exact cone membership


def _solve_exact(cols, target):
    """Coefficients expressing target as a combination of cols, or None."""
    n = len(target)
    k = len(cols)
    aug = [
        [Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
        for i in range(n)
    ]
    reduced, pivots, _ = _ref_rref(aug)
    coeffs = [Fraction(0)] * k
    for r, p in enumerate(pivots):
        if p == k:
            return None
        coeffs[p] = reduced[r][k]
    for r in range(len(pivots), n):
        if reduced[r][k] != 0:
            return None
    residual = [
        sum(coeffs[j] * cols[j][i] for j in range(k)) for i in range(n)
    ]
    if any(residual[i] != target[i] for i in range(n)):
        return None
    return coeffs


def in_cone(rays, lineality, point):
    """Caratheodory search: point = nonneg combo of <= n generators plus an
    arbitrary combo of the lineality vectors."""
    n = len(point)
    gens = [tuple(r) for r in rays]
    gens += [tuple(v) for v in lineality]
    gens += [tuple(-x for x in v) for v in lineality]
    if not any(point):
        return True
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            coeffs = _solve_exact([gens[i] for i in subset], point)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def satisfies(equalities, inequalities, point):
    dot = lambda f: sum(a * b for a, b in zip(f, point))
    return all(dot(f) == 0 for f in equalities) and all(
        dot(f) <= 0 for f in inequalities
    )


# ---------------------------------------------------------------------------
# Subrepresentation scan over a prime field

PRIME = 101


def _subspaces(dim, sub, p=PRIME):
    """Bases of all sub-dimensional subspaces of F_p^dim; dim <= 2 only."""
    if sub == 0:
        return [()]
    if sub == dim:
        return [tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))]
    if dim == 2 and sub == 1:
        lines = [((1, a),) for a in range(p)]
        lines.append(((0, 1),))
        return lines
    raise ValueError("scan oracle only handles ambient dimension <= 2")


def _in_span(basis, vec, p=PRIME):
    if not basis:
        return all(x % p == 0 for x in vec)
    rows = [list(b) for b in basis]
    return _rank_mod(rows, p) == _rank_mod(rows + [list(vec)], p)


def _rank_mod(rows, p):
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _subrep_exists(quiver, dims, mats, subdims, p=PRIME):
    order = quiver.order
    choices = [_subspaces(dims[v], subdims[v], p) for v in order]
    index = {v: i for i, v in enumerate(order)}
    for pick in itertools.product(*choices):
        ok = True
        for aid, tail, head in quiver.arrows:
            basis_t = pick[index[tail]]
            basis_h = pick[index[head]]
            mat = mats[aid]
            for vec in basis_t:
                img = tuple(
                    sum(mat[r][c] * vec[c] for c in range(dims[tail])) % p
                    for r in range(dims[head])
                )
                if not _in_span(basis_h, img, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def generic_subdims_scan(quiver, d, samples=12, seed=7, p=PRIME):
    """Generic subdimension vectors of a THIN d by scanning reps over F_p.

    A vector counts when every sampled representation admits a subrep of
    that dimension.  For thin vectors the incidence conditions are rank
    conditions, so existence over a large prime field matches existence
    over the algebraic closure; non-thin vectors can hide conics with no
    F_p point and must use subdims_via_sampled_ext instead.
    """
    import random

    rng = random.Random(seed)
    euler = EulerMatrix(quiver)
    dt = euler.tup(d)
    if any(x not in (0, 1) for x in dt):
        raise ValueError("scan oracle is only sound for thin d")
    order = euler.order
    dims = dict(zip(order, dt))
    reps = []
    for _ in range(samples):
        mats = {
            aid: tuple(
                tuple(rng.randrange(1, p) for _ in range(dims[tail]))
                for _ in range(dims[head])
            )
            for aid, tail, head in quiver.arrows
        }
        reps.append(mats)
    found = []
    for entries in itertools.product(*(range(x + 1) for x in dt)):
        subdims = dict(zip(order, entries))
        if all(
            _subrep_exists(quiver, dims, mats, subdims, p) for mats in reps
        ):
            found.append(entries)
    return sorted(found)


# ---------------------------------------------------------------------------
# Concrete representations over Q, sampled: hom and ext as the nullity and
# corank of one exact linear map, which the library never builds

DEFAULT_SEED = 1729

#: Nonzero small rationals used for sampled representations.
SAMPLE_POOL = tuple(
    Fraction(n, den)
    for den in (1, 2, 3)
    for n in range(-4, 5)
    if n != 0 and Fraction(n, den).denominator == den
)


@dataclass(frozen=True)
class Representation:
    """A representation: matrices over Q indexed by arrow id.

    ``matrices[a]`` has shape d(head) x d(tail) and carries Fraction entries.
    """

    quiver: Quiver
    dim: dict
    matrices: dict

    def __post_init__(self):
        for aid, tail, head in self.quiver.arrows:
            mat = self.matrices.get(aid)
            if mat is None:
                raise InputError(f"missing matrix for arrow {aid!r}")
            rows = len(mat)
            if rows != self.dim.get(head, 0):
                raise InputError(f"matrix for {aid!r} has wrong row count")
            for row in mat:
                if len(row) != self.dim.get(tail, 0):
                    raise InputError(f"matrix for {aid!r} has wrong column count")


def random_representation(quiver, d, rng=None, pool=SAMPLE_POOL):
    """Representation with entries drawn uniformly from the sample pool."""
    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    euler = EulerMatrix(quiver)
    dt = euler.tup(d)
    if any(x < 0 for x in dt):
        raise InputError("dimension vectors must be nonnegative")
    dims = dict(zip(euler.order, dt))
    matrices = {}
    for aid, tail, head in quiver.arrows:
        matrices[aid] = tuple(
            tuple(rng.choice(pool) for _ in range(dims[tail]))
            for _ in range(dims[head])
        )
    return Representation(quiver, dims, matrices)


def hom_ext_concrete(v, w):
    """Exact (hom, ext) for two concrete representations.

    Builds the linear map sending a vertexwise collection (phi(i)) to the
    arrowwise collection (phi(head a) V(a) - W(a) phi(tail a)); hom is its
    nullity and ext the corank, both over Q.
    """
    if v.quiver is not w.quiver and v.quiver != w.quiver:
        raise InputError("representations live on different quivers")
    quiver = v.quiver
    order = quiver.order
    dv = {i: v.dim.get(i, 0) for i in order}
    dw = {i: w.dim.get(i, 0) for i in order}
    col_offset = {}
    ncols = 0
    for i in order:
        col_offset[i] = ncols
        ncols += dv[i] * dw[i]
    nrows = sum(dw[h] * dv[t] for _, t, h in quiver.arrows)
    rows = []
    for aid, t, h in quiver.arrows:
        va = v.matrices[aid]
        wa = w.matrices[aid]
        for r in range(dw[h]):
            for c in range(dv[t]):
                row = [Fraction(0)] * ncols
                for s in range(dv[h]):
                    row[col_offset[h] + r * dv[h] + s] += va[s][c]
                for s in range(dw[t]):
                    row[col_offset[t] + s * dv[t] + c] -= wa[r][s]
                rows.append(row)
    rk = linalg.rank(rows) if rows else 0
    return ncols - rk, nrows - rk


def hom_ext_sampled(quiver, a, b, trials=20, seed=DEFAULT_SEED):
    """Componentwise minimum of (hom, ext) over sampled pairs.

    Hom and ext are upper semicontinuous, so the minimum over independent
    samples estimates the generic value from above-stably; agreement across
    trials is the caller's genericity evidence.
    """
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        v = random_representation(quiver, a, rng)
        w = random_representation(quiver, b, rng)
        he = hom_ext_concrete(v, w)
        best = he if best is None else (min(best[0], he[0]), min(best[1], he[1]))
    return best


# ---------------------------------------------------------------------------


def subdims_via_sampled_ext(quiver, d, trials=20):
    """Generic subdimension vectors by the embedding criterion, with ext
    measured on sampled rational representations instead of the recursion:
    d' embeds generically iff ext(d', d - d') vanishes at a generic point,
    and the minimum of the concrete corank over samples witnesses that.
    """
    euler = EulerMatrix(quiver)
    dt = euler.tup(d)
    out = []
    for entries in itertools.product(*(range(x + 1) for x in dt)):
        rest = tuple(a - b for a, b in zip(dt, entries))
        if hom_ext_sampled(quiver, entries, rest, trials=trials)[1] == 0:
            out.append(entries)
    return sorted(out)


# ---------------------------------------------------------------------------
# Thin semi-invariant dimensions by torus character count


def si_dim_thin(quiver, d, theta):
    """dim SI(Q,d)_theta for d with entries in {0,1}.

    The representation space is one coordinate per arrow supported on d,
    the group a torus, and a monomial's weight at vertex i is
    (outgoing exponent sum) - (incoming exponent sum); count exponent
    vectors hitting theta exactly.
    """
    euler = EulerMatrix(quiver)
    dt = euler.tup(d)
    # GL(0) factors are trivial, so the weight is only visible on supp(d)
    th = tuple(t if x else 0 for t, x in zip(euler.tup(theta), dt))
    order = euler.order
    index = {v: i for i, v in enumerate(order)}
    if any(x not in (0, 1) for x in dt):
        raise ValueError("thin oracle needs 0/1 dimensions")
    live = [
        (index[tail], index[head])
        for _, tail, head in quiver.arrows
        if dt[index[tail]] and dt[index[head]]
    ]
    supply = sum(t for t in th if t > 0)

    def count(k, residual):
        if k == len(live):
            return 1 if all(r == 0 for r in residual) else 0
        tail, head = live[k]
        total = 0
        for e in range(supply + 1):
            nxt = list(residual)
            nxt[tail] -= e
            nxt[head] += e
            total += count(k + 1, nxt)
        return total

    return count(0, list(th))


# ---------------------------------------------------------------------------
# Exhaustive canonical decomposition


def candecomp_exhaustive(euler, d):
    """The unique multiset of Schur roots summing to d with vanishing mutual
    generic ext, found by brute force over all part multisets."""
    dt = euler.tup(d)
    if not any(dt):
        return []
    parts = [
        p
        for p in itertools.product(*(range(x + 1) for x in dt))
        if any(p)
    ]
    parts.sort(reverse=True)
    hits = []

    def search(start, remaining, chosen):
        if not any(remaining):
            hits.append(list(chosen))
            return
        for i in range(start, len(parts)):
            p = parts[i]
            if any(a > b for a, b in zip(p, remaining)):
                continue
            chosen.append(p)
            search(i, tuple(a - b for a, b in zip(remaining, p)), chosen)
            chosen.pop()

    search(0, dt, [])
    valid = []
    for multiset in hits:
        if not all(is_schur_root(euler, p) for p in set(multiset)):
            continue
        ok = True
        for a, b in itertools.combinations(set(multiset), 2):
            if ext_generic(euler, a, b) or ext_generic(euler, b, a):
                ok = False
                break
        if ok:
            valid.append(sorted(multiset))
    if len(valid) != 1:
        raise AssertionError(
            f"expected exactly one valid decomposition of {dt}, got {len(valid)}"
        )
    return valid[0]


# ---------------------------------------------------------------------------
# Reference Schofield recursion
#
# The recursion as the library first implemented it: every call re-coerces
# its vectors, evaluates the Euler form as a double sum, and reads ext(a, b)
# off the generic subdimension vectors of a only, never off the generic
# quotients of b.  Only
# ``euler.matrix`` is read, so no library kernel, plan or cache is shared.
# Vectors are int tuples in sorted vertex order.

_REF_EXT = {}
_REF_SUBDIMS = {}
_REF_CANDECOMP = {}


def _ref_euler(matrix, d, e):
    n = len(matrix)
    return sum(d[i] * matrix[i][j] * e[j] for i in range(n) for j in range(n))


def ref_generic_subdims(euler, d):
    dt = tuple(int(x) for x in d)
    key = (euler.matrix, dt)
    cached = _REF_SUBDIMS.get(key)
    if cached is not None:
        return cached
    out = []
    for sub in itertools.product(*(range(x + 1) for x in dt)):
        rest = tuple(a - b for a, b in zip(dt, sub))
        if ref_ext_generic(euler, sub, rest) == 0:
            out.append(sub)
    result = tuple(sorted(out))
    _REF_SUBDIMS[key] = result
    return result


def ref_ext_generic(euler, a, b):
    at = tuple(int(x) for x in a)
    bt = tuple(int(x) for x in b)
    if not any(at) or not any(bt):
        return 0
    key = (euler.matrix, at, bt)
    cached = _REF_EXT.get(key)
    if cached is not None:
        return cached
    best = 0
    for sub in ref_generic_subdims(euler, at):
        value = -_ref_euler(euler.matrix, sub, bt)
        if value > best:
            best = value
    _REF_EXT[key] = best
    return best


def _ref_is_schur_root(euler, dt):
    n = len(dt)
    m = euler.matrix
    theta = tuple(
        sum(dt[i] * m[i][j] for i in range(n)) - sum(m[j][k] * dt[k] for k in range(n))
        for j in range(n)
    )
    for sub in ref_generic_subdims(euler, dt):
        if not any(sub) or sub == dt:
            continue
        if sum(t * x for t, x in zip(theta, sub)) >= 0:
            return False
    return True


def ref_canonical_weight(euler, d):
    """<d, -> - <-, d>, the weight at which d is stable iff it is Schur."""
    n = len(d)
    m = euler.matrix
    return tuple(
        sum(d[i] * m[i][j] for i in range(n)) - sum(m[j][k] * d[k] for k in range(n))
        for j in range(n)
    )


def ref_is_semistable(euler, d, theta):
    dt = tuple(int(x) for x in d)
    if sum(t * x for t, x in zip(theta, dt)) != 0:
        return False
    return all(
        sum(t * x for t, x in zip(theta, sub)) <= 0
        for sub in ref_generic_subdims(euler, dt)
    )


def ref_is_stable(euler, d, theta):
    dt = tuple(int(x) for x in d)
    if not any(dt) or sum(t * x for t, x in zip(theta, dt)) != 0:
        return False
    return all(
        sum(t * x for t, x in zip(theta, sub)) < 0
        for sub in ref_generic_subdims(euler, dt)
        if any(sub) and sub != dt
    )


def _ref_tagged(euler, summands):
    """(root, multiplicity) pairs tagged with the class of the root by its
    Tits form."""
    out = []
    for root, mult in summands:
        q = _ref_euler(euler.matrix, root, root)
        cls = {1: "real", 0: "isotropic"}.get(q, "imaginary" if q < 0 else "non_root")
        out.append((root, mult, cls))
    return tuple(out)


def ref_canonical_decomposition(euler, d):
    """(root, multiplicity, class) triples, as ``canonical_decomposition``
    reports its summands."""
    return _ref_tagged(euler, _ref_candecomp(euler, tuple(int(x) for x in d)))


def ref_theta_stable_decomposition(euler, d, theta):
    """(root, multiplicity, class) triples, as ``theta_stable_decomposition``
    reports the factors of a theta-semistable d: the library's first peel,
    which takes the lexicographically first theta-stable vector among all
    generic subdimension vectors of what remains."""
    remaining = tuple(int(x) for x in d)
    counts = {}
    while any(remaining):
        found = next(
            (
                sub
                for sub in ref_generic_subdims(euler, remaining)
                if any(sub) and ref_is_stable(euler, sub, theta)
            ),
            None,
        )
        if found is None:
            raise AssertionError(f"reference: {remaining} has no {theta}-stable sub")
        counts[found] = counts.get(found, 0) + 1
        remaining = tuple(a - b for a, b in zip(remaining, found))
    return _ref_tagged(euler, sorted(counts.items()))


def _ref_candecomp(euler, dt):
    if not any(dt):
        return ()
    key = (euler.matrix, dt)
    cached = _REF_CANDECOMP.get(key)
    if cached is not None:
        return cached
    if _ref_is_schur_root(euler, dt):
        result = ((dt, 1),)
        _REF_CANDECOMP[key] = result
        return result
    result = None
    for sub in ref_generic_subdims(euler, dt):
        if not any(sub) or sub == dt:
            continue
        rest = tuple(a - b for a, b in zip(dt, sub))
        if ref_ext_generic(euler, rest, sub) == 0:
            counts = {}
            for root, mult in _ref_candecomp(euler, sub) + _ref_candecomp(euler, rest):
                counts[root] = counts.get(root, 0) + mult
            result = tuple(sorted(counts.items()))
            break
    if result is None:
        raise AssertionError(f"reference: {dt} admits no generic splitting")
    _REF_CANDECOMP[key] = result
    return result


# ---------------------------------------------------------------------------
# Dynkin and Euclidean trees by canonical tree codes
#
# The library's first recognizer: a canonical string code of the tree
# (rooted at its centre or centres) compared with the code of every
# A/D/E/D~/E~ candidate of the same size.


def _ref_tree_code(adj, root, parent):
    children = sorted(
        _ref_tree_code(adj, w, root)
        for w in adj[root]
        for _ in range(adj[root][w])
        if w != parent
    )
    return "(" + "".join(children) + ")"


def _ref_tree_centers(adj):
    degree = {v: sum(adj[v].values()) for v in adj}
    leaves = [v for v in adj if degree[v] <= 1]
    remaining = len(adj)
    while remaining > 2:
        new_leaves = []
        for leaf in leaves:
            for w in adj[leaf]:
                degree[w] -= adj[leaf][w]
                if degree[w] == 1:
                    new_leaves.append(w)
            degree[leaf] = 0
        remaining -= len(leaves)
        leaves = new_leaves
    return leaves


def _ref_canonical_tree_code(edges, vertices):
    adj = {v: {} for v in vertices}
    for a, b in edges:
        adj[a][b] = adj[a].get(b, 0) + 1
        adj[b][a] = adj[b].get(a, 0) + 1
    return min(_ref_tree_code(adj, c, None) for c in _ref_tree_centers(adj))


def _ref_star_edges(arm_lengths):
    """Tree made of paths of the given lengths glued at a common center."""
    edges = []
    for i, length in enumerate(arm_lengths):
        prev = "c"
        for j in range(length):
            node = f"{i}.{j}"
            edges.append((prev, node))
            prev = node
    vertices = {a for e in edges for a in e} | {"c"}
    return edges, vertices


def _ref_dn_tilde_edges(n):
    """Extended D_n: central path with two extra leaves at each end."""
    path = [f"p{i}" for i in range(n - 3)]
    edges = list(zip(path, path[1:]))
    edges += [("l1", path[0]), ("l2", path[0]), ("r1", path[-1]), ("r2", path[-1])]
    vertices = {a for e in edges for a in e}
    return edges, vertices


_REF_FINITE_STARS = {"E6": (1, 2, 2), "E7": (1, 2, 3), "E8": (1, 2, 4)}
_REF_EXTENDED_STARS = {"E~6": (2, 2, 2), "E~7": (1, 3, 3), "E~8": (1, 2, 5)}


def ref_classify_tree(edges, vertices):
    """``(type, diagram)`` of a tree given by its edges, as
    ``core._classify_tree`` answers it, or None when the tree is wild."""
    code = _ref_canonical_tree_code(edges, vertices)
    n = len(vertices)
    candidates = [(f"A{n}", "finite", _ref_star_edges([n - 1]))]
    if n >= 4:
        candidates.append((f"D{n}", "finite", _ref_star_edges([1, 1, n - 3])))
    if n in (6, 7, 8):
        candidates.append(
            (f"E{n}", "finite", _ref_star_edges(_REF_FINITE_STARS[f"E{n}"]))
        )
    if n >= 5:
        candidates.append((f"D~{n - 1}", "tame_infinite", _ref_dn_tilde_edges(n - 1)))
    for name, arms in _REF_EXTENDED_STARS.items():
        if n == sum(arms) + 1:
            candidates.append((name, "tame_infinite", _ref_star_edges(arms)))
    for name, kind, (cedges, cverts) in candidates:
        if len(cverts) == n and _ref_canonical_tree_code(cedges, cverts) == code:
            return kind, name
    return None


# ---------------------------------------------------------------------------
# Rank, kernel and inverse by Gauss-Jordan over Fraction
#
# The library's first kernel and inverse: reduce to reduced row echelon
# form, dividing each pivot row by its pivot, with every entry a Fraction.
# The rank is the number of pivots.


def _ref_rref(matrix):
    """(reduced rows, pivot columns, signed product of the pivots) of the
    reduced row echelon form over Fraction; the product is det M for a
    square M with a pivot in every column."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        p = rows[r][col]
        det *= p
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                q = rows[i][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots, det


def ref_rank(matrix):
    return len(_ref_rref(matrix)[1])


def ref_kernel(matrix):
    """Primitive integer basis of {x : M x = 0}: for each free column f in
    order, 1 at f and minus the reduced rows' entries at f on their pivot
    columns, cleared of denominators and divided by its content."""
    rows, pivots, _ = _ref_rref(matrix)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = -row[f]
        scale = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        basis.append(tuple(x // math.gcd(*ints) for x in ints))
    return tuple(basis)


def _ref_gauss_jordan(matrix):
    """(det M, M^-1) over Fraction, or (0, None) when M is singular: the
    reduced form of [M | I] is [I | M^-1] exactly when its pivots are the
    columns of M."""
    n = len(matrix)
    rows, pivots, det = _ref_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    )
    if pivots[:n] != list(range(n)):
        return Fraction(0), None
    return det, tuple(tuple(row[n:]) for row in rows)


def ref_inverse(matrix):
    """Exact inverse over Fraction; a singular matrix raises InvariantError."""
    _, inv = _ref_gauss_jordan(matrix)
    if inv is None:
        raise InvariantError("matrix is singular")
    return inv


def ref_det(matrix):
    """The determinant, as the signed product of the Gauss-Jordan pivots."""
    return _ref_gauss_jordan(matrix)[0]


def ref_coxeter_matrix(euler):
    """The Coxeter matrix Phi = -E^-1 E^T of an Euler form, with
    <d, e> = -<e, Phi d>, as ints; a non-integral Phi raises
    InvariantError."""
    m = euler.matrix
    inv = ref_inverse(m)
    phi = [[-sum(a * b for a, b in zip(row, col)) for col in m] for row in inv]
    if any(x.denominator != 1 for row in phi for x in row):
        raise InvariantError("Coxeter matrix is not integral")
    return tuple(tuple(int(x) for x in row) for row in phi)


# ---------------------------------------------------------------------------
# Signature by the characteristic polynomial
#
# The library's first signature: Faddeev-LeVerrier over Fraction, then the
# signs of the sums of principal minors.  About n^4 operations, so only for
# the small matrices of the tests.


def ref_charpoly(matrix):
    """Coefficients [c1, ..., cn] with det(xI - M) = x^n + c1 x^(n-1) + ... + cn."""
    n = len(matrix)
    m = tuple(tuple(Fraction(x) for x in row) for row in matrix)
    coeffs = []
    a = m
    for k in range(1, n + 1):
        ck = -sum(a[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            shifted = tuple(
                tuple(a[i][j] + (ck if i == j else 0) for j in range(n))
                for i in range(n)
            )
            a = tuple(
                tuple(sum(m[i][t] * shifted[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            )
    return coeffs


def ref_symmetric_signature(matrix):
    """With det(xI - S) = sum_k (-1)^k e_k x^(n-k), the e_k are the sums of
    k x k principal minors: all nonnegative exactly when S is psd, all
    positive exactly when S is positive definite, and the corank of a psd S
    is the number of trailing zeros."""
    n = len(matrix)
    coeffs = ref_charpoly(matrix)
    minors = [(-1) ** (k + 1) * coeffs[k] for k in range(n)]
    if any(e < 0 for e in minors):
        return "indefinite", None
    corank = 0
    for e in reversed(minors):
        if e == 0:
            corank += 1
        else:
            break
    if corank == 0:
        return "positive_definite", 0
    return "positive_semidefinite", corank


# ---------------------------------------------------------------------------
# Semi-invariant dimensions by two flow walks
#
# The library's first si_dim: one walk sizes the enumeration, a second walk
# sums the Cauchy blocks, and the sorted arrows, row bounds, supplies and
# incidence lists are rebuilt from the quiver on every call.  Only
# ``euler.quiver``, ``euler.order`` and ``euler.matrix`` are read, so no
# plan is shared.  Partition lists are enumerated here, with no width
# bound, and vertex multiplicities are folded one factor at a time with the
# public ``lr.tensor_fold``, both sides of a vertex whole and a one-sided
# vertex at its rectangle: no complement target, no single-coefficient
# kernel, no dualized cache key.


def _ref_topological_order(quiver):
    indeg = {v: 0 for v in quiver.vertices}
    for _, _, h in quiver.arrows:
        indeg[h] += 1
    ready = sorted(v for v in quiver.vertices if indeg[v] == 0)
    out = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for _, t, h in quiver.arrows:
            if t == v:
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
        ready.sort()
    return tuple(out)


def _ref_flows(quiver, supply):
    order = _ref_topological_order(quiver)
    out_arrows = [
        tuple(sorted(a for a in quiver.arrows if a[1] == v)) for v in order
    ]
    inflow = {v: 0 for v in order}

    def compositions(total, k):
        if k == 0:
            if total == 0:
                yield ()
            return
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    def rec(i, flow):
        if i == len(order):
            yield dict(flow)
            return
        v = order[i]
        arrows = out_arrows[i]
        total = supply[v] + inflow[v]
        if total < 0:
            return
        for combo in compositions(total, len(arrows)):
            for (aid, _, head), s in zip(arrows, combo):
                flow[aid] = s
                inflow[head] += s
            yield from rec(i + 1, flow)
            for (aid, _, head), s in zip(arrows, combo):
                del flow[aid]
                inflow[head] -= s

    yield from rec(0, {})


def _ref_si_cost(euler, dt, th, cap):
    from quiverinv.siweights import count_partitions

    idx = {v: i for i, v in enumerate(euler.order)}
    supply = {v: th[idx[v]] * dt[idx[v]] for v in euler.order}
    arrows = sorted(euler.quiver.arrows)
    rows = {aid: min(dt[idx[t]], dt[idx[h]]) for aid, t, h in arrows}
    cost = 0
    nflows = 0
    for flow in _ref_flows(euler.quiver, supply):
        nflows += 1
        if nflows > cap:
            return cap + 1
        c = 1
        for aid, _, _ in arrows:
            c *= count_partitions(flow[aid], rows[aid])
            if c == 0:
                break
        cost += c
        if cost > cap:
            return cap + 1
    return cost


@functools.lru_cache(maxsize=None)
def _ref_partitions(size, rows):
    """Partitions of ``size`` with at most ``rows`` parts, largest first."""
    if size == 0:
        return ((),)
    if rows <= 0:
        return ()
    return tuple(
        (first,) + rest
        for first in range(size, 0, -1)
        for rest in _ref_partitions(size - first, rows - 1)
        if not rest or rest[0] <= first
    )


def _ref_vertex_mult(dv, tv, tails, heads):
    """Multiplicity of det^tv in (tail product) tensor (head product)^*.

    One-sided: the sequential fold read at the rectangle (|tv|^dv).  Both
    sides: sum_nu c_nu(tails) * c_{nu - tv*1}(heads), nu with <= dv rows.
    """
    from quiverinv.lr import tensor_fold

    if dv == 0:
        return 1
    if not heads or not tails:
        w = tv if not heads else -tv
        if w < 0:
            return 0
        rect = (w,) * dv if w else ()
        return tensor_fold(tails or heads, dv, rect).get(rect, 0)
    right = tensor_fold(heads, dv)
    total = 0
    for nu, c in tensor_fold(tails, dv).items():
        shifted = [x - tv for x in list(nu) + [0] * (dv - len(nu))]
        if shifted[-1] < 0:
            continue
        total += c * right.get(tuple(x for x in shifted if x), 0)
    return total


def _ref_si_dim_direct(euler, dt, th, budget):
    from quiverinv.errors import BudgetError

    idx = {v: i for i, v in enumerate(euler.order)}
    supply = {v: th[idx[v]] * dt[idx[v]] for v in euler.order}
    arrows = sorted(euler.quiver.arrows)
    rows_by_arrow = {aid: min(dt[idx[t]], dt[idx[h]]) for aid, t, h in arrows}
    incidence = []
    for v in euler.order:
        tails_at = [a[0] for a in arrows if a[1] == v]
        heads_at = [a[0] for a in arrows if a[2] == v]
        if tails_at or heads_at or supply[v]:
            incidence.append((v, tails_at, heads_at))

    total = 0
    used = 0
    for flow in _ref_flows(euler.quiver, supply):
        choices = []
        cost = 1
        for aid, _, _ in arrows:
            plist = _ref_partitions(flow[aid], rows_by_arrow[aid])
            if not plist:
                cost = 0
                break
            choices.append(plist)
            cost *= len(plist)
        if cost == 0:
            continue
        used += cost
        if used > budget:
            raise BudgetError("semi-invariant partition tuples", budget)
        for combo in itertools.product(*choices):
            chosen = {aid: lam for (aid, _, _), lam in zip(arrows, combo)}
            prod = 1
            for v, tails_at, heads_at in incidence:
                mult = _ref_vertex_mult(
                    dt[idx[v]],
                    th[idx[v]],
                    tuple(sorted(chosen[a] for a in tails_at)),
                    tuple(sorted(chosen[a] for a in heads_at)),
                )
                if mult == 0:
                    prod = 0
                    break
                prod *= mult
            total += prod
    return total


def ref_si_dim(euler, dt, th, budget, pivot=True):
    """dim SI(Q,dt)_th for int tuples, with the library's pivot rule."""
    from quiverinv.errors import BudgetError
    from quiverinv.siweights import PIVOT_THRESHOLD

    if sum(t * x for t, x in zip(th, dt)) != 0:
        return 0
    cost = _ref_si_cost(euler, dt, th, budget)
    if pivot and (cost > budget or cost > PIVOT_THRESHOLD):
        inv = ref_inverse(euler.matrix)
        e = linalg.matvec(inv, tuple(-t for t in th))
        if all(x.denominator == 1 and x >= 0 for x in e):
            e = tuple(int(x) for x in e)
            wl = linalg.vecmat(dt, euler.matrix)
            if _ref_si_cost(euler, e, wl, min(cost - 1, budget)) < cost:
                return _ref_si_dim_direct(euler, e, wl, budget)
    if cost > budget:
        raise BudgetError("semi-invariant partition tuples", budget)
    return _ref_si_dim_direct(euler, dt, th, budget)
