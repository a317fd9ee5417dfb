"""Canonical algebras: star-shaped bound quivers whose module theory mirrors
coherent sheaves on a weighted projective line.

The algebra is determined by a weight tuple m = (m_1,...,m_n), n >= 3, each
m_i >= 2, and parameters lambda = (lambda_3,...,lambda_n), pairwise distinct,
nonzero, lambda_3 = 1.  Arm i is a chain of m_i arrows from inf to 0 and the
n - 2 relations tie the arm paths together, contributing r(inf, 0) = n - 2 to
the Euler matrix (global dimension two).  Everything downstream (rank, degree,
genus, Coxeter orbits, Riemann-Roch, Kronecker pairs) is exact integer or
Fraction arithmetic on that matrix.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import (
    BoundQuiver,
    EulerMatrix,
    Quiver,
    classify_path_algebra,
    dimension_vectors,
)
from .errors import (
    BudgetError,
    InputError,
    InvariantError,
    PreconditionError,
    as_budget,
    as_int,
)
from .stability import RationalInvariantsProfile, field_for_count

TUBULAR_WEIGHTS = ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2))

SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class CanonicalAlgebra:
    """Bound-quiver presentation plus the derived arithmetic handles.

    ``vertex_ids`` is the declared order: 0, then the arm vertices i.j arm by
    arm, then inf.  Matrices from ``euler`` are indexed in sorted-id order as
    everywhere else in this package.
    """

    weights_m: tuple
    lambdas: tuple
    presentation: BoundQuiver
    m_lcm: int
    euler: EulerMatrix
    vertex_ids: tuple
    arm_vertices: tuple

    @property
    def n(self):
        return len(self.weights_m)

    def h(self):
        """The all-ones dimension vector, in Euler-matrix order."""
        return (1,) * self.euler.n

    def tup(self, vec):
        return self.euler.tup(vec)


def build_canonical(weights_m, lambdas):
    """The canonical algebra of the given weights and lambdas.  Weights must
    be integral (``3.0`` gives 3; ``2.7`` and ``'3'`` raise ``InputError``);
    lambdas are anything ``Fraction`` accepts.  Malformed input of either
    kind raises ``InputError``."""
    weights = tuple(as_int(m, "weight") for m in weights_m)
    try:
        lams = tuple(Fraction(x) for x in lambdas)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"bad canonical parameters: {exc}") from None
    if len(weights) < 3:
        raise InputError("canonical algebras need at least three weights")
    if any(m < 2 for m in weights):
        raise InputError("weights must all be greater than one")
    if len(lams) != len(weights) - 2:
        raise InputError(
            f"expected {len(weights) - 2} lambda values, got {len(lams)}"
        )
    if lams[0] != 1:
        raise InputError("the first lambda must equal 1")
    if any(x == 0 for x in lams) or len(set(lams)) != len(lams):
        raise InputError("lambdas must be nonzero and pairwise distinct")

    def node(i, j):
        # arm i runs inf = (i, m_i) -> (i, m_i - 1) -> ... -> (i, 1) -> 0
        if j == 0:
            return "0"
        if j == weights[i - 1]:
            return "inf"
        return f"{i}.{j}"

    vertices = ["0"]
    arms = []
    for i, m in enumerate(weights, start=1):
        arm = tuple(f"{i}.{j}" for j in range(1, m))
        arms.append(arm)
        vertices.extend(arm)
    vertices.append("inf")
    arrows = []
    for i, m in enumerate(weights, start=1):
        for j in range(1, m + 1):
            arrows.append((f"a{i}_{j}", node(i, j), node(i, j - 1)))
    quiver = Quiver(tuple(vertices), tuple(arrows), name="canonical")
    bound = BoundQuiver(quiver, {("inf", "0"): len(weights) - 2})
    euler = EulerMatrix(bound)
    # E unitriangular in a topological order, which its triangular rows
    # verify, forces det E = 1
    try:
        euler.triangular_rows
    except PreconditionError as exc:
        raise InvariantError("canonical Euler matrix is not unimodular") from exc
    algebra = CanonicalAlgebra(
        weights,
        lams,
        bound,
        math.lcm(*weights),
        euler,
        tuple(vertices),
        tuple(arms),
    )
    if euler.tits(algebra.h()) != 0:
        raise InvariantError("all-ones vector is not isotropic")
    return algebra


def rank_degree(algebra, d):
    """rank = d(0) - d(inf); degree weighs the arm totals by m/m_i and
    corrects by ((n-1)m - sum m/m_i) d(inf)."""
    dt = algebra.tup(d)
    idx = algebra.euler.index
    d0 = dt[idx["0"]]
    dinf = dt[idx["inf"]]
    m = algebra.m_lcm
    n = algebra.n
    arm_part = 0
    weight_sum = 0
    for mi, arm in zip(algebra.weights_m, algebra.arm_vertices):
        arm_part += (m // mi) * sum(dt[idx[v]] for v in arm)
        weight_sum += m // mi
    return d0 - dinf, arm_part - ((n - 1) * m - weight_sum) * dinf


def virtual_genus(algebra):
    """1 + (m/2)(n - 2 - sum 1/m_i), m the lcm of the weights: each m/m_i is
    an integer, so the sum is taken over integers and halved once."""
    m = algebra.m_lcm
    total = sum(m // mi for mi in algebra.weights_m)
    return 1 + Fraction(m * (algebra.n - 2) - total, 2)


def classify_canonical(algebra):
    """domestic / tubular / wild by virtual genus, cross-checked against the
    representation type of the star obtained by deleting inf: the full
    subquiver of the presentation on every other vertex."""
    g = virtual_genus(algebra)
    if g > 1:
        by_genus = "wild"
    elif g == 1:
        if tuple(sorted(algebra.weights_m, reverse=True)) not in TUBULAR_WEIGHTS:
            raise InvariantError(
                f"genus 1 with weights {algebra.weights_m} outside the "
                "tubular catalogue"
            )
        by_genus = "tubular"
    else:
        by_genus = "domestic"
    star = Quiver(
        algebra.vertex_ids[:-1],
        tuple(
            (aid, tail, head)
            for aid, tail, head in algebra.presentation.quiver.arrows
            if "inf" not in (tail, head)
        ),
        name="star",
    )
    by_star = {"finite": "domestic", "tame_infinite": "tubular"}.get(
        classify_path_algebra(star).type, "wild"
    )
    if by_genus != by_star:
        raise InvariantError(
            f"genus classification {by_genus} disagrees with star-graph "
            f"classification {by_star}"
        )
    return by_genus


def _coxeter_step(euler):
    """The Coxeter action x -> Phi x of ``euler`` on int tuples in sorted
    vertex order, without forming Phi = -E^-1 E^T: one sparse product
    y = -E^T x over ``euler.triangular_rows``, then Phi x = E^-1 y by
    ``euler.solve_right``.  An Euler matrix that is not unitriangular in a
    topological order raises ``PreconditionError`` here, before any step.
    """
    rows = euler.triangular_rows
    solve = euler.solve_right

    def step(x):
        y = [-v for v in x]
        for i, entries in rows:
            if x[i]:
                for j, c in entries:
                    y[j] -= c * x[i]
        return solve(y)

    return step


def isotropic_hull(algebra, dprime):
    """Normalized Coxeter-orbit sum on a tubular algebra: the indivisible
    Phi-fixed isotropic vector on the positive side of the line through
    the orbit sum of dprime.

    The orbit sum lies in the rank-2 radical.  A seed whose orbit sum is
    zero or has entries of both signs generates no positive hull, and
    raises ``PreconditionError``; many nonzero nonnegative seeds do.
    """
    if classify_canonical(algebra) != "tubular":
        raise PreconditionError("isotropic hulls exist on tubular algebras")
    dt = algebra.tup(dprime)
    if not any(dt):
        raise InputError("dprime must be nonzero")
    step = _coxeter_step(algebra.euler)
    m = algebra.m_lcm
    orbit = [dt]
    x = dt
    for _ in range(m):
        x = step(x)
        if x == dt:
            break
        orbit.append(x)
    else:
        raise InvariantError("Coxeter orbit does not close within lcm steps")
    total = tuple(sum(col) for col in zip(*orbit))
    if not any(total):
        raise PreconditionError(
            f"the Coxeter orbit of {dt} sums to zero: no positive hull"
        )
    if all(v <= 0 for v in total):
        # the Coxeter orbit of a projective-leaning vector sums to the
        # negative side of the radical line; the hull is its positive
        # primitive generator
        total = tuple(-v for v in total)
    if any(v < 0 for v in total):
        raise PreconditionError(
            f"the Coxeter orbit of {dt} sums to {total}, which has entries "
            "of both signs: no positive hull"
        )
    g = math.gcd(*total)
    iso = tuple(v // g for v in total)
    if step(iso) != iso or algebra.euler.tits(iso) != 0:
        raise InvariantError(f"hull {iso} is not a Coxeter-fixed isotropic")
    return iso


@dataclass(frozen=True)
class RiemannRochCheck:
    status: str
    lhs: Fraction
    rhs: Fraction


def riemann_roch_check(algebra, d, e, budget=SEARCH_BUDGET):
    """Sum of <Phi^i d, e> over a full Coxeter period against the genus and
    rank/degree side; exact, so any mismatch is a genuine violation.

    The period is lcm(weights), so the sum takes lcm(weights) - 1 Coxeter
    steps; ``budget``, a nonnegative integer, bounds them, and a period
    that needs more raises BudgetError before the first step."""
    budget = as_budget(budget)
    dt = algebra.tup(d)
    et = algebra.tup(e)
    m = algebra.m_lcm
    if m - 1 > budget:
        raise BudgetError("Coxeter steps", budget)
    step = _coxeter_step(algebra.euler)
    w = linalg.matvec(algebra.euler.matrix, et)  # <x, e> = x . w
    x = dt
    lhs = linalg.dot(x, w)
    for _ in range(m - 1):
        x = step(x)
        lhs += linalg.dot(x, w)
    g = virtual_genus(algebra)
    rk_d, deg_d = rank_degree(algebra, dt)
    rk_e, deg_e = rank_degree(algebra, et)
    rhs = m * (1 - g) * rk_d * rk_e + (rk_d * deg_e - rk_e * deg_d)
    status = "ok" if lhs == rhs else "violated"
    return RiemannRochCheck(status, Fraction(lhs), Fraction(rhs))


@dataclass(frozen=True)
class KroneckerPair:
    """Dimension vectors of an orthogonal exceptional pair (E1, E2) with
    dim Ext^1(E2, E1) = 2, exhibiting a Kronecker subcategory around d."""

    d1: tuple
    d2: tuple


def _euler_form_of(source):
    return source.euler if isinstance(source, CanonicalAlgebra) else source


def kronecker_pair(source, d, budget=SEARCH_BUDGET):
    """Search 0 <= d1 <= d for the pair d1 + d2 = d with q(d1) = q(d2) = 1,
    <d1,d2> = 0, <d2,d1> = -2; lexicographically smallest hit wins.

    ``source`` may be a CanonicalAlgebra or any EulerMatrix (the Euclidean
    path-algebra case runs through the same arithmetic).  For an isotropic
    Schur root of a tame algebra a pair must exist, so exhausting the box is
    an invariant failure, not a routine miss.  ``budget`` bounds the box of
    d, prod(d_i + 1) candidates, and must be a nonnegative integer.  An
    EulerMatrix of a quiver with an oriented cycle is refused, as by every
    other quiver operation.
    """
    budget = as_budget(budget)
    euler = _euler_form_of(source)
    if not isinstance(source, CanonicalAlgebra) and not euler.plan.acyclic:
        raise PreconditionError("operation requires an acyclic quiver")
    (dt,) = dimension_vectors(euler, d, hereditary=False)
    q = euler.tits(dt)
    if q == 1:
        raise PreconditionError("a real root admits no Kronecker pair")
    if q != 0:
        raise PreconditionError(f"q(d) = {q}, not an isotropic candidate")
    if math.gcd(*dt) != 1:
        raise PreconditionError("d must be indivisible")
    if isinstance(source, CanonicalAlgebra):
        if classify_canonical(source) == "tubular":
            if _coxeter_step(source.euler)(dt) != dt:
                raise PreconditionError(
                    "tubular isotropic candidates must be Coxeter-fixed"
                )
    box = 1
    for v in dt:
        box *= v + 1
    if box > budget:
        raise BudgetError("Kronecker search box", budget)
    m = euler.matrix
    for d1 in itertools.product(*(range(v + 1) for v in dt)):
        if not any(d1) or d1 == dt:
            continue
        if linalg.bilinear(m, d1, d1) != 1:
            continue
        d2 = tuple(a - b for a, b in zip(dt, d1))
        if (
            linalg.bilinear(m, d2, d2) == 1
            and linalg.bilinear(m, d1, d2) == 0
            and linalg.bilinear(m, d2, d1) == -2
        ):
            return KroneckerPair(d1, d2)
    raise InvariantError(f"no Kronecker pair below {dt} despite q(d) = 0")


def _single_root_count(algebra, dt, budget):
    """Isotropic-count contribution of one claimed generic root."""
    q = algebra.euler.tits(dt)
    if q == 1:
        return 0
    if q == 0:
        kronecker_pair(algebra, dt, budget)
        return 1
    raise InputError(
        f"q(d) = {q}; generic roots of tame canonical algebras have q in "
        "{0, 1}"
    )


def rational_invariants_canonical(
    algebra, d, decomposition=None, budget=SEARCH_BUDGET
):
    """Transcendence profile of the rational invariants on the canonical
    algebra: each real root contributes nothing, each isotropic root one
    parameter (witnessed by a Kronecker pair, searched within ``budget`` as
    ``kronecker_pair`` does).  Composite vectors need the caller to name the
    generic decomposition; summand arithmetic is checked but genericity
    itself is the caller's claim.
    """
    budget = as_budget(budget)
    if classify_canonical(algebra) == "wild":
        raise PreconditionError(
            "rational invariants are only profiled for tame canonical "
            "algebras"
        )
    (dt,) = dimension_vectors(algebra.euler, d, hereditary=False)
    if decomposition is None:
        n = _single_root_count(algebra, dt, budget)
        return RationalInvariantsProfile(n, field_for_count(n))
    total = (0,) * algebra.euler.n
    n = 0
    for root, mult in decomposition:
        (rt,) = dimension_vectors(algebra.euler, root, hereditary=False)
        mult = as_int(mult, "decomposition multiplicity")
        if mult < 1 or not any(rt):
            raise InputError("decomposition entries must be positive")
        total = tuple(a + mult * b for a, b in zip(total, rt))
        n += mult * _single_root_count(algebra, rt, budget)
    if total != dt:
        raise InputError("decomposition does not sum to d")
    return RationalInvariantsProfile(n, field_for_count(n))


def parse_canonical(text):
    """Parse ``canonical weights=6,3,2 lambda=1`` (lambda starts at the
    third arm, so n - 2 values)."""
    tokens = text.split()
    if not tokens or tokens[0] != "canonical":
        raise InputError("canonical spec must start with 'canonical'")
    fields = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise InputError(f"bad canonical field {tok!r}")
        key, _, value = tok.partition("=")
        if key in fields:
            raise InputError(f"duplicate canonical field {key!r}")
        fields[key] = value
    missing = {"weights", "lambda"} - set(fields)
    if missing:
        raise InputError(f"canonical spec missing {sorted(missing)}")
    extra = set(fields) - {"weights", "lambda"}
    if extra:
        raise InputError(f"unknown canonical fields {sorted(extra)}")
    try:
        weights = [int(x) for x in fields["weights"].split(",")]
        lambdas = [Fraction(x) for x in fields["lambda"].split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad canonical spec: {exc}") from None
    return build_canonical(weights, lambdas)


def format_canonical(algebra):
    weights = ",".join(str(m) for m in algebra.weights_m)
    lams = ",".join(str(x) for x in algebra.lambdas)
    return f"canonical weights={weights} lambda={lams}"
