"""Generic King stability: tests, weight cones, stable decompositions,
local quivers, moduli dimensions, rational-invariant profiles.

Everything here reasons at the level of dimension vectors.  The generic
representation of d is theta-semi-stable exactly when theta kills d and is
nonpositive on every generic subdimension vector (King's criterion).  The
tests scan the box of d in lexicographic order and ask the Schofield
recursion about ext only on the vectors whose weight can change the answer:
theta > 0 for semistability, theta >= 0 for stability, theta = 0 for the
stable factors.  Only the effective cone needs every generic subdimension
vector.  No representations are ever materialized.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import cones, siweights
from .core import Quiver, classify_path_algebra, dimension_vectors
from .errors import InputError, InvariantError, PreconditionError, as_int
from .generic import (
    BOX_LIMIT,
    _boxed_vectors,
    _generic_subs,
    _stable,
    _subdims,
    canonical_decomposition,
    root_class,
)
from .linalg import dot


def _vector_and_weight(euler, d, theta, box_limit):
    (dt,) = _boxed_vectors(euler, box_limit, d)
    return dt, euler.tup(theta)


def is_semistable_generic(euler, d, theta, box_limit=BOX_LIMIT):
    """True when the generic representation of d is theta-semi-stable."""
    return _semistable(euler, *_vector_and_weight(euler, d, theta, box_limit))


def _semistable(euler, dt, th):
    if dot(th, dt) != 0:
        return False
    return not any(_generic_subs(euler, dt, lambda sub: dot(th, sub) > 0))


def is_stable_generic(euler, d, theta, box_limit=BOX_LIMIT):
    """True when the generic representation of d is theta-stable."""
    return _stable(euler, *_vector_and_weight(euler, d, theta, box_limit))


def effective_cone(euler, d, box_limit=BOX_LIMIT):
    """The effective-weight cone of d, as a ``cones.ConeDescription``.

    Weights theta with theta(d) = 0 (the ``equalities``) and theta <= 0 on
    every proper nonzero generic subdimension vector (the ``inequalities``),
    one entry per vertex in sorted order.  Facets carry every inequality
    vanishing on them plus a lattice point in their relative interior.
    """
    (dt,) = _boxed_vectors(euler, box_limit, d)
    subs = [sub for sub in _subdims(euler, dt) if any(sub) and sub != dt]
    return cones.describe(euler.n, [dt], subs)


@dataclass(frozen=True)
class StableDecomposition:
    """Jordan-Hoelder data of the generic theta-semi-stable representation:
    ``factors`` lists (root, multiplicity, class) with theta-stable roots."""

    dimension: tuple
    weight: tuple
    factors: tuple


def theta_stable_decomposition(euler, d, theta, box_limit=BOX_LIMIT):
    """Peel lexicographically minimal theta-stable subdimension vectors.

    The decomposition itself is unique as a multiset; scanning generic
    subdimension vectors in lexicographic order merely fixes which chain of
    subrepresentations witnesses it, keeping the output deterministic.
    """
    dt, th = _vector_and_weight(euler, d, theta, box_limit)
    if not _semistable(euler, dt, th):
        raise PreconditionError(
            "theta-stable decomposition requires a semistable input"
        )
    remaining = dt
    peeled = []
    while any(remaining):
        found = next(
            (
                sub
                for sub in _generic_subs(
                    euler, remaining, lambda sub: any(sub) and dot(th, sub) == 0
                )
                if _stable(euler, sub, th)
            ),
            None,
        )
        if found is None:
            raise InvariantError(
                "semistable vector admits no stable subdimension vector"
            )
        peeled.append(found)
        remaining = tuple(a - b for a, b in zip(remaining, found))
        if any(remaining) and not _semistable(euler, remaining, th):
            raise InvariantError(
                "peeling a stable factor left a non-semistable remainder"
            )
    counts = {}
    for root in peeled:
        counts[root] = counts.get(root, 0) + 1
    factors = tuple(
        (root, mult, root_class(euler, root))
        for root, mult in sorted(counts.items())
    )
    return StableDecomposition(dt, th, factors)


@dataclass(frozen=True)
class LocalQuiverSetup:
    """Ext-quiver of a tuple of pairwise distinct stable factors, with the
    multiplicity vector; controls the local geometry of the moduli point."""

    quiver: Quiver
    dim: dict


def local_quiver(euler, factors):
    """Vertices = factors; arrows i->j count ext(M_i, M_j) for generic
    stables, which is -<d_i,d_j> off the diagonal and 1 - <d_i,d_i> on it.

    Factors must be pairwise non-isomorphic stables; that is invisible at
    the dimension level (an isotropic vector may appear twice, standing for
    two generic points of the same tube), so it is the caller's assertion.
    A negative ext count shows that assertion false and raises
    ``PreconditionError``.
    """
    dims = []
    mults = []
    for dim, mult in factors:
        (dt,) = dimension_vectors(euler, dim, hereditary=False)
        if not any(dt):
            raise InputError("factors must be nonzero")
        mult = as_int(mult, "multiplicity")
        if mult < 1:
            raise InputError("multiplicities must be positive")
        dims.append(dt)
        mults.append(mult)
    names = [f"m{i + 1}" for i in range(len(dims))]
    arrows = []
    for i, di in enumerate(dims):
        for j, dj in enumerate(dims):
            if i == j:
                count = 1 - euler.euler(di, di)
            else:
                count = -euler.euler(di, dj)
            if count < 0:
                raise PreconditionError(
                    f"negative ext count {count} between factors {i} and {j}"
                )
            for t in range(count):
                arrows.append((f"x{i + 1}_{j + 1}_{t + 1}", names[i], names[j]))
    quiver = Quiver(tuple(names), tuple(arrows), name="local")
    return LocalQuiverSetup(quiver, dict(zip(names, mults)))


def moduli_dimension(euler, d, theta, box_limit=BOX_LIMIT):
    dt, th = _vector_and_weight(euler, d, theta, box_limit)
    if not _stable(euler, dt, th):
        raise PreconditionError("moduli dimension requires a stable input")
    return 1 - euler.tits(dt)


@dataclass(frozen=True)
class PSpaceVerdict:
    status: str
    m: int | None
    q: Fraction | None


def _rational_root(value, degree):
    """Exact rational x >= 0 with x^degree = value, or None."""
    value = Fraction(value)
    if value < 0:
        return None
    if degree == 1:
        return value

    def iroot(n):
        if n == 0:
            return 0
        lo, hi = 0, max(n, 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**degree < n:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo**degree == n else None

    num = iroot(value.numerator)
    den = iroot(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _binom_poly(q, m, n):
    """binom(q*n + m, m) over exact rationals."""
    x = q * n
    out = Fraction(1)
    for j in range(1, m + 1):
        out *= (x + j) / j
    return out


def projective_space_verdict(
    euler, d, theta, n_max, budget=siweights.DEFAULT_BUDGET
):
    """Decide whether the SI dimensions along the theta-ray look like P^m.

    The sequence dim SI(Q,d)_{n theta} for a moduli space P^m embedded by a
    degree-q polarization is binom(qn+m, m); a log-concavity failure or a
    zero rules every such shape out immediately, otherwise (m, q) is fitted
    from exact finite differences and verified against all samples.  When
    the difference table is not pinned by n_max samples the verdict is
    inconclusive rather than guessed.

    ``budget`` bounds only the ``si_table`` ray; the semistability test
    before it runs at the default ``box_limit`` of ``BOX_LIMIT`` (10^7).
    """
    n_max = as_int(n_max, "n_max")
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    dt, th = _vector_and_weight(euler, d, theta, BOX_LIMIT)
    if not _semistable(euler, dt, th):
        raise PreconditionError(
            "projective-space verdict requires a semistable input"
        )
    # semistability gives theta(d) = 0, so the table is the ray itself
    dims = siweights.si_table(euler, dt, th, n_max, budget=budget).dims
    if dims[0] != 1:
        raise InvariantError("effective weight with SI(0) != 1")
    if any(v == 0 for v in dims):
        return PSpaceVerdict("not_projective_space", None, None)
    if siweights.log_concavity_check(dims).status == "violated":
        return PSpaceVerdict("not_projective_space", None, None)
    if all(v == 1 for v in dims):
        return PSpaceVerdict("is_P_m", 0, Fraction(0))
    m, top = siweights._pin_polynomial(dims)
    if m is None:
        return PSpaceVerdict("inconclusive", None, None)
    q = _rational_root(top, m)
    if q is None or q <= 0:
        return PSpaceVerdict("not_projective_space", None, None)
    for n, v in enumerate(dims):
        if _binom_poly(q, m, n) != v:
            return PSpaceVerdict("not_projective_space", None, None)
    return PSpaceVerdict("is_P_m", m, q)


@dataclass(frozen=True)
class RationalInvariantsProfile:
    """How far the field of rational invariants is from the base field:
    purely transcendental of degree ``n_isotropic``."""

    n_isotropic: int
    field_description: str


def field_for_count(n):
    if n == 0:
        return "k"
    if n == 1:
        return "k(t)"
    return "k(" + ",".join(f"t_{i}" for i in range(1, n + 1)) + ")"


def rational_invariants_profile(euler, d, box_limit=BOX_LIMIT):
    """Count isotropic multiplicities in the canonical decomposition.

    Only meaningful on representation-finite or tame path algebras; the
    rationality problem is open in the wild case, so wild inputs are
    refused instead of answered.
    """
    cls = classify_path_algebra(euler.quiver)
    if cls.type not in ("finite", "tame_infinite"):
        raise PreconditionError(
            "rational-invariant profiles are only computed for finite or "
            "tame path algebras"
        )
    decomp = canonical_decomposition(euler, d, box_limit)
    n = sum(mult for _, mult, cls_ in decomp.summands if cls_ == "isotropic")
    return RationalInvariantsProfile(n, field_for_count(n))
