"""Exact rational polyhedral cones.

Cones arrive as {x : A x = 0, B x <= 0} with integer functionals and leave
as a lineality basis plus extreme rays, all primitive integer vectors.  The
conversion is the double description method, run entirely over exact
arithmetic; adjacency of rays is decided by the usual combinatorial
zero-set test, so no floating point enters anywhere.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import linalg
from .errors import InputError, as_int
from .linalg import dot


def primitive(vec):
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _split_lineality(lineality, b):
    """Rewrite a lineality basis so all but one member are orthogonal to b.

    Returns (new_basis, w) where w generates the removed direction, signed
    so that b.w < 0, or (lineality, None) when the basis is already
    orthogonal to b.
    """
    vals = [dot(b, l) for l in lineality]
    pivot = next((i for i, v in enumerate(vals) if v != 0), None)
    if pivot is None:
        return lineality, None
    v0 = vals[pivot]
    l0 = lineality[pivot]
    kept = []
    for i, l in enumerate(lineality):
        if i == pivot:
            continue
        if vals[i] == 0:
            kept.append(l)
        else:
            kept.append(
                primitive(tuple(v0 * a - vals[i] * c for a, c in zip(l, l0)))
            )
    w = l0 if v0 < 0 else tuple(-x for x in l0)
    return kept, w


def _functionals(rows):
    """Linear functionals as int tuples; a fractional entry is an error."""
    return tuple(tuple(as_int(x, "functional entry") for x in r) for r in rows)


def dual_description(n, equalities, inequalities):
    """Extreme rays and lineality of {x in R^n : eqs = 0, ineqs <= 0}.

    Returns (lineality, rays), both tuples of primitive integer vectors,
    sorted for reproducibility.  ``inequalities`` are processed in the order
    given; the output does not depend on it.
    """
    return _dual_description(
        n, _functionals(equalities), _functionals(inequalities)
    )


def _dual_description(n, eqs, ineqs):
    """``dual_description`` of functionals that ``_functionals`` has made
    int tuples; their lengths are checked here."""
    for v in eqs + ineqs:
        if len(v) != n:
            raise InputError("functional length mismatch")
    if eqs:
        lineality = linalg.kernel_basis(eqs)
    else:
        lineality = [
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ]
    rays = []
    done = []

    def dedupe(seq):
        seen = set()
        out = []
        for r in seq:
            if any(r) and r not in seen:
                seen.add(r)
                out.append(r)
        return out

    def tight_set(r):
        return frozenset(k for k, b in enumerate(done) if dot(b, r) == 0)

    for b in ineqs:
        lineality, w = _split_lineality(lineality, b)
        if w is not None:
            bw = dot(b, w)
            adjusted = []
            for r in rays:
                br = dot(b, r)
                if br == 0:
                    adjusted.append(r)
                else:
                    adjusted.append(
                        primitive(
                            tuple(br * x - bw * y for x, y in zip(w, r))
                        )
                    )
            rays = dedupe(adjusted + [w])
            done.append(b)
            continue
        vals = [dot(b, r) for r in rays]
        if all(v <= 0 for v in vals):
            done.append(b)
            continue
        keep = [r for r, v in zip(rays, vals) if v <= 0]
        tights = {r: tight_set(r) for r in rays}
        fresh = []
        for p, vp in zip(rays, vals):
            if vp >= 0:
                continue
            for q, vq in zip(rays, vals):
                if vq <= 0:
                    continue
                common = tights[p] & tights[q]
                adjacent = not any(
                    r != p and r != q and common <= tights[r]
                    for r in rays
                )
                if not adjacent:
                    continue
                combo = primitive(
                    tuple(vq * x - vp * y for x, y in zip(p, q))
                )
                if any(combo) and combo not in keep and combo not in fresh:
                    fresh.append(combo)
        rays = keep + fresh
        done.append(b)
    return tuple(sorted(lineality)), tuple(sorted(set(rays)))


def cone_dim(lineality, rays):
    vectors = list(lineality) + list(rays)
    if not vectors:
        return 0
    return linalg.rank(vectors)


@dataclass(frozen=True)
class Facet:
    """A codimension-one face: the inequalities vanishing on it and a
    lattice point in its relative interior."""

    defining: tuple
    rays: tuple
    interior_point: tuple


@dataclass(frozen=True)
class ConeDescription:
    """Both descriptions of a rational polyhedral cone, plus its facets."""

    n: int
    equalities: tuple
    inequalities: tuple
    lineality: tuple
    rays: tuple
    dim: int
    facets: tuple

    def contains(self, point):
        """Whether ``point`` lies in the cone; a point of any length other
        than the ambient dimension ``n`` is an ``InputError``."""
        point = tuple(point)
        if len(point) != self.n:
            raise InputError(
                f"point length {len(point)} does not match dimension {self.n}"
            )
        for row in self.equalities:
            if sum(map(mul, row, point)):
                return False
        for row in self.inequalities:
            if sum(map(mul, row, point)) > 0:
                return False
        return True

    def same_cone(self, other):
        """Exact set equality, checked generator-against-constraints; cones
        in spaces of different dimensions are never equal."""
        if self.n != other.n:
            return False
        mine = [x for l in self.lineality for x in (l, tuple(-y for y in l))]
        mine += list(self.rays)
        theirs = [
            x for l in other.lineality for x in (l, tuple(-y for y in l))
        ]
        theirs += list(other.rays)
        return all(other.contains(g) for g in mine) and all(
            self.contains(g) for g in theirs
        )


def describe(n, equalities, inequalities):
    """Full cone description with deduplicated, sorted facets.  The
    functionals are checked once, and the rays come from
    ``_dual_description``."""
    eqs = _functionals(equalities)
    ineqs = _functionals(inequalities)
    lineality, rays = _dual_description(n, eqs, ineqs)
    dim = cone_dim(lineality, rays)
    faces = dict.fromkeys(tuple(r for r in rays if dot(b, r) == 0) for b in ineqs)
    facets = []
    for face_rays in faces:
        if cone_dim(lineality, face_rays) != dim - 1:
            continue
        defining = tuple(
            b
            for b in ineqs
            if all(dot(b, r) == 0 for r in face_rays)
        )
        point = tuple(
            sum(r[i] for r in face_rays) for i in range(n)
        ) if face_rays else tuple([0] * n)
        facets.append(Facet(defining, face_rays, point))
    facets.sort(key=lambda f: (f.rays, f.defining))
    return ConeDescription(
        n, eqs, ineqs, lineality, rays, dim, tuple(facets)
    )
