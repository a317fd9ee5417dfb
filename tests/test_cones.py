"""Exact dual description against a Caratheodory membership oracle."""

import itertools
import random

import pytest

from quiverinv import cones
from quiverinv.errors import InputError

from oracles import in_cone, satisfies

SYSTEMS = [
    # (n, equalities, inequalities)
    (2, [(1, 1)], [(0, 1)]),
    (2, [], [(0, 1), (1, 0)]),
    (2, [], [(-1, 0), (0, -1), (1, 1)]),
    (3, [(1, 1, 1)], [(0, 0, 1), (0, 1, 0)]),
    (3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (3, [], [(1, -1, 0), (0, 1, -1)]),
    (3, [(1, 0, -1)], []),
    (2, [(1, 0), (0, 1)], []),
]


def random_systems(count, seed=41):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((2, 3))
        eqs = [
            tuple(rng.randrange(-2, 3) for _ in range(n))
            for _ in range(rng.randrange(0, 2))
        ]
        ineqs = [
            tuple(rng.randrange(-2, 3) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        out.append((n, eqs, ineqs))
    return out


def test_primitive():
    assert cones.primitive((2, -4, 6)) == (1, -2, 3)
    assert cones.primitive((0, 0)) == (0, 0)
    assert cones.primitive((-3,)) == (-1,)


def test_generators_satisfy_constraints():
    for n, eqs, ineqs in SYSTEMS + random_systems(20):
        lineality, rays = cones.dual_description(n, eqs, ineqs)
        for v in rays:
            assert satisfies(eqs, ineqs, v), (eqs, ineqs, v)
        for v in lineality:
            assert satisfies(eqs, ineqs, v)
            assert satisfies(eqs, ineqs, tuple(-x for x in v))


def test_constraint_points_are_generated():
    for n, eqs, ineqs in SYSTEMS + random_systems(20):
        lineality, rays = cones.dual_description(n, eqs, ineqs)
        for point in itertools.product(range(-3, 4), repeat=n):
            if satisfies(eqs, ineqs, point):
                assert in_cone(rays, lineality, point), (eqs, ineqs, point)


def test_generated_points_satisfy_constraints():
    rng = random.Random(4)
    for n, eqs, ineqs in SYSTEMS + random_systems(10, seed=43):
        lineality, rays = cones.dual_description(n, eqs, ineqs)
        gens = list(rays) + [
            x for l in lineality for x in (l, tuple(-y for y in l))
        ]
        for _ in range(20):
            coeffs = [rng.randrange(0, 4) for _ in gens]
            point = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
            )
            assert satisfies(eqs, ineqs, point)


def test_facet_interior_points():
    for n, eqs, ineqs in SYSTEMS + random_systems(15, seed=47):
        desc = cones.describe(n, eqs, ineqs)
        for facet in desc.facets:
            p = facet.interior_point
            assert desc.contains(p)
            for b in facet.defining:
                assert sum(a * x for a, x in zip(b, p)) == 0
            for b in desc.inequalities:
                if b not in facet.defining:
                    assert sum(a * x for a, x in zip(b, p)) < 0
            assert cones.cone_dim(desc.lineality, facet.rays) == desc.dim - 1


def test_zero_always_contained():
    for n, eqs, ineqs in SYSTEMS:
        desc = cones.describe(n, eqs, ineqs)
        assert desc.contains((0,) * n)


def test_same_cone_under_scaling_and_permutation():
    desc = cones.describe(3, [(1, 1, 1)], [(0, 0, 1), (0, 1, 0)])
    scaled = cones.describe(3, [(2, 2, 2)], [(0, 1, 0), (0, 0, 3)])
    assert desc.same_cone(scaled)
    other = cones.describe(3, [(1, 1, 1)], [(0, 1, 0)])
    assert not desc.same_cone(other)
    assert not desc.same_cone(cones.describe(2, [(1, 1)], [(0, 1)]))


@pytest.mark.parametrize("point", [(), (0,), (0, 0, 0, 0)])
def test_contains_rejects_wrong_length(point):
    # zip used to truncate the point: () was in every cone
    desc = cones.describe(3, [(1, 1, 1)], [(0, 0, 1), (0, 1, 0)])
    with pytest.raises(InputError):
        desc.contains(point)


def test_pure_lineality_cone():
    desc = cones.describe(3, [(1, 0, -1)], [])
    assert desc.dim == 2
    assert not desc.rays
    assert len(desc.lineality) == 2
    assert desc.contains((1, 5, 1))
    assert not desc.contains((1, 0, 0))


@pytest.mark.parametrize(
    "equalities, inequalities",
    [([], [(1.5, -1)]), ([(0.5, 1)], [])],
    ids=["inequality", "equality"],
)
def test_fractional_functional_rejected(equalities, inequalities):
    # truncation would describe x - y <= 0 (or y = 0) instead
    for build in (cones.describe, cones.dual_description):
        with pytest.raises(InputError):
            build(2, equalities, inequalities)
