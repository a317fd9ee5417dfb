"""Canonical-algebra arithmetic: genus, Coxeter data, Riemann-Roch,
Kronecker pairs, and rational-invariant profiles."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import ref_coxeter_matrix, ref_det, ref_inverse
from quiverinv import canonical as can
from quiverinv import linalg
from quiverinv.core import (
    BoundQuiver,
    EulerMatrix,
    Quiver,
    dynkin_quiver,
    euclidean_quiver,
    kronecker_quiver,
    null_root,
)
from quiverinv.errors import (
    BudgetError,
    InputError,
    InvariantError,
    PreconditionError,
)

T4 = can.build_canonical((2, 2, 2, 2), (1, 2))
DOM = can.build_canonical((2, 2, 2), (1,))
WILD = can.build_canonical((7, 3, 2), (1,))
TUBULARS = ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2))


def unit(algebra, vertex):
    return {v: (1 if v == vertex else 0) for v in algebra.vertex_ids}


def test_build_counts():
    assert T4.vertex_ids == ("0", "1.1", "2.1", "3.1", "4.1", "inf")
    assert len(T4.presentation.quiver.arrows) == 8
    assert T4.presentation.relation_counts == {("inf", "0"): 2}
    alg = can.build_canonical((3, 3, 2), (1,))
    assert len(alg.vertex_ids) == 7
    assert len(alg.presentation.quiver.arrows) == 8
    assert alg.presentation.relation_counts == {("inf", "0"): 1}
    assert alg.euler.n == 2 + sum(m - 1 for m in alg.weights_m)
    # h is isotropic by construction
    assert alg.euler.tits(alg.h()) == 0


def test_build_rejects():
    with pytest.raises(InputError):
        can.build_canonical((2, 2), (1,))
    with pytest.raises(InputError):
        can.build_canonical((2, 2, 1), (1,))
    with pytest.raises(InputError):
        can.build_canonical((2, 2, 2, 2), (1,))
    with pytest.raises(InputError):
        can.build_canonical((2, 2, 2), (2,))
    with pytest.raises(InputError):
        can.build_canonical((2, 2, 2, 2, 2), (1, 1, 2))
    with pytest.raises(InputError):
        can.build_canonical((2, 2, 2, 2), (1, 0))


@pytest.mark.parametrize(
    "weights, lambdas",
    [
        ((2.7, 3, 4), (1,)),  # fractional weight, once truncated to 2
        (("3", "3", "3"), (1,)),  # strings, once parsed as integers
        ((2, 3, None), (1,)),
        ((2, 3, 4), ("x",)),  # once a bare ValueError
        ((2, 3, 4, 5), (1, "1/0")),  # once a bare ZeroDivisionError
        ((2, 3, 4), (None,)),
    ],
)
def test_build_rejects_malformed_parameters(weights, lambdas):
    with pytest.raises(InputError):
        can.build_canonical(weights, lambdas)


def test_build_coerces_integral_weights():
    alg = can.build_canonical((3.0, Fraction(6, 2), 2), ("1",))
    assert alg.weights_m == (3, 3, 2)
    assert all(type(m) is int for m in alg.weights_m)
    assert alg.lambdas == (1,)


def test_rank_degree_examples():
    assert can.rank_degree(T4, T4.h()) == (0, 2)
    assert can.rank_degree(T4, unit(T4, "0")) == (1, 0)
    assert can.rank_degree(T4, unit(T4, "inf")) == (-1, -2)


def test_rank_is_pairing_with_h():
    rng = random.Random(3)
    for algebra in (T4, DOM, WILD):
        h = algebra.h()
        for _ in range(50):
            d = tuple(rng.randrange(0, 4) for _ in range(algebra.euler.n))
            rk, _ = can.rank_degree(algebra, d)
            assert rk == algebra.euler.euler(d, h)
            assert rk == -algebra.euler.euler(h, d)


def test_rank_degree_additive():
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randrange(0, 4) for _ in range(T4.euler.n))
        b = tuple(rng.randrange(0, 4) for _ in range(T4.euler.n))
        s = tuple(x + y for x, y in zip(a, b))
        ra, da = can.rank_degree(T4, a)
        rb, db = can.rank_degree(T4, b)
        assert can.rank_degree(T4, s) == (ra + rb, da + db)


def test_virtual_genus_examples():
    assert can.virtual_genus(can.build_canonical((6, 3, 2), (1,))) == 1
    assert can.virtual_genus(DOM) == Fraction(1, 2)
    assert can.virtual_genus(WILD) == Fraction(3, 2)
    assert can.virtual_genus(T4) == 1


def test_virtual_genus_matches_fraction_formula():
    # every weight tuple of the AC10 scan: n in {3, 4}, weights 2..7
    for n in (3, 4):
        for weights in itertools.combinations_with_replacement(range(2, 8), n):
            m = math.lcm(*weights)
            algebra = SimpleNamespace(weights_m=weights, m_lcm=m, n=n)
            want = 1 + Fraction(m, 2) * (
                n - 2 - sum(Fraction(1, mi) for mi in weights)
            )
            got = can.virtual_genus(algebra)
            assert type(got) is Fraction and got == want, weights


def test_classify_examples():
    assert can.classify_canonical(DOM) == "domestic"
    assert can.classify_canonical(T4) == "tubular"
    assert can.classify_canonical(WILD) == "wild"
    # weight order does not matter
    assert can.classify_canonical(can.build_canonical((3, 2, 6), (1,))) == "tubular"


def test_classify_scan_small():
    # genus sign and the star-graph representation type always agree;
    # the full arm-count sweep lives in the acceptance suite
    tubular_found = set()
    for m in itertools.product(range(2, 6), repeat=3):
        if m[0] < m[1] or m[1] < m[2]:
            continue
        algebra = can.build_canonical(m, (1,))
        kind = can.classify_canonical(algebra)
        g = can.virtual_genus(algebra)
        assert (g < 1) == (kind == "domestic")
        assert (g == 1) == (kind == "tubular")
        assert (g > 1) == (kind == "wild")
        if kind == "tubular":
            tubular_found.add(m)
    assert tubular_found == {(3, 3, 3), (4, 4, 2)}


def _matpow_is_identity(algebra, k):
    phi = ref_coxeter_matrix(algebra.euler)
    n = algebra.euler.n
    cur = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for _ in range(k):
        cur = tuple(
            tuple(sum(phi[i][t] * cur[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
    return all(
        cur[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
    )


def test_coxeter_periodicity():
    # Phi^lcm(m) = Id exactly on the tubular tuples
    for weights, lams in (
        ((2, 2, 2, 2), (1, 2)),
        ((3, 3, 3), (1,)),
        ((4, 4, 2), (1,)),
        ((6, 3, 2), (1,)),
    ):
        algebra = can.build_canonical(weights, lams)
        assert _matpow_is_identity(algebra, algebra.m_lcm)
    assert not _matpow_is_identity(can.build_canonical((3, 3, 2), (1,)), 6)
    assert not _matpow_is_identity(WILD, WILD.m_lcm)


def test_coxeter_defining_identity():
    rng = random.Random(11)
    for algebra in (T4, DOM, WILD):
        phi = ref_coxeter_matrix(algebra.euler)
        n = algebra.euler.n
        for _ in range(50):
            d = tuple(rng.randrange(-3, 4) for _ in range(n))
            e = tuple(rng.randrange(-3, 4) for _ in range(n))
            phid = tuple(linalg.matvec(phi, d))
            assert algebra.euler.euler(d, e) == -algebra.euler.euler(e, phid)


def test_coxeter_fixes_h():
    phi = ref_coxeter_matrix(T4.euler)
    assert tuple(linalg.matvec(phi, T4.h())) == T4.h()


def test_isotropic_hull_examples():
    assert can.isotropic_hull(T4, T4.h()) == T4.h()
    assert can.isotropic_hull(T4, unit(T4, "0")) == (0, 1, 1, 1, 1, 2)
    assert can.isotropic_hull(T4, unit(T4, "inf")) == (2, 1, 1, 1, 1, 0)
    # scaling the seed cannot change the (indivisible) hull
    tripled = {v: 3 * x for v, x in unit(T4, "0").items()}
    assert can.isotropic_hull(T4, tripled) == (0, 1, 1, 1, 1, 2)


def test_isotropic_hull_properties():
    phi = ref_coxeter_matrix(T4.euler)
    rng = random.Random(17)
    for _ in range(10):
        seed = tuple(rng.randrange(0, 3) for _ in range(T4.euler.n))
        if not any(seed):
            continue
        hull = can.isotropic_hull(T4, seed)
        assert T4.euler.tits(hull) == 0
        assert tuple(linalg.matvec(phi, hull)) == hull
        assert math.gcd(*hull) == 1


def test_isotropic_hull_rejects():
    with pytest.raises(PreconditionError):
        can.isotropic_hull(WILD, WILD.h())
    with pytest.raises(PreconditionError):
        can.isotropic_hull(DOM, DOM.h())
    with pytest.raises(InputError):
        can.isotropic_hull(T4, (0,) * T4.euler.n)


def test_isotropic_hull_seeds_without_a_positive_hull():
    # nonnegative seeds whose orbit sum has both signs, or is zero, used to
    # end in an InvariantError
    with pytest.raises(PreconditionError, match="both signs"):
        can.isotropic_hull(T4, (1, 1, 0, 0, 0, 0))
    with pytest.raises(PreconditionError, match="sums to zero"):
        can.isotropic_hull(T4, (2, 0, 2, 2, 0, 2))


def test_isotropic_hull_of_random_seeds():
    # every nonzero 0/1 seed on a tubular algebra gets a Coxeter-fixed
    # isotropic indivisible positive hull or a PreconditionError
    rng = random.Random(31)
    refused = 0
    for weights in TUBULARS:
        algebra = can.build_canonical(weights, (1, 2)[: len(weights) - 2])
        phi = ref_coxeter_matrix(algebra.euler)
        for _ in range(25):
            seed = tuple(rng.randrange(0, 2) for _ in range(algebra.euler.n))
            if not any(seed):
                continue
            try:
                hull = can.isotropic_hull(algebra, seed)
            except PreconditionError:
                refused += 1
                continue
            assert linalg.matvec(phi, hull) == hull
            assert algebra.euler.tits(hull) == 0
            assert min(hull) >= 0 and math.gcd(*hull) == 1
    assert refused


def test_riemann_roch_examples():
    check = can.riemann_roch_check(T4, T4.h(), unit(T4, "0"))
    assert check.status == "ok"
    assert check.lhs == check.rhs == -2


def test_riemann_roch_prices_its_coxeter_period(monkeypatch):
    # the period lcm(53, 47, 43) = 107,113 needs 107,112 steps: over the
    # budget, the check raises before the first step
    algebra = can.build_canonical((53, 47, 43), (1,))
    ones = (1,) * algebra.euler.n
    stepper = can._coxeter_step

    def refused(euler):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(can, "_coxeter_step", refused)
    with pytest.raises(BudgetError):
        can.riemann_roch_check(algebra, ones, ones, budget=10**5)
    monkeypatch.setattr(can, "_coxeter_step", stepper)
    # T4's period 2 takes one step
    d, e = T4.h(), unit(T4, "0")
    assert can.riemann_roch_check(T4, d, e, budget=1).status == "ok"
    with pytest.raises(BudgetError):
        can.riemann_roch_check(T4, d, e, budget=0)
    with pytest.raises(InputError):
        can.riemann_roch_check(T4, d, e, budget=-1)


def test_riemann_roch_random():
    rng = random.Random(23)
    tuples = ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2), (3, 3, 2))
    for weights in tuples:
        lams = (1, 2)[: len(weights) - 2]
        algebra = can.build_canonical(weights, lams)
        n = algebra.euler.n
        for _ in range(30):
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            assert can.riemann_roch_check(algebra, d, e).status == "ok"


# The AC10 weight tuples (n in {3, 4}, weights 2..7) with at most 12
# vertices: the tuples the genus_scan benchmark workload scans.
SCAN_WEIGHTS = [
    w
    for n in (3, 4)
    for w in itertools.combinations_with_replacement(range(7, 1, -1), n)
    if 2 + sum(m - 1 for m in w) <= 12
]


def test_coxeter_and_riemann_roch_against_gauss_jordan_inverse():
    # the step's images of the unit vectors are the columns of Phi
    rng = random.Random(29)
    for weights in SCAN_WEIGHTS:
        algebra = can.build_canonical(weights, (1, 2)[: len(weights) - 2])
        n = algebra.euler.n
        step = can._coxeter_step(algebra.euler)
        columns = [step(tuple(int(i == j) for i in range(n))) for j in range(n)]
        assert tuple(zip(*columns)) == ref_coxeter_matrix(algebra.euler), weights
        for _ in range(3):
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            e = tuple(rng.randrange(-3, 4) for _ in range(n))
            assert can.riemann_roch_check(algebra, d, e).status == "ok", weights


def test_coxeter_step_matches_coxeter_matrix():
    rng = random.Random(37)
    for weights in SCAN_WEIGHTS + list(TUBULARS):
        algebra = can.build_canonical(weights, (1, 2)[: len(weights) - 2])
        phi = ref_coxeter_matrix(algebra.euler)
        step = can._coxeter_step(algebra.euler)
        for _ in range(4):
            x = tuple(rng.randrange(-5, 6) for _ in range(algebra.euler.n))
            assert step(x) == linalg.matvec(phi, x), weights


def test_coxeter_step_refuses_a_cyclic_quiver():
    # a -> b -> a with one relation on the loop path: E = ((2, -1), (-1, 1))
    # is unimodular, so E^-1 exists, but E is triangular in no vertex order
    # and neither the solves nor the step may answer
    cycle = Quiver(("a", "b"), (("x", "a", "b"), ("y", "b", "a")))
    euler = EulerMatrix(BoundQuiver(cycle, {("a", "a"): 1}))
    assert ref_inverse(euler.matrix) == ((1, 1), (1, 2))
    for solve in (euler.solve_left, euler.solve_right):
        with pytest.raises(PreconditionError, match="acyclic"):
            solve((1, 0))
    with pytest.raises(PreconditionError, match="acyclic"):
        can._coxeter_step(euler)


DYNKIN = ("A1", "A2", "A3", "A5", "D4", "D5", "D7", "E6", "E7", "E8")
EUCLIDEAN = ("A~1", "A~2", "A~3", "A~4", "D~4", "D~5", "D~7", "E~6", "E~7", "E~8")
SOLVE_QUIVERS = (
    [dynkin_quiver(n) for n in DYNKIN]
    + [euclidean_quiver(n) for n in EUCLIDEAN]
    + [kronecker_quiver(k) for k in (2, 3, 4)]
)


def test_solves_match_the_gauss_jordan_inverse():
    # E d = y and d^T E = theta, solved by substitution, against E^-1 over
    # Fraction on every quiver family and every canonical scan tuple
    rng = random.Random(41)
    eulers = [EulerMatrix(q) for q in SOLVE_QUIVERS] + [
        can.build_canonical(w, (1, 2)[: len(w) - 2]).euler
        for w in SCAN_WEIGHTS + list(TUBULARS)
    ]
    for euler in eulers:
        inv = ref_inverse(euler.matrix)
        for _ in range(5):
            y = tuple(rng.randrange(-5, 6) for _ in range(euler.n))
            right = euler.solve_right(y)
            left = euler.solve_left(y)
            assert all(type(x) is int for x in right + left)
            assert right == linalg.matvec(inv, y), euler.order
            assert left == linalg.vecmat(y, inv), euler.order
            assert euler.weight_right(right) == y
            assert euler.weight_left(left) == y


def test_solves_reject_a_wrong_length():
    euler = EulerMatrix(kronecker_quiver(2))
    for solve in (euler.solve_left, euler.solve_right):
        with pytest.raises(InputError):
            solve((1, 2, 3))


def test_build_checks_unimodularity_by_triangularity(monkeypatch):
    # E unitriangular in a topological order stands for det E = 1, which
    # the determinant confirms; a matrix triangular in no such order is
    # refused as an internal fault
    for weights in SCAN_WEIGHTS + list(TUBULARS):
        algebra = can.build_canonical(weights, (1, 2)[: len(weights) - 2])
        assert ref_det(algebra.euler.matrix) == 1, weights
    built = can.EulerMatrix

    def skewed(bound):
        # move the relation entry E[inf][0] to E[0][inf], against the arrows
        euler = built(bound)
        matrix = [list(row) for row in euler.matrix]
        i, j = euler.index["inf"], euler.index["0"]
        matrix[i][j], matrix[j][i] = matrix[j][i], matrix[i][j]
        euler.matrix = tuple(map(tuple, matrix))
        return euler

    monkeypatch.setattr(can, "EulerMatrix", skewed)
    with pytest.raises(InvariantError, match="unimodular"):
        can.build_canonical((2, 2, 2), (1,))


def test_kronecker_pair_euclidean():
    pair = can.kronecker_pair(EulerMatrix(kronecker_quiver(2)), (1, 1))
    assert (pair.d1, pair.d2) == ((0, 1), (1, 0))
    quiver = euclidean_quiver("D~4")
    euler = EulerMatrix(quiver)
    delta = euler.tup(null_root(quiver))
    pair = can.kronecker_pair(euler, delta)
    _assert_pair_invariants(euler, delta, pair)


def _assert_pair_invariants(euler, d, pair):
    assert tuple(a + b for a, b in zip(pair.d1, pair.d2)) == euler.tup(d)
    assert euler.tits(pair.d1) == 1
    assert euler.tits(pair.d2) == 1
    assert euler.euler(pair.d1, pair.d2) == 0
    assert euler.euler(pair.d2, pair.d1) == -2


def test_kronecker_pair_canonical():
    pair = can.kronecker_pair(T4, T4.h())
    assert pair.d1 == (1, 0, 0, 0, 0, 0)
    assert pair.d2 == (0, 1, 1, 1, 1, 1)
    _assert_pair_invariants(T4.euler, T4.h(), pair)
    # the domestic all-ones vector is isotropic as well
    pair = can.kronecker_pair(DOM, DOM.h())
    _assert_pair_invariants(DOM.euler, DOM.h(), pair)


def test_kronecker_pair_rejects():
    with pytest.raises(PreconditionError, match="real"):
        can.kronecker_pair(T4, unit(T4, "0"))
    with pytest.raises(PreconditionError, match="isotropic"):
        can.kronecker_pair(EulerMatrix(kronecker_quiver(3)), (1, 1))
    doubled = tuple(2 * x for x in T4.h())
    with pytest.raises(PreconditionError, match="indivisible"):
        can.kronecker_pair(T4, doubled)
    with pytest.raises(BudgetError):
        can.kronecker_pair(T4, T4.h(), budget=1)
    for bad in (-1, "7", 2.5):
        with pytest.raises(InputError):
            can.kronecker_pair(T4, T4.h(), budget=bad)
    # -h is isotropic and indivisible too; its empty search box used to end
    # in an InvariantError ("no Kronecker pair below ... despite q(d) = 0")
    minus_h = tuple(-x for x in DOM.h())
    with pytest.raises(InputError, match="nonnegative"):
        can.kronecker_pair(DOM, minus_h)
    # a <-> b: q(1, 1) = 0, but the quiver has an oriented cycle, which
    # used to end in the same InvariantError
    cycle = Quiver(("a", "b"), (("x", "a", "b"), ("y", "b", "a")))
    with pytest.raises(PreconditionError, match="acyclic"):
        can.kronecker_pair(EulerMatrix(cycle), (1, 1))


def test_rational_invariants_canonical():
    assert can.rational_invariants_canonical(T4, T4.h()).field_description == "k(t)"
    assert (
        can.rational_invariants_canonical(T4, unit(T4, "0")).field_description == "k"
    )
    doubled = tuple(2 * x for x in T4.h())
    profile = can.rational_invariants_canonical(
        T4, doubled, decomposition=[(T4.h(), 2)]
    )
    assert profile.n_isotropic == 2
    assert profile.field_description == "k(t_1,t_2)"
    assert can.rational_invariants_canonical(DOM, DOM.h()).field_description == "k(t)"


def test_rational_invariants_canonical_rejects():
    with pytest.raises(PreconditionError):
        can.rational_invariants_canonical(WILD, WILD.h())
    # q(e_0 + e_inf) is neither 0 nor 1
    both = {
        v: (1 if v in ("0", "inf") else 0) for v in T4.vertex_ids
    }
    with pytest.raises(InputError):
        can.rational_invariants_canonical(T4, both)
    doubled = tuple(2 * x for x in T4.h())
    with pytest.raises(InputError):
        can.rational_invariants_canonical(T4, doubled, decomposition=[(T4.h(), 1)])
    with pytest.raises(InputError):
        can.rational_invariants_canonical(T4, doubled, decomposition=[(T4.h(), 0)])
    zero = (0,) * T4.euler.n
    with pytest.raises(InputError):
        can.rational_invariants_canonical(T4, zero, decomposition=[(zero, 1)])
    # negative vectors, as d and as a claimed root, used to reach the
    # Kronecker search and end in an InvariantError
    minus_h = tuple(-x for x in DOM.h())
    with pytest.raises(InputError, match="nonnegative"):
        can.rational_invariants_canonical(DOM, minus_h)
    with pytest.raises(InputError, match="nonnegative"):
        can.rational_invariants_canonical(
            DOM, (0,) * DOM.euler.n, decomposition=[(DOM.h(), 1), (minus_h, 1)]
        )


def test_rational_invariants_rejects_fractional_multiplicity():
    # truncating 2.5 to 2 would count two isotropic roots summing to 2h
    doubled = tuple(2 * x for x in T4.h())
    with pytest.raises(InputError):
        can.rational_invariants_canonical(
            T4, doubled, decomposition=[(T4.h(), 2.5)]
        )


def test_parse_format_round_trip():
    for weights, lams in (
        ((6, 3, 2), (1,)),
        ((2, 2, 2, 2), (1, 2)),
        ((2, 2, 2, 2), (1, Fraction(1, 2))),
    ):
        algebra = can.build_canonical(weights, lams)
        back = can.parse_canonical(can.format_canonical(algebra))
        assert back.weights_m == algebra.weights_m
        assert back.lambdas == algebra.lambdas


def test_parse_rejects():
    bad = [
        "quiver weights=2,2,2 lambda=1",
        "canonical weights=2,2,2",
        "canonical lambda=1",
        "canonical weights=2,2,2 lambda=1 extra=9",
        "canonical weights=2,2,2 weights=2,2,2 lambda=1",
        "canonical weights=2,x,2 lambda=1",
        "canonical weights=2,2,2 lambda=1/0",
        "canonical weights",
    ]
    for text in bad:
        with pytest.raises(InputError):
            can.parse_canonical(text)
