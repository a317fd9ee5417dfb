"""Stability, effective-weight cones, local quivers, and moduli verdicts."""

import itertools
from fractions import Fraction

import pytest

from quiverinv import cones, generic, siweights, stability
from quiverinv.core import (
    EulerMatrix,
    Quiver,
    classify_path_algebra,
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
from quiverinv.generic import is_schur_root

from oracles import ref_si_dim

EK2 = EulerMatrix(kronecker_quiver(2))
EK3 = EulerMatrix(kronecker_quiver(3))
EA2 = EulerMatrix(dynkin_quiver("A2"))
EA3 = EulerMatrix(dynkin_quiver("A3"))


def test_semistable_examples():
    assert stability.is_semistable_generic(EK2, (1, 1), (1, -1))
    assert not stability.is_semistable_generic(EK2, (1, 1), (-1, 1))
    assert stability.is_semistable_generic(EK2, (1, 1), (0, 0))
    assert stability.is_semistable_generic(EK2, (2, 2), (1, -1))
    # weight not vanishing on d
    assert not stability.is_semistable_generic(EK2, (1, 1), (1, 0))
    # the zero representation is semistable but never stable
    assert stability.is_semistable_generic(EK2, (0, 0), (1, -1))
    assert not stability.is_stable_generic(EK2, (0, 0), (1, -1))


def test_stable_examples():
    assert stability.is_stable_generic(EK2, (1, 1), (1, -1))
    assert stability.is_stable_generic(EK2, (1, 1), (2, -2))
    assert not stability.is_stable_generic(EK2, (2, 2), (1, -1))
    assert not stability.is_stable_generic(EK2, (1, 1), (0, 0))
    # simples are stable for the zero weight
    assert stability.is_stable_generic(EK2, (1, 0), (0, 0))
    assert stability.is_stable_generic(EK3, (1, 1), (3, -3))
    assert stability.is_stable_generic(EK2, (2, 1), (2, -4))


def test_semistable_box_limit():
    with pytest.raises(BudgetError):
        stability.is_semistable_generic(EK2, (50, 50), (1, -1), box_limit=10)


def test_effective_cone_kronecker():
    cone = stability.effective_cone(EK2, (1, 1))
    assert cone.dim == 1
    assert cone.equalities == ((1, 1),)
    assert cone.inequalities == ((0, 1),)
    assert cone.lineality == ()
    assert cone.rays == ((1, -1),)
    assert len(cone.facets) == 1
    facet = cone.facets[0]
    assert facet.defining == ((0, 1),)
    assert facet.rays == ()
    assert facet.interior_point == (0, 0)
    # A2 and K3 share the shape for the thin sincere vector
    for euler in (EA2, EK3):
        other = stability.effective_cone(euler, (1, 1))
        assert other.rays == ((1, -1),)
        assert other.dim == 1


def test_effective_cone_matches_semistability():
    cases = [
        (EK2, (1, 1)),
        (EK2, (2, 2)),
        (EK2, (2, 1)),
        (EK3, (1, 1)),
        (EA3, (1, 1, 1)),
        (EA3, (1, 2, 1)),
    ]
    for euler, d in cases:
        cone = stability.effective_cone(euler, d)
        for theta in itertools.product(range(-2, 3), repeat=euler.n):
            assert cone.contains(theta) == stability.is_semistable_generic(
                euler, d, theta
            )


def test_effective_cone_is_the_cone_of_its_subdims():
    # one cone type: the effective cone is the cones.describe description of
    # d = 0 and the proper nonzero generic subdimension vectors, field for field
    for name in ("A~2", "D~4"):
        euler = EulerMatrix(euclidean_quiver(name))
        for d in itertools.product(range(4), repeat=euler.n):
            if not any(d) or sum(d) > 3:
                continue
            subs = [
                sub
                for sub in generic.generic_subdims(euler, d)
                if any(sub) and sub != d
            ]
            expected = cones.describe(euler.n, [d], subs)
            assert stability.effective_cone(euler, d) == expected, (name, d)


def test_effective_cone_is_a_cone():
    cone = stability.effective_cone(EK2, (2, 2))
    assert cone.contains((0, 0))
    assert cone.contains((3, -3))
    assert cone.contains((6, -6))
    assert not cone.contains((-1, 1))


@pytest.mark.parametrize("theta", [(), (1,), (0, 0, 0, 0, 0, 0)])
def test_weight_cone_rejects_wrong_length(theta):
    # a shorter or longer weight used to be truncated by zip
    cone = stability.effective_cone(
        EulerMatrix(euclidean_quiver("D~4")), (1, 1, 1, 1, 2)
    )
    with pytest.raises(InputError):
        cone.contains(theta)


def test_stable_decomposition_examples():
    dec = stability.theta_stable_decomposition(EK2, (2, 2), (1, -1))
    assert dec.factors == (((1, 1), 2, "isotropic"),)
    dec = stability.theta_stable_decomposition(EK2, (2, 1), (2, -4))
    assert dec.factors == (((2, 1), 1, "real"),)
    # the zero weight peels simples
    dec = stability.theta_stable_decomposition(EK2, (2, 2), (0, 0))
    assert dec.factors == (((0, 1), 2, "real"), ((1, 0), 2, "real"))
    dec = stability.theta_stable_decomposition(EK3, (2, 2), (3, -3))
    assert dec.factors == (((2, 2), 1, "imaginary"),)


def test_stable_decomposition_requires_semistable():
    with pytest.raises(PreconditionError):
        stability.theta_stable_decomposition(EK2, (1, 1), (-1, 1))


def test_stable_decomposition_scaling():
    # isotropic d: the decomposition of m*d is m copies of d
    for m in (2, 3):
        dec = stability.theta_stable_decomposition(
            EK2, (m, m), (1, -1)
        )
        assert dec.factors == (((1, 1), m, "isotropic"),)
    # anisotropic imaginary d: m*d stays a single stable factor
    dec = stability.theta_stable_decomposition(EK3, (2, 2), (3, -3))
    assert dec.factors == (((2, 2), 1, "imaginary"),)


def test_stable_decomposition_structure():
    cases = [
        (EK2, (2, 2), (1, -1)),
        (EK2, (3, 2), (2, -3)),
        (EK2, (2, 2), (0, 0)),
        (EA3, (1, 2, 1), (0, 0, 0)),
        (EK3, (2, 2), (3, -3)),
    ]
    for euler, d, theta in cases:
        if not stability.is_semistable_generic(euler, d, theta):
            continue
        dec = stability.theta_stable_decomposition(euler, d, theta)
        total = [0] * euler.n
        for root, mult, _ in dec.factors:
            assert mult >= 1
            assert sum(t * x for t, x in zip(theta, root)) == 0
            assert stability.is_stable_generic(euler, root, theta)
            for i, x in enumerate(root):
                total[i] += mult * x
        assert tuple(total) == euler.tup(d)


def test_local_quiver_examples():
    # two distinct generic points of the homogeneous family: a loop each
    setup = stability.local_quiver(EK2, [((1, 1), 1), ((1, 1), 1)])
    arrows = sorted((t, h) for _, t, h in setup.quiver.arrows)
    assert arrows == [("m1", "m1"), ("m2", "m2")]
    assert setup.dim == {"m1": 1, "m2": 1}
    # a rigid real root leaves a bare vertex
    setup = stability.local_quiver(EK2, [((2, 1), 1)])
    assert setup.quiver.arrows == ()
    assert setup.dim == {"m1": 1}
    # anisotropic imaginary: 1 - <d,d> loops
    setup = stability.local_quiver(EK3, [((1, 1), 2)])
    arrows = [(t, h) for _, t, h in setup.quiver.arrows]
    assert arrows == [("m1", "m1"), ("m1", "m1")]
    assert setup.dim == {"m1": 2}


def test_local_quiver_errors():
    with pytest.raises(InputError):
        stability.local_quiver(EK2, [((0, 0), 1)])
    with pytest.raises(InputError):
        stability.local_quiver(EK2, [((1, 1), 0)])
    # (-1,-1) used to give a local quiver and (2,-1) an InvariantError
    for dim in ((-1, -1), (2, -1)):
        with pytest.raises(InputError, match="nonnegative"):
            stability.local_quiver(EK2, [(dim, 1)])
    # hom between the factors: a negative ext count means they are not
    # distinct stables, which is the caller's claim (it was an
    # InvariantError)
    with pytest.raises(PreconditionError, match="negative ext count"):
        stability.local_quiver(EA2, [((1, 1), 1), ((0, 1), 1)])
    with pytest.raises(PreconditionError, match="negative ext count -1"):
        stability.local_quiver(EK3, [((1, 1), 1), ((1, 0), 1)])


def _local_tits(euler, d, theta):
    dec = stability.theta_stable_decomposition(euler, d, theta)
    setup = stability.local_quiver(
        euler, [(root, mult) for root, mult, _ in dec.factors]
    )
    local = EulerMatrix(setup.quiver)
    return local.tits(local.tup(setup.dim))


def test_local_quiver_rejects_fractional_multiplicity():
    # a multiplicity of 1.5 used to be truncated to 1
    with pytest.raises(InputError):
        stability.local_quiver(EK2, [((1, 1), 1.5)])
    with pytest.raises(InputError):
        stability.local_quiver(EK2, [((1, 1), "2")])
    setup = stability.local_quiver(EK2, [((1, 1), 2.0)])
    assert setup == stability.local_quiver(EK2, [((1, 1), 2)])


def test_local_quiver_preserves_tits():
    # the local model keeps 1 - q(d): q_local(multiplicities) = q(d)
    cases = [
        (EK2, (2, 2), (1, -1)),
        (EK2, (2, 1), (2, -4)),
        (EK2, (2, 2), (0, 0)),
        (EK2, (3, 3), (1, -1)),
        (EK3, (2, 2), (3, -3)),
    ]
    for euler, d, theta in cases:
        assert _local_tits(euler, d, theta) == euler.tits(euler.tup(d))


def test_effective_cone_facets_are_faces():
    for name in ("A~2", "D~4"):
        quiver = euclidean_quiver(name)
        euler = EulerMatrix(quiver)
        delta = euler.tup(null_root(quiver))
        cone = stability.effective_cone(euler, delta)
        assert cone.facets
        for facet in cone.facets:
            cut = cones.describe(
                euler.n,
                list(cone.equalities) + list(facet.defining),
                cone.inequalities,
            )
            as_cone = cones.ConeDescription(
                euler.n,
                cone.equalities + facet.defining,
                cone.inequalities,
                cone.lineality,
                facet.rays,
                cone.dim - 1,
                (),
            )
            assert cut.dim == cone.dim - 1
            assert cut.same_cone(as_cone)


def test_null_root_facet_decompositions():
    """Walls of Eff(delta) degenerate the homogeneous family into a pair of
    real stables whose local quiver is again tame with null root equal to
    the multiplicity vector."""
    for name in ("A~2", "D~4"):
        quiver = euclidean_quiver(name)
        euler = EulerMatrix(quiver)
        delta = euler.tup(null_root(quiver))
        cone = stability.effective_cone(euler, delta)
        checked = 0
        for facet in cone.facets:
            theta0 = facet.interior_point
            if not any(theta0):
                continue
            dec = stability.theta_stable_decomposition(euler, delta, theta0)
            assert all(cls == "real" for _, _, cls in dec.factors)
            assert all(mult == 1 for _, mult, _ in dec.factors)
            setup = stability.local_quiver(
                euler, [(root, mult) for root, mult, _ in dec.factors]
            )
            local = EulerMatrix(setup.quiver)
            assert local.tits(local.tup(setup.dim)) == 0
            cls = classify_path_algebra(setup.quiver)
            assert cls.type == "tame_infinite"
            assert local.tup(null_root(setup.quiver)) == local.tup(setup.dim)
            checked += 1
        assert checked >= 2


def test_moduli_dimension_examples():
    assert stability.moduli_dimension(EK2, (1, 1), (2, -2)) == 1
    assert stability.moduli_dimension(EK2, (1, 0), (0, 0)) == 0
    assert stability.moduli_dimension(EK3, (1, 1), (3, -3)) == 2
    with pytest.raises(PreconditionError):
        stability.moduli_dimension(EK2, (2, 2), (1, -1))


def test_projective_space_examples():
    verdict = stability.projective_space_verdict(EK2, (1, 1), (1, -1), 6)
    assert (verdict.status, verdict.m, verdict.q) == ("is_P_m", 1, 1)
    verdict = stability.projective_space_verdict(EK2, (2, 2), (1, -1), 6)
    assert (verdict.status, verdict.m, verdict.q) == ("is_P_m", 2, 1)
    # doubling the weight doubles the polarization degree, not the space
    verdict = stability.projective_space_verdict(EK2, (1, 1), (2, -2), 6)
    assert (verdict.status, verdict.m, verdict.q) == ("is_P_m", 1, 2)
    verdict = stability.projective_space_verdict(EK2, (1, 0), (0, 0), 3)
    assert (verdict.status, verdict.m, verdict.q) == ("is_P_m", 0, 0)
    assert verdict.q == Fraction(0)


def test_projective_space_edge_cases():
    # one sample cannot pin a difference table
    verdict = stability.projective_space_verdict(EK2, (1, 1), (1, -1), 1)
    assert verdict.status == "inconclusive"
    with pytest.raises(InputError):
        stability.projective_space_verdict(EK2, (1, 1), (1, -1), 0)
    with pytest.raises(PreconditionError):
        stability.projective_space_verdict(EK2, (1, 1), (-1, 1), 3)


def test_projective_space_zero_is_an_invariant_error(monkeypatch):
    # a semistable ray has no zero (Derksen-Weyman saturation), so a zero
    # from si_table is a fault of the library, not a verdict
    def zero_at_two(euler, d, theta, n_max, budget):
        return siweights.SIWeightTable(theta, (1, 2, 0, 4)[: n_max + 1])

    monkeypatch.setattr(siweights, "si_table", zero_at_two)
    with pytest.raises(InvariantError):
        stability.projective_space_verdict(EK2, (1, 1), (1, -1), 3)


def test_tame_ray_with_a_degree_two_polarisation():
    # A~2 (v1 -> v2 -> v3 and v1 -> v3) at delta = (1, 1, 1) and the
    # primitive weight (2, 1, -3): delta is theta-stable, yet SI(Q,delta)_theta
    # has dimension 3, so along the ray s(n) = 2n + 1 and not n + 1.  The
    # moduli space is P^1, embedded by a polarisation of degree 2
    euler = EulerMatrix(euclidean_quiver("A~2"))
    delta, theta = (1, 1, 1), (2, 1, -3)
    decomp = stability.theta_stable_decomposition(euler, delta, theta)
    assert decomp.factors == ((delta, 1, "isotropic"),)
    dims = siweights.si_table(euler, delta, theta, 5).dims
    assert dims == tuple(2 * n + 1 for n in range(6))
    for n in range(4):
        weight = tuple(n * t for t in theta)
        assert ref_si_dim(euler, delta, weight, siweights.DEFAULT_BUDGET) == dims[n]
    verdict = stability.projective_space_verdict(euler, delta, theta, 5)
    assert (verdict.status, verdict.m, verdict.q) == ("is_P_m", 1, 2)


def test_projective_space_wild_counterexample():
    # the headline wild failure: the weight-scaling dimensions along the
    # ray over (21,42) violate log-concavity immediately, so the verdict
    # cannot be any P^m.  The semistability precondition tests ext only on
    # the subdimension vectors with theta > 0, so the si_table ray dominates
    # the runtime.
    verdict = stability.projective_space_verdict(EK3, (21, 42), (2, -1), 2)
    assert verdict.status == "not_projective_space"
    # the opposite weight has no semi-invariants (Derksen-Weyman saturation:
    # semistable exactly when SI(Q,d)_theta != 0), and the recursion agrees
    assert siweights.si_dim(EK3, (21, 42), (-2, 1)) == 0
    assert not stability.is_semistable_generic(EK3, (21, 42), (-2, 1))
    with pytest.raises(PreconditionError):
        stability.projective_space_verdict(EK3, (21, 42), (-2, 1), 2)


def test_projective_space_rejects_an_irrational_degree():
    # K4 at (1, 2), theta = (2, -1): the moduli space is Gr(2, 4), whose
    # Hilbert polynomial has degree 4 and leading coefficient 1/12 = q^4/24,
    # so no rational degree q fits: q^4 would be 2
    ek4 = EulerMatrix(kronecker_quiver(4))
    dims = siweights.si_table(ek4, (1, 2), (2, -1), 5).dims
    assert dims == (1, 6, 20, 50, 105, 196)
    assert siweights.log_concavity_check(dims).status == "ok"
    assert siweights._pin_polynomial(dims) == (4, 2)
    assert stability._rational_root(2, 4) is None
    verdict = stability.projective_space_verdict(ek4, (1, 2), (2, -1), 5)
    assert (verdict.status, verdict.m, verdict.q) == (
        "not_projective_space",
        None,
        None,
    )


def test_rational_invariants_profile():
    assert stability.rational_invariants_profile(EK2, (3, 1)).field_description == "k"
    assert (
        stability.rational_invariants_profile(EK2, (2, 2)).field_description
        == "k(t_1,t_2)"
    )
    assert stability.rational_invariants_profile(EK2, (1, 1)).field_description == "k(t)"
    assert (
        stability.rational_invariants_profile(EA3, (1, 1, 1)).field_description == "k"
    )
    assert stability.rational_invariants_profile(EK2, (2, 2)).n_isotropic == 2
    with pytest.raises(PreconditionError):
        stability.rational_invariants_profile(EK3, (1, 1))


def test_field_for_count():
    assert stability.field_for_count(0) == "k"
    assert stability.field_for_count(1) == "k(t)"
    assert stability.field_for_count(3) == "k(t_1,t_2,t_3)"


def test_schur_stability_equivalence():
    # stability at the self-weight detects Schur roots; the exhaustive
    # |d| <= 6 sweep lives in the acceptance suite
    for euler in (EK2, EK3, EA3):
        for d in itertools.product(range(6), repeat=euler.n):
            if not any(d) or sum(d) > 5:
                continue
            theta = euler.theta(d)
            assert is_schur_root(euler, d) == stability.is_stable_generic(
                euler, d, theta
            )


def test_plan_built_once_per_matrix(monkeypatch):
    # the plan takes its acyclicity and order from one Kahn pass; count it
    calls = []
    original = Quiver._kahn

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Quiver, "_kahn", counted)
    # fresh vertex ids, so that no cached answer spares the plan
    quiver = Quiver(("p", "q"), (("a", "p", "q"), ("b", "p", "q")))
    euler = EulerMatrix(quiver)
    assert calls == []
    generic.canonical_decomposition(euler, (3, 2))
    stability.theta_stable_decomposition(euler, (2, 2), (1, -1))
    assert siweights.si_table(euler, (2, 2), (1, -1), 3).dims == (1, 3, 6, 10)
    assert calls == [quiver]


CYCLIC = EulerMatrix(Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1"))))


@pytest.mark.parametrize(
    "call",
    [
        lambda e: generic.generic_subdims(e, (1, 1)),
        lambda e: generic.ext_generic(e, (1, 1), (1, 0)),
        lambda e: stability.is_semistable_generic(e, (1, 1), (1, -1)),
        # a weight that misses d must not answer before the check
        lambda e: stability.is_semistable_generic(e, (1, 1), (1, 0)),
        lambda e: generic.canonical_decomposition(e, (1, 1)),
        lambda e: siweights.si_table(e, (1, 1), (1, -1), 2),
        lambda e: siweights.circ(e, (1, 1), (1, 1)),
    ],
    ids=[
        "generic_subdims",
        "ext_generic",
        "is_semistable_generic",
        "is_semistable_generic_off_weight",
        "canonical_decomposition",
        "si_table",
        "circ",
    ],
)
def test_cyclic_quiver_rejected_at_every_entry_point(call):
    with pytest.raises(PreconditionError):
        call(CYCLIC)
