"""Concrete Hom/Ext, the Schofield recursion, and canonical decompositions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverinv import generic
from quiverinv.core import EulerMatrix, Quiver, dynkin_quiver, euclidean_quiver, kronecker_quiver
from quiverinv.errors import BudgetError, InputError, PreconditionError
from quiverinv.generic import (
    canonical_decomposition,
    ext_generic,
    generic_hom_ext,
    generic_subdims,
    is_schur_root,
    root_class,
)
from quiverinv.stability import (
    is_semistable_generic,
    is_stable_generic,
    theta_stable_decomposition,
)

from oracles import (
    Representation,
    candecomp_exhaustive,
    generic_subdims_scan,
    hom_ext_concrete,
    hom_ext_sampled,
    random_representation,
    ref_canonical_decomposition,
    ref_canonical_weight,
    ref_ext_generic,
    ref_generic_subdims,
    ref_is_semistable,
    ref_is_stable,
    ref_theta_stable_decomposition,
    subdims_via_sampled_ext,
)

K2 = kronecker_quiver(2)
K3 = kronecker_quiver(3)
A2 = dynkin_quiver("A2")
A3 = dynkin_quiver("A3")


def simple(quiver, vertex):
    dims = {v: int(v == vertex) for v in quiver.vertices}
    mats = {
        aid: tuple(() for _ in range(dims[h]))
        for aid, t, h in quiver.arrows
    }
    return Representation(quiver, dims, mats)


def test_hom_ext_concrete_simples():
    s1, s2 = simple(A2, "v1"), simple(A2, "v2")
    assert hom_ext_concrete(s1, s1) == (1, 0)
    assert hom_ext_concrete(s1, s2) == (0, 1)
    assert hom_ext_concrete(s2, s1) == (0, 0)


def test_hom_ext_concrete_kronecker_generic():
    # distinct nonzero scalars: only scalar endomorphisms, one extension class
    v = Representation(K2, {"v1": 1, "v2": 1}, {"a1": ((1,),), "a2": ((2,),)})
    assert hom_ext_concrete(v, v) == (1, 1)


def test_hom_ext_euler_consistency():
    rng = random.Random(3)
    for quiver in (K2, A3, euclidean_quiver("D~4")):
        e = EulerMatrix(quiver)
        for _ in range(15):
            a = tuple(rng.randrange(0, 3) for _ in range(e.n))
            b = tuple(rng.randrange(0, 3) for _ in range(e.n))
            v = random_representation(quiver, a, rng)
            w = random_representation(quiver, b, rng)
            hom, ext = hom_ext_concrete(v, w)
            assert hom - ext == e.euler(a, b)


def test_representation_shape_validation():
    with pytest.raises(InputError):
        Representation(K2, {"v1": 1, "v2": 1}, {"a1": ((1,),)})
    with pytest.raises(InputError):
        Representation(
            K2, {"v1": 1, "v2": 1}, {"a1": ((1, 2),), "a2": ((1,),)}
        )


def test_generic_hom_ext_examples():
    ea2 = EulerMatrix(A2)
    assert generic_hom_ext(ea2, (1, 0), (0, 1)) == (0, 1)
    ek2 = EulerMatrix(K2)
    assert generic_hom_ext(ek2, (1, 1), (1, 1)) == (0, 0)
    assert generic_hom_ext(ek2, (2, 1), (0, 0)) == (0, 0)


def test_generic_hom_ext_rejects_cycles():
    cyc = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    with pytest.raises(PreconditionError):
        generic_hom_ext(EulerMatrix(cyc), (1, 1), (1, 1))


def test_generic_hom_ext_rejects_negative_vectors():
    ek3 = EulerMatrix(K3)
    for a, b in (((1, 1), (-1, 2)), ((-1, 2), (1, 1))):
        with pytest.raises(InputError):
            ext_generic(ek3, a, b)
    with pytest.raises(InputError):
        generic_hom_ext(ek3, (1, 1), (2, -1))


def test_ext_generic_rejects_non_integral_entries():
    with pytest.raises(InputError):
        ext_generic(EulerMatrix(K3), (1.7, 1), (1, 1))


def test_generic_vs_sampled_semicontinuity():
    rng = random.Random(17)
    for quiver in (K2, A3):
        e = EulerMatrix(quiver)
        for _ in range(8):
            a = tuple(rng.randrange(0, 3) for _ in range(e.n))
            b = tuple(rng.randrange(0, 3) for _ in range(e.n))
            gh, ge = generic_hom_ext(e, a, b)
            sh, se = hom_ext_sampled(quiver, a, b, trials=20)
            # sampled minima over concrete points witness the generic value
            assert (gh, ge) == (sh, se)


def test_generic_subdims_examples():
    assert generic_subdims(EulerMatrix(K2), (1, 1)) == ((0, 0), (0, 1), (1, 1))
    assert generic_subdims(EulerMatrix(A2), (1, 1)) == ((0, 0), (0, 1), (1, 1))
    assert generic_subdims(EulerMatrix(K2), (0, 0)) == ((0, 0),)


def test_generic_subdims_against_scan_oracle():
    for quiver in (K2, A2, K3):
        got = sorted(generic_subdims(EulerMatrix(quiver), (1, 1)))
        assert got == generic_subdims_scan(quiver, (1, 1))


def test_generic_subdims_against_sampled_ext_oracle():
    for quiver, d in ((K2, (2, 2)), (K2, (2, 1)), (A3, (1, 2, 1))):
        got = sorted(generic_subdims(EulerMatrix(quiver), d))
        assert got == subdims_via_sampled_ext(quiver, d)


def test_box_limit():
    with pytest.raises(BudgetError):
        generic_subdims(EulerMatrix(K2), (200, 200), box_limit=100)
    # a malformed or negative limit is bad input, not an exhausted budget
    for bad in ("7", -1, 2.5, None):
        with pytest.raises(InputError):
            generic_subdims(EulerMatrix(K2), (1, 1), box_limit=bad)
        with pytest.raises(InputError):
            is_semistable_generic(EulerMatrix(K2), (1, 1), (1, -1), box_limit=bad)
    assert generic_subdims(EulerMatrix(K2), (0, 0), box_limit=1.0) == ((0, 0),)


def test_box_limit_bounds_the_whole_recursion(monkeypatch):
    # the box of (200, 200) has 201^2 = 40,401 points, but from a cold cache
    # the recursion scans the box of every v <= d: (201 * 202 / 2)^2 points
    ek2 = EulerMatrix(K2)
    called = []
    # every scan of a box, lazy or full, runs through _generic_subs
    monkeypatch.setattr(generic, "_generic_subs", lambda *args: called.append(args))
    monkeypatch.setattr(
        "quiverinv.stability._generic_subs", lambda *args: called.append(args)
    )
    for limit in (10**6, generic.BOX_LIMIT):
        with pytest.raises(BudgetError):
            generic_subdims(ek2, (200, 200), box_limit=limit)
        with pytest.raises(BudgetError):
            is_semistable_generic(ek2, (200, 200), (1, -1), box_limit=limit)
        with pytest.raises(BudgetError):
            is_stable_generic(ek2, (200, 200), (1, -1), box_limit=limit)
        with pytest.raises(BudgetError):
            theta_stable_decomposition(ek2, (200, 200), (1, -1), box_limit=limit)
        with pytest.raises(BudgetError):
            canonical_decomposition(ek2, (200, 200), box_limit=limit)
    assert called == []
    monkeypatch.undo()
    # (1, 1) costs exactly (2 * 3 / 2)^2 = 9 points
    assert generic_subdims(ek2, (1, 1), box_limit=9) == ((0, 0), (0, 1), (1, 1))
    with pytest.raises(BudgetError):
        generic_subdims(ek2, (1, 1), box_limit=8)


def test_is_schur_root_examples():
    ek2 = EulerMatrix(K2)
    assert is_schur_root(ek2, (1, 1))
    assert not is_schur_root(ek2, (2, 2))
    assert is_schur_root(EulerMatrix(K3), (1, 1))
    with pytest.raises(PreconditionError):
        is_schur_root(ek2, (0, 0))


def test_root_class():
    ek2 = EulerMatrix(K2)
    assert root_class(ek2, (1, 0)) == "real"
    assert root_class(ek2, (1, 1)) == "isotropic"
    assert root_class(EulerMatrix(K3), (1, 1)) == "imaginary"


def test_schur_delta_on_euclidean_catalogue():
    from quiverinv.core import null_root

    for name in ["A~1", "A~2", "A~3", "A~4", "D~4", "D~5"]:
        q = euclidean_quiver(name)
        e = EulerMatrix(q)
        delta = null_root(q)
        assert is_schur_root(e, delta)
        # 2*delta on the bigger diagrams sends the recursion through a huge
        # subproblem lattice; the small ones already witness divisibility
        if name in ("A~1", "A~2", "A~3", "D~4"):
            assert not is_schur_root(e, tuple(2 * x for x in delta))


def test_canonical_decomposition_examples():
    ek2 = EulerMatrix(K2)
    got = canonical_decomposition(ek2, (3, 1))
    assert [(r, m) for r, m, _ in got.summands] == [((1, 0), 1), ((2, 1), 1)]
    got = canonical_decomposition(ek2, (2, 2))
    assert [(r, m, c) for r, m, c in got.summands] == [((1, 1), 2, "isotropic")]
    got = canonical_decomposition(EulerMatrix(K3), (2, 2))
    assert [(r, m, c) for r, m, c in got.summands] == [((2, 2), 1, "imaginary")]


def test_canonical_decomposition_sums_and_classes():
    rng = random.Random(31)
    for quiver in (K2, K3, A3):
        e = EulerMatrix(quiver)
        for _ in range(12):
            d = tuple(rng.randrange(0, 4) for _ in range(e.n))
            dec = canonical_decomposition(e, d)
            total = [0] * e.n
            for root, mult, cls in dec.summands:
                assert is_schur_root(e, root)
                assert cls == root_class(e, root)
                for i, x in enumerate(root):
                    total[i] += mult * x
            assert tuple(total) == d


def test_canonical_decomposition_exhaustive_oracle():
    for quiver in (K2, A3):
        e = EulerMatrix(quiver)
        for d in itertools.product(range(5), repeat=e.n):
            if not 0 < sum(d) <= 5:
                continue
            expanded = []
            for root, mult, _ in canonical_decomposition(e, d).summands:
                expanded += [root] * mult
            assert sorted(expanded) == candecomp_exhaustive(e, d)


def test_dynkin_summands_all_real():
    for quiver in (A3, dynkin_quiver("D4")):
        e = EulerMatrix(quiver)
        for d in itertools.product(range(4), repeat=e.n):
            if not 0 < sum(d) <= 6:
                continue
            for _, _, cls in canonical_decomposition(e, d).summands:
                assert cls == "real"


def test_decomposition_invariant_under_declaration_order():
    ek2 = EulerMatrix(K2)
    swapped = Quiver(("v2", "v1"), (("a1", "v1", "v2"), ("a2", "v1", "v2")))
    es = EulerMatrix(swapped)
    for d in (((3, 1)), (2, 2), (1, 3)):
        a = canonical_decomposition(ek2, {"v1": d[0], "v2": d[1]})
        b = canonical_decomposition(es, {"v1": d[0], "v2": d[1]})
        assert a.summands == b.summands


WILD_CHAIN = Quiver(
    ("a", "b", "c"),
    (("x1", "a", "b"), ("x2", "a", "b"), ("y1", "b", "c"), ("y2", "b", "c")),
)
# a => b -> c: K2 with a tail
K2_TAIL = Quiver(
    ("a", "b", "c"), (("x1", "a", "b"), ("x2", "a", "b"), ("y", "b", "c"))
)
# a => b, a -> c, b -> c: the triangle, whose arrows form an unoriented cycle
TRIANGLE = Quiver(
    ("a", "b", "c"),
    (("x", "a", "b"), ("y", "a", "b"), ("z", "a", "c"), ("w", "b", "c")),
)


# the reference recursion costs about the square of the subdimension box, so
# D~4 vectors are capped in total: on (4,4,4,4,4) the canonical decomposition
# takes about 0.2 s in the library and about 115 s in the reference (CPython
# 3.11.7, shared 2-core host)
RECURSION_QUIVERS = pytest.mark.parametrize(
    "quiver, max_total",
    [
        (K2, None),
        (K3, None),
        (A3, None),
        (euclidean_quiver("D~4"), 8),
        (WILD_CHAIN, None),
        (K2_TAIL, None),
        (TRIANGLE, None),
    ],
    ids=["K2", "K3", "A3", "D~4", "wild_chain", "K2_tail", "triangle"],
)


def _vectors(euler, max_total):
    vectors = st.tuples(*[st.integers(0, 4)] * euler.n)
    if max_total is not None:
        vectors = vectors.filter(lambda d: sum(d) <= max_total)
    return vectors


@RECURSION_QUIVERS
def test_schofield_recursion_matches_reference(quiver, max_total):
    euler = EulerMatrix(quiver)
    vectors = _vectors(euler, max_total)

    @settings(max_examples=40)
    @given(vectors, vectors)
    def check(d, e):
        assert generic_subdims(euler, d) == ref_generic_subdims(euler, d)
        assert ext_generic(euler, d, e) == ref_ext_generic(euler, d, e)
        assert ext_generic(euler, e, d) == ref_ext_generic(euler, e, d)
        # the early-exit zero test agrees with the full maximum
        assert generic._ext_vanishes(euler, d, e) == (ref_ext_generic(euler, d, e) == 0)
        assert generic._ext_vanishes(euler, e, d) == (ref_ext_generic(euler, e, d) == 0)
        theta = ref_canonical_weight(euler, d)
        assert is_semistable_generic(euler, d, theta) == ref_is_semistable(euler, d, theta)
        assert is_stable_generic(euler, d, theta) == ref_is_stable(euler, d, theta)
        assert canonical_decomposition(euler, d).summands == (
            ref_canonical_decomposition(euler, d)
        )

    check()


@RECURSION_QUIVERS
def test_weighted_scans_match_reference(quiver, max_total):
    # any weight killing d, not only the canonical one: t with its pairing
    # against d moved onto one vertex k of the support, d_k t - (t . d) e_k.
    # Entries of t in -1..1 keep about a quarter of the D~4 draws semistable
    euler = EulerMatrix(quiver)
    weights = st.lists(st.integers(-1, 1), min_size=euler.n, max_size=euler.n)

    @settings(max_examples=80)
    @given(_vectors(euler, max_total), weights, st.integers(0, euler.n - 1))
    def check(d, t, k):
        support = [i for i, x in enumerate(d) if x]
        if support:
            k = support[k % len(support)]
            pairing = sum(a * b for a, b in zip(t, d))
            t = [d[k] * x for x in t]
            t[k] -= pairing
        theta = tuple(t)
        semistable = ref_is_semistable(euler, d, theta)
        assert is_semistable_generic(euler, d, theta) == semistable
        assert is_stable_generic(euler, d, theta) == ref_is_stable(euler, d, theta)
        if semistable:
            assert theta_stable_decomposition(euler, d, theta).factors == (
                ref_theta_stable_decomposition(euler, d, theta)
            )

    check()


@RECURSION_QUIVERS
def test_two_sided_recursion_in_any_warm_order(quiver, max_total):
    # one matrix for every draw, each ask made in both argument orders: the
    # rows of a vector are memoised before its columns on some vectors and
    # after them on others, and each answer must not depend on which side
    # was read
    euler = EulerMatrix(quiver)
    vectors = _vectors(euler, max_total)
    kinds = st.sampled_from(("ext", "vanishes", "subdims"))
    first = {}

    def note(side, memo):
        for key in memo:
            first.setdefault(key, side)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(kinds, vectors, vectors), min_size=1, max_size=4))
    def check(asks):
        for kind, d, e in asks:
            for a, b in ((d, e), (e, d)):
                if kind == "ext":
                    assert ext_generic(euler, a, b) == ref_ext_generic(euler, a, b)
                elif kind == "vanishes":
                    assert generic._ext_vanishes(euler, a, b) == (
                        ref_ext_generic(euler, a, b) == 0
                    )
                else:
                    assert generic_subdims(euler, a) == ref_generic_subdims(euler, a)
                # a vector that gains both memos in one ask has no order
                both = set(euler.plan.rows) & set(euler.plan.cols)
                for key in both - set(first):
                    first[key] = "both"
                note("rows", euler.plan.rows)
                note("cols", euler.plan.cols)

    check()
    both = set(euler.plan.rows) & set(euler.plan.cols)
    assert {"rows", "cols"} <= {first[key] for key in both}


def test_ext_expands_no_vector_beyond_the_priced_one():
    # box_limit prices only a in ext_generic(a, b).  b = (14, 0) has the
    # smaller box (15 against 16 points) but the larger price (120 against
    # 100), so a is expanded and every vector touched is priced within 100
    euler = EulerMatrix(K3)
    assert ext_generic(euler, (3, 3), (14, 0), box_limit=100) == 0
    plan = euler.plan
    touched = set(plan.subdims) | set(plan.rows) | set(plan.cols)
    assert (3, 3) in plan.rows and (14, 0) not in plan.cols
    assert max(generic._price(v) for v in touched) == 100


def test_wild_chain_stable_decomposition_expands_few_vectors():
    # the scans test ext(a, d - a) on many large a whose d - a is small:
    # the quotients of d - a are the cheap side, and expanding the
    # subdimension vectors of every a took 64 vectors
    euler = EulerMatrix(WILD_CHAIN)
    got = theta_stable_decomposition(euler, (7, 5, 6), (5, -1, -5))
    assert got.factors == (((7, 5, 6), 1, "imaginary"),)
    assert len(euler.plan.rows) + len(euler.plan.cols) < 16


def test_k3_decomposition_of_a_long_vector():
    # (20, 90) splits into 30 (0, 1) and 20 (1, 3); expanding only
    # subrepresentations took about 19 s (CPython 3.11.7, 2-core host)
    got = canonical_decomposition(EulerMatrix(K3), (20, 90))
    assert [(r, m) for r, m, _ in got.summands] == [((0, 1), 30), ((1, 3), 20)]


def test_recursion_caches_live_on_the_matrix_plan():
    # no module-level cache outlives a matrix; an equal matrix starts empty
    assert not any(
        isinstance(value, dict) and not name.startswith("__")
        for name, value in vars(generic).items()
    )
    first = EulerMatrix(K3)
    answer = canonical_decomposition(first, (3, 4))
    # (3, 4) is a Schur root, whose stability scan expands few vectors;
    # the full subdimension set expands every one it tests
    generic_subdims(first, (3, 4))
    memos = first.plan
    assert memos.subdims and memos.rows and memos.cols and memos.candecomp
    second = EulerMatrix(K3)
    assert second == first
    plan = second.plan
    assert (plan.subdims, plan.rows, plan.cols, plan.candecomp) == ({}, {}, {}, {})
    assert canonical_decomposition(second, (3, 4)) == answer
    assert generic_subdims(second, (3, 4)) == generic_subdims(first, (3, 4))
    assert plan.subdims == first.plan.subdims


def test_recursion_caches_one_entry_per_vector():
    # rows and columns are kept per vector, next to its subdimension
    # vectors; no cache keyed by a pair of vectors is left to grow with the
    # square of the box
    euler = EulerMatrix(K3)
    canonical_decomposition(euler, (6, 9))
    generic_subdims(euler, (6, 9))
    rows, cols, subdims = euler.plan.rows, euler.plan.cols, euler.plan.subdims
    assert rows and cols
    assert set(rows) | set(cols) <= set(subdims)
    keys = set(subdims) | set(rows) | set(cols) | set(euler.plan.candecomp)
    assert all(
        type(key) is tuple and len(key) == euler.n and all(type(x) is int for x in key)
        for key in keys
    )
