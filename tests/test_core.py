"""Forms, classification, null roots, and the text format."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ref_canonical_weight, ref_classify_tree, ref_det
from quiverinv.core import (
    BoundQuiver,
    EulerMatrix,
    Quiver,
    classify_path_algebra,
    dynkin_quiver,
    euclidean_quiver,
    format_quiver,
    kronecker_quiver,
    null_root,
    parse_quiver,
)
from quiverinv.errors import InputError, PreconditionError

K2 = kronecker_quiver(2)
K3 = kronecker_quiver(3)
A2 = dynkin_quiver("A2")

DYNKIN_NAMES = ["A1", "A2", "A3", "A5", "D4", "D5", "D7", "E6", "E7", "E8"]
EUCLIDEAN_NAMES = ["A~1", "A~2", "A~3", "A~4", "D~4", "D~5", "D~7", "E~6", "E~7", "E~8"]


def test_quiver_validation():
    with pytest.raises(InputError):
        Quiver(("1", "1"), ())
    with pytest.raises(InputError):
        Quiver(("1", "2"), (("a", "1", "3"),))
    with pytest.raises(InputError):
        Quiver(("1", "2"), (("a", "1", "2"), ("a", "2", "1")))


def test_acyclicity_flag():
    assert K2.is_acyclic()
    loop = Quiver(("1",), (("a", "1", "1"),))
    assert not loop.is_acyclic()
    cycle = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    assert not cycle.is_acyclic()


def test_topological_order():
    assert K2.topological_order() == ("v1", "v2")
    assert dynkin_quiver("A3").topological_order() == ("v1", "v2", "v3")
    loop = Quiver(("1",), (("a", "1", "1"),))
    behind_cycle = Quiver(
        ("0", "1", "2"), (("a", "0", "1"), ("b", "1", "2"), ("c", "2", "1"))
    )
    for quiver in (loop, behind_cycle):
        with pytest.raises(PreconditionError):
            quiver.topological_order()


def test_tup_rejects_non_integral_entries():
    e = EulerMatrix(K2)
    for vec in ((1.7, 1), (1, Fraction(1, 2)), {"v1": 1.5}, {"v2": Fraction(3, 2)}):
        with pytest.raises(InputError):
            e.tup(vec)
    # integral values of any numeric type still coerce
    for vec in ((Fraction(4, 2), 3.0), {"v1": Fraction(2), "v2": 3.0}):
        got = e.tup(vec)
        assert got == (2, 3)
        assert all(type(x) is int for x in got)


def test_tup_returns_an_exact_int_tuple_unchanged():
    e = EulerMatrix(K2)
    vec = (2, 3)
    assert e.tup(vec) is vec
    # bools and lists take the coercing path; a wrong length still raises
    for vec in ((True, 3), [1, 3]):
        got = e.tup(vec)
        assert got == (1, 3) and type(got) is tuple
        assert all(type(x) is int for x in got)
    for vec in ((2,), (2, 3, 4), ()):
        with pytest.raises(InputError):
            e.tup(vec)


def test_tup_rejects_non_numeric_entries():
    # these used to escape as a bare ValueError or be parsed from a string
    e = EulerMatrix(K2)
    for vec in (("x", 1), (1, None), ("2", 1), {"v1": "1"}):
        with pytest.raises(InputError):
            e.tup(vec)


def test_euler_form_examples():
    e = EulerMatrix(K2)
    assert e.euler((1, 1), (1, 1)) == 0
    assert e.euler((1, 0), (1, 0)) == 1
    ea2 = EulerMatrix(A2)
    assert ea2.euler((1, 0), (0, 1)) == -1


def test_tits_form_examples():
    assert EulerMatrix(K3).tits((1, 1)) == -1
    for name in EUCLIDEAN_NAMES:
        q = euclidean_quiver(name)
        assert EulerMatrix(q).tits(null_root(q)) == 0
    assert EulerMatrix(K2).tits((0, 0)) == 0


def test_euler_bilinearity():
    rng = random.Random(11)
    e = EulerMatrix(euclidean_quiver("D~4"))
    for _ in range(40):
        a = rng.randrange(-3, 4)
        d1, d2, f = (
            tuple(rng.randrange(-4, 5) for _ in range(e.n)) for _ in range(3)
        )
        combo = tuple(a * x + y for x, y in zip(d1, d2))
        assert e.euler(combo, f) == a * e.euler(d1, f) + e.euler(d2, f)
        assert e.euler(f, combo) == a * e.euler(f, d1) + e.euler(f, d2)


def test_theta_d_annihilates_d():
    rng = random.Random(5)
    for q in (K2, K3, dynkin_quiver("A3"), euclidean_quiver("D~4")):
        e = EulerMatrix(q)
        for _ in range(25):
            d = tuple(rng.randrange(0, 5) for _ in range(e.n))
            th = e.theta(d)
            assert sum(t * x for t, x in zip(th, d)) == 0


@pytest.mark.parametrize("as_dict", [False, True], ids=["tuple", "dict"])
def test_theta_coerces_once_and_matches_reference(monkeypatch, as_dict):
    e = EulerMatrix(euclidean_quiver("D~4"))
    calls = []
    original = EulerMatrix.tup

    def counted(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(EulerMatrix, "tup", counted)
    rng = random.Random(11)
    for _ in range(20):
        d = tuple(rng.randrange(0, 5) for _ in range(e.n))
        arg = dict(zip(e.order, d)) if as_dict else list(d)
        calls.clear()
        assert e.theta(arg) == ref_canonical_weight(e, d)
        assert calls == [arg]


def test_canonical_weights_examples():
    e = EulerMatrix(K2)
    assert e.theta((1, 1)) == (2, -2)
    assert e.theta((2, 1)) == (2, -4)
    assert e.theta((0, 0)) == (0, 0)
    assert e.weight_right((0, 0)) == (0, 0)
    assert e.weight_left((0, 0)) == (0, 0)


def test_classification_catalogue():
    for name in DYNKIN_NAMES:
        got = classify_path_algebra(dynkin_quiver(name))
        assert (got.type, got.diagram) == ("finite", name)
    for name in EUCLIDEAN_NAMES:
        got = classify_path_algebra(euclidean_quiver(name))
        assert (got.type, got.diagram) == ("tame_infinite", name)
    assert classify_path_algebra(K3).type == "wild"


def test_classification_rejects_cycles_and_disconnection():
    cycle = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    with pytest.raises(PreconditionError):
        classify_path_algebra(cycle)
    two = Quiver(("1", "2"), ())
    with pytest.raises(PreconditionError):
        classify_path_algebra(two)
    # no vertex: the empty graph reads as connected and Euclidean, which
    # the Tits form cross-check used to report as an internal error
    with pytest.raises(PreconditionError, match="vertex"):
        classify_path_algebra(Quiver((), ()))


def test_classification_orientation_independent():
    rng = random.Random(23)
    for name in ["A3", "D4", "E6", "D~4", "E~6"]:
        base = dynkin_quiver(name) if "~" not in name else euclidean_quiver(name)
        want = classify_path_algebra(base)
        for _ in range(6):
            arrows = tuple(
                (aid, h, t) if rng.random() < 0.5 else (aid, t, h)
                for aid, t, h in base.arrows
            )
            flipped = Quiver(base.vertices, arrows)
            got = classify_path_algebra(flipped)
            assert (got.type, got.diagram) == (want.type, want.diagram)


def _assert_classified_as_reference(edges, n):
    vertices = tuple(f"v{i}" for i in range(n))
    named = [(f"v{t}", f"v{h}") for t, h in edges]
    arrows = tuple((f"a{k}", t, h) for k, (t, h) in enumerate(named))
    got = classify_path_algebra(Quiver(vertices, arrows))
    want = ref_classify_tree(named, vertices) or ("wild", None)
    assert (got.type, got.diagram) == want, edges


def _prufer_tree(seq, n):
    """The labelled tree on 0..n-1 with Prufer sequence ``seq``."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (u for u in range(n) if degree[u] == 1)
    return edges + [(u, w)]


def test_classification_matches_tree_codes_on_all_small_trees():
    # every labelled tree with at most six vertices
    _assert_classified_as_reference([], 1)
    for n in range(2, 7):
        for seq in itertools.product(range(n), repeat=n - 2):
            _assert_classified_as_reference(_prufer_tree(seq, n), n)


@st.composite
def _trees(draw, max_vertices=14):
    """Edge lists of trees with up to ``max_vertices`` vertices, shuffled:
    random recursive trees, and paths with up to three arms hung on them,
    which reach every Dynkin and Euclidean tree and their near misses."""
    if draw(st.booleans()):
        n = draw(st.integers(1, max_vertices))
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    else:
        n = draw(st.integers(1, 8))
        edges = [(i - 1, i) for i in range(1, n)]
        ends = [max(n - 2, 0), min(1, n - 1)]  # where D~ and E~ branch
        for _ in range(draw(st.integers(0, 3))):
            prev = draw(st.sampled_from(ends) | st.integers(0, n - 1))
            for _ in range(draw(st.integers(0, min(5, max_vertices - n)))):
                edges.append((prev, n))
                prev, n = n, n + 1
    label = draw(st.permutations(range(n)))
    return [(label[t], label[h]) for t, h in edges], n


# D~7, and a near miss with a third leaf at one of its branch vertices
_D7_TILDE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (4, 7)]


@settings(max_examples=300)
@given(_trees())
@example((_D7_TILDE, 8))
@example((_D7_TILDE + [(1, 8)], 9))
def test_classification_matches_tree_codes(tree):
    _assert_classified_as_reference(*tree)


def test_null_root_examples():
    assert null_root(K2) == (1, 1)
    assert null_root(euclidean_quiver("A~2")) == (1, 1, 1)
    d4t = euclidean_quiver("D~4")
    delta = dict(zip(EulerMatrix(d4t).order, null_root(d4t)))
    assert delta["c1"] == 2
    assert all(v == 1 for k, v in delta.items() if k != "c1")
    with pytest.raises(PreconditionError):
        null_root(dynkin_quiver("A3"))
    with pytest.raises(PreconditionError):
        null_root(K3)


def test_euclidean_tits_nonnegative_small_scan():
    import itertools

    for name in ["A~1", "A~2", "D~4"]:
        q = euclidean_quiver(name)
        e = EulerMatrix(q)
        for d in itertools.product(range(4), repeat=e.n):
            if sum(d) <= 6:
                assert e.tits(d) >= 0


def test_path_algebra_euler_matrix_unimodular():
    for name in DYNKIN_NAMES + EUCLIDEAN_NAMES:
        q = dynkin_quiver(name) if "~" not in name else euclidean_quiver(name)
        assert abs(ref_det(EulerMatrix(q).matrix)) == 1


def test_bound_quiver_relations():
    chain = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
    bound = BoundQuiver(chain, {("1", "3"): 1})
    e = EulerMatrix(bound)
    # the relation adds +1 to the (1,3) entry on top of the arrow terms
    assert e.euler((1, 0, 0), (0, 0, 1)) == 1
    with pytest.raises(InputError):
        BoundQuiver(chain, {("1", "2"): 1})  # no path of length >= 2
    with pytest.raises(InputError):
        BoundQuiver(chain, {("1", "3"): -1})


def test_bound_quiver_relation_keys_need_a_long_path():
    # 1 -> 2 -> 3 -> 4 with a shortcut 1 -> 4 and a loop-free detour
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("s", "1", "4")),
    )
    for key in (("1", "3"), ("1", "4"), ("2", "4")):
        BoundQuiver(quiver, {key: 1})
    # zero counts are never checked against the quiver
    BoundQuiver(quiver, {("4", "1"): 0, ("x", "y"): 0})
    for key in (("1", "2"), ("3", "4"), ("4", "1"), ("2", "1"), ("1", "x")):
        with pytest.raises(InputError, match="without a path of length >= 2"):
            BoundQuiver(quiver, {key: 1})


def test_parse_format_round_trip():
    for name in DYNKIN_NAMES + EUCLIDEAN_NAMES:
        q = dynkin_quiver(name) if "~" not in name else euclidean_quiver(name)
        back = parse_quiver(format_quiver(q))
        assert sorted(back.vertices) == sorted(q.vertices)
        assert sorted(back.arrows) == sorted(q.arrows)
        assert format_quiver(back) == format_quiver(q)


def test_parse_rejects_malformed():
    for text in (
        "vertices: 1 2",
        "quiver\nvertices: 1 1",
        "quiver\nvertices: 1 2\narrow a 1 -> 2",
        "quiver\nvertices: 1 2\narrow a: 1 => 2",
        "quiver\nvertices: 1 2\nfoo",
        "quiver\nvertices: 1 2\narrow a: 1 -> 3",
    ):
        with pytest.raises(InputError):
            parse_quiver(text)


def test_parse_ignores_comments_and_blanks():
    q = parse_quiver(
        "# header\nquiver\n\nvertices: x y  # two\narrow a: x -> y\n"
    )
    assert q.vertices == ("x", "y")
    assert q.arrows == (("a", "x", "y"),)


def test_declared_vs_sorted_order():
    q = parse_quiver("quiver\nvertices: b a\narrow z: b -> a\n")
    assert q.vertices == ("b", "a")
    assert q.order == ("a", "b")
    e = EulerMatrix(q)
    # tup reads dicts by vertex id, sequences in sorted order
    assert e.tup({"a": 1, "b": 2}) == (1, 2)
    assert e.euler({"b": 1, "a": 0}, {"a": 1, "b": 0}) == -1
