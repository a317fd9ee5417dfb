"""Semi-invariant dimensions, reciprocity, polynomiality, log-concavity."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverinv.core import (
    EulerMatrix,
    Quiver,
    dynkin_quiver,
    euclidean_quiver,
    kronecker_quiver,
)
from quiverinv.errors import BudgetError, InputError, PreconditionError
from quiverinv import siweights, stability

from oracles import ref_si_dim, si_dim_thin

K2 = kronecker_quiver(2)
K3 = kronecker_quiver(3)
A2 = dynkin_quiver("A2")
A3 = dynkin_quiver("A3")
EK2 = EulerMatrix(K2)
EK3 = EulerMatrix(K3)
EA2 = EulerMatrix(A2)
EA3 = EulerMatrix(A3)


def brute_partitions(size, rows):
    out = []

    def gen(rest, mx, cur):
        if rest == 0:
            out.append(tuple(cur))
            return
        if len(cur) == rows:
            return
        for p in range(min(mx, rest), 0, -1):
            gen(rest - p, p, cur + [p])

    gen(size, size, [])
    return out


def test_partition_helpers_against_brute_force():
    for size in range(7):
        for rows in range(5):
            want = brute_partitions(size, rows) if size else [()]
            got = list(siweights.partitions_bounded(size, rows))
            assert sorted(got) == sorted(want)
            assert siweights.count_partitions(size, rows) == len(want)


def test_si_dim_kronecker_ray():
    for n in range(7):
        assert siweights.si_dim(EK2, (1, 1), (n, -n)) == n + 1


def test_si_dim_a2_ray():
    for n in range(7):
        assert siweights.si_dim(EA2, (1, 1), (n, -n)) == 1


def test_si_dim_zero_when_weight_misses_d():
    assert siweights.si_dim(EK2, (2, 1), (1, -1)) == 0
    assert siweights.si_dim(EA3, (1, 1, 1), (1, 0, 0)) == 0


def test_si_dim_trivial_weight_is_one():
    rng = random.Random(13)
    for e in (EK2, EK3, EA3):
        for _ in range(6):
            d = tuple(rng.randrange(0, 3) for _ in range(e.n))
            assert siweights.si_dim(e, d, (0,) * e.n) == 1


def test_si_dim_thin_oracle():
    rng = random.Random(29)
    quivers = [K2, K3, A3, dynkin_quiver("D4"), euclidean_quiver("A~2")]
    checked = 0
    for quiver in quivers:
        e = EulerMatrix(quiver)
        for _ in range(12):
            d = tuple(rng.randrange(0, 2) for _ in range(e.n))
            theta = tuple(rng.randrange(-2, 3) for _ in range(e.n))
            want = si_dim_thin(quiver, d, theta)
            assert siweights.si_dim(e, d, theta) == want
            checked += want > 0
    assert checked >= 10


def test_si_dim_budget():
    with pytest.raises(BudgetError):
        siweights.si_dim(EK2, (8, 8), (8, -8), budget=10)


# v1 => v2 => v3, doubled arrows: a wild chain with a two-dimensional cycle
# space, next to the Euclidean catalogue and the Kronecker quivers
WILD_CHAIN = Quiver(
    ("v1", "v2", "v3"),
    (
        ("a", "v1", "v2"),
        ("b", "v1", "v2"),
        ("c", "v2", "v3"),
        ("d", "v2", "v3"),
    ),
)
WALK_QUIVERS = {
    "A~2": euclidean_quiver("A~2"),
    "A~3": euclidean_quiver("A~3"),
    "A~4": euclidean_quiver("A~4"),
    "D~4": euclidean_quiver("D~4"),
    "K3": K3,
    "K4": kronecker_quiver(4),
    "wild_chain": WILD_CHAIN,
}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetError:
        return "budget"


@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_si_dim_matches_two_walk_reference(name, pivot, data):
    euler = EulerMatrix(WALK_QUIVERS[name])
    dt = data.draw(st.tuples(*[st.integers(0, 2)] * euler.n))
    th = list(data.draw(st.tuples(*[st.integers(-2, 2)] * euler.n)))
    # solve theta(d) = 0 for the last vertex in the support of d, so that
    # most drawn weights reach the enumeration
    live = [i for i, x in enumerate(dt) if x]
    if live:
        k = live[-1]
        rest = sum(t * x for t, x in zip(th, dt)) - th[k] * dt[k]
        assume(rest % dt[k] == 0 and abs(rest // dt[k]) <= 2)
        th[k] = -rest // dt[k]
    th = tuple(th)
    # small budgets push the pivot rule and BudgetError into play
    budget = data.draw(
        st.sampled_from([siweights.DEFAULT_BUDGET, 0, 3, 20, 100, 400])
    )
    want = _outcome(ref_si_dim, euler, dt, th, budget, pivot)
    got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want


@pytest.mark.parametrize(
    "name, dt, th, budget, want",
    [
        # literal side 462 tuples, pivot side 196
        ("A~4", (2, 2, 2, 2, 2), (2, 2, 0, -2, -2), 300, 6),
        ("A~4", (2, 2, 2, 2, 2), (2, 2, 0, -2, -2), 150, "budget"),
        # literal side 81 tuples, pivot side 9
        ("D~4", (2, 2, 2, 2, 2), (0, 2, 2, -2, -2), 10, 1),
    ],
)
def test_pivot_side_summed_within_budget(name, dt, th, budget, want):
    euler = EulerMatrix(euclidean_quiver(name))
    assert _outcome(siweights.si_dim, euler, dt, th, budget=budget) == want
    assert _outcome(ref_si_dim, euler, dt, th, budget) == want


def test_budget_raised_before_any_partition_list(monkeypatch):
    # count_partitions(200, 10) alone is 1,212,199,424 tuples: sizing must
    # refuse before a single partition list is built, on either side
    built = []
    original = siweights.partitions_bounded

    def counted(size, rows):
        built.append((size, rows))
        return original(size, rows)

    monkeypatch.setattr(siweights, "partitions_bounded", counted)
    with pytest.raises(BudgetError):
        siweights.si_dim(EK2, (10, 10), (20, -20), budget=1000)
    assert built == []


def test_si_dim_walks_flows_once_under_pivot_threshold(monkeypatch):
    walks = []
    original = siweights._flows

    def counted(plan, supply):
        walks.append(supply)
        return original(plan, supply)

    monkeypatch.setattr(siweights, "_flows", counted)
    euler = EulerMatrix(euclidean_quiver("A~3"))
    dt, th = (2, 2, 2, 2), (1, 1, -1, -1)
    budget = siweights.DEFAULT_BUDGET
    cost, _ = siweights._sized_flows(euler.plan, dt, th, budget)
    assert 0 < cost <= siweights.PIVOT_THRESHOLD
    walks.clear()
    got = siweights._si_dim(euler, dt, th, budget)
    assert len(walks) == 1
    assert got == ref_si_dim(euler, dt, th, budget) > 0


def test_si_dim_rejects_cyclic():
    from quiverinv.core import Quiver

    cyc = EulerMatrix(Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1"))))
    with pytest.raises(PreconditionError):
        siweights.si_dim(cyc, (1, 1), (0, 0))


def test_si_table():
    table = siweights.si_table(EK2, (1, 1), (1, -1), 6)
    assert table.base_weight == (1, -1)
    assert table.dims == (1, 2, 3, 4, 5, 6, 7)
    dead = siweights.si_table(EK2, (2, 1), (1, -1), 3)
    assert dead.dims == (0, 0, 0, 0)
    with pytest.raises(InputError):
        siweights.si_table(EK2, (1, 1), (1, -1), -1)


def test_circ_examples():
    assert siweights.circ(EK2, (1, 1), (1, 1)) == 2
    # on A2 the weight <(1,1),.> = (1,0) does not annihilate e = (1,1)
    assert siweights.circ(EA2, (1, 1), (1, 1)) == 0
    assert siweights.circ(EK2, (2, 1), (1, 1)) == 0


def test_circ_reciprocity_random():
    rng = random.Random(37)
    for e in (EK2, EA3, EK3):
        for _ in range(18):
            d = tuple(rng.randrange(0, 4) for _ in range(e.n))
            f = tuple(rng.randrange(0, 4) for _ in range(e.n))
            # circ itself raises InvariantError if its two legs disagree
            assert siweights.circ(e, d, f) >= 0


def test_polynomiality_examples():
    res = siweights.polynomiality_check(EK2, (1, 1), (1, 1), 6)
    assert (res.status, res.degree) == ("ok", 1)
    assert res.first == (1, 2, 3, 4, 5, 6, 7)
    const = siweights.polynomiality_check(EK2, (1, 0), (2, 1), 6)
    assert (const.status, const.degree) == ("ok", 0)
    with pytest.raises(PreconditionError):
        siweights.polynomiality_check(EK2, (2, 1), (1, 1), 5)


def test_log_concavity_examples():
    assert siweights.log_concavity_check((1, 2, 3, 4)).status == "ok"
    res = siweights.log_concavity_check((1, 1, 3))
    assert (res.status, res.index) == ("violated", 1)
    with pytest.raises(InputError):
        siweights.log_concavity_check((1, -1, 1))


def test_log_concavity_rejects_fractional_entry():
    # truncating 2.9 to 2 would report a violation that 4 * 2 < 2.9^2 denies
    with pytest.raises(InputError):
        siweights.log_concavity_check((4, 2.9, 2))


def test_log_concavity_rejects_non_numeric_entry():
    with pytest.raises(InputError):
        siweights.log_concavity_check((1, "x", 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda n: siweights.si_table(EK2, (1, 1), (1, -1), n),
        lambda n: siweights.polynomiality_check(EK2, (1, 1), (1, 1), n),
        lambda n: stability.projective_space_verdict(EK2, (1, 1), (1, -1), n),
    ],
    ids=["si_table", "polynomiality_check", "projective_space_verdict"],
)
def test_table_length_must_be_integral(call):
    with pytest.raises(InputError):
        call(2.5)
    with pytest.raises(InputError):
        call("3")
    assert call(3.0) == call(3)


def test_log_concavity_on_symmetric_square_table():
    table = siweights.si_table(EK2, (2, 2), (1, -1), 6)
    assert table.dims == tuple((n + 1) * (n + 2) // 2 for n in range(7))
    assert siweights.log_concavity_check(table.dims).status == "ok"


def test_wild_search_finds_k3_witness():
    hit = siweights.wild_violation_search(EK3)
    assert hit.status == "found"
    assert hit.dprime == (1, 1)
    assert hit.n == 7
    assert hit.si_2theta > hit.si_theta**2
    # reciprocity moves both evaluations to the d' side
    lam = tuple(hit.n * t for t in EK3.theta(hit.dprime))
    assert hit.si_theta == siweights.si_dim(EK3, hit.dprime, lam)
    twice = tuple(2 * x for x in hit.dprime)
    assert hit.si_2theta == siweights.si_dim(EK3, twice, lam)


def test_wild_search_preconditions():
    with pytest.raises(PreconditionError):
        siweights.wild_violation_search(EK2)
    hit = siweights.wild_violation_search(EK3, budget=0)
    assert hit.status == "not_found"
    assert all("budget" in note for _, note in hit.frontier)
