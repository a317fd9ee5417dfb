"""Semi-invariant dimensions, reciprocity, polynomiality, log-concavity."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quiverinv.core import (
    EulerMatrix,
    Quiver,
    dynkin_quiver,
    euclidean_quiver,
    kronecker_quiver,
)
from quiverinv.errors import BudgetError, InputError, PreconditionError
from quiverinv import lr, siweights, stability

from oracles import _ref_vertex_mult, ref_si_dim, si_dim_thin

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


def _fits(lam, width):
    return all(x <= width for x in lam)


def test_partition_helpers_against_brute_force():
    for size in range(7):
        for rows in range(5):
            want = brute_partitions(size, rows) if size else [()]
            got = list(siweights.partitions_bounded(size, rows))
            assert sorted(got) == sorted(want)
            assert siweights.count_partitions(size, rows) == len(want)
            # a width bound keeps exactly the partitions with no part above
            # it; a negative width keeps the empty partition alone
            for width in range(-2, size + 3):
                got = siweights.partitions_bounded(size, rows, width)
                assert sorted(got) == sorted(
                    lam for lam in want if _fits(lam, width)
                )


def test_partition_helpers_agree_on_nonpositive_rows():
    for size in range(5):
        for rows in (-2, -1, 0):
            want = len(siweights.partitions_bounded(size, rows))
            assert want == (1 if size == 0 else 0)
            assert siweights.count_partitions(size, rows) == want


def test_count_partitions_needs_no_deep_recursion():
    # p(s, r) = p(s, r - 1) + p(s - r, r) would recurse about s / r deep
    siweights.clear_caches()
    assert siweights.count_partitions(3000, 2) == 1501
    assert siweights.count_partitions(5000, 3) == round(5003**2 / 12)
    assert siweights.si_dim(EA2, (1, 1), (1500, -1500)) == 1


def test_count_partitions_reads_one_table_per_row_bound():
    # no part of a partition of 40 exceeds 40, so the table of a far larger
    # row bound loops over part sizes up to its top size, not up to the bound
    siweights.clear_caches()
    start = time.perf_counter()
    assert siweights.count_partitions(40, 10**7) == 37338
    assert time.perf_counter() - start < 5
    assert list(siweights._COUNT_CACHE) == [10**7]
    # one bound asked large, then small, then larger: a size beyond the
    # table rebuilds it at twice that size, and a smaller one reads it
    for size, length in ((20, 41), (3, 41), (50, 101)):
        want = len(brute_partitions(size, 4))
        assert siweights.count_partitions(size, 4) == want
        assert len(siweights._COUNT_CACHE[4]) == length
    siweights.clear_caches()
    assert siweights._COUNT_CACHE == {}


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


@pytest.mark.parametrize(
    "call",
    [
        lambda b: siweights.si_dim(EK2, (1, 1), (1, -1), budget=b),
        lambda b: siweights.si_table(EK2, (1, 1), (1, -1), 3, budget=b),
        lambda b: siweights.circ(EK2, (1, 1), (1, 1), budget=b),
        lambda b: siweights.polynomiality_check(EK2, (1, 1), (1, 1), 4, budget=b),
        lambda b: siweights.wild_violation_search(EK3, budget=b),
    ],
    ids=["si_dim", "si_table", "circ", "polynomiality_check", "wild_search"],
)
@pytest.mark.parametrize("budget", ["7", None, -1, 2.5])
def test_budget_must_be_a_nonnegative_integer(call, budget):
    with pytest.raises(InputError):
        call(budget)


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
# parallel arrows whose bundles share a side of one vertex, so that the
# partitions of two bundles are merged there: v1 => v2 with v1 -> v3 and
# v2 -> v3 (the tail side of v1), and v1 => v3 <= v2 (the head side of v3)
SHARED_TAIL = Quiver(
    ("v1", "v2", "v3"),
    (
        ("a", "v1", "v2"),
        ("b", "v1", "v2"),
        ("c", "v1", "v3"),
        ("d", "v2", "v3"),
    ),
)
SHARED_HEAD = Quiver(
    ("v1", "v2", "v3"),
    (
        ("a", "v1", "v3"),
        ("b", "v1", "v3"),
        ("c", "v2", "v3"),
        ("d", "v2", "v3"),
    ),
)
# v1 -> v2 -> v4, v1 -> v3 -> v4 and the chord v1 -> v4: two independent
# cycles, so the flows have two free coordinates
DIAMOND_CHORD = Quiver(
    ("v1", "v2", "v3", "v4"),
    (
        ("a", "v1", "v2"),
        ("b", "v1", "v3"),
        ("c", "v2", "v4"),
        ("d", "v3", "v4"),
        ("e", "v1", "v4"),
    ),
)
# every arrow vi -> vj with i < j on four vertices: three free coordinates,
# and tree bundles that several cycles cross in the same direction
TOURNAMENT = Quiver(
    ("v1", "v2", "v3", "v4"),
    tuple(
        (f"a{i}{j}", f"v{i}", f"v{j}")
        for i in range(1, 5)
        for j in range(i + 1, 5)
    ),
)
# three components, one of them a vertex that no arrow touches
DISCONNECTED = Quiver(
    ("a", "b", "x", "y", "z"),
    (("p", "a", "b"), ("q", "x", "y")),
)
WALK_QUIVERS = {
    "A~2": euclidean_quiver("A~2"),
    "A~3": euclidean_quiver("A~3"),
    "A~4": euclidean_quiver("A~4"),
    "D~4": euclidean_quiver("D~4"),
    "K3": K3,
    "K4": kronecker_quiver(4),
    "wild_chain": WILD_CHAIN,
    "shared_tail": SHARED_TAIL,
    "shared_head": SHARED_HEAD,
    "diamond_chord": DIAMOND_CHORD,
    "tournament": TOURNAMENT,
    "disconnected": DISCONNECTED,
}
# free cycle coordinates: #bundles - #vertices + #components
CYCLE_RANK = {
    "A~2": 1,
    "A~3": 1,
    "A~4": 1,
    "D~4": 0,
    "K3": 0,
    "K4": 0,
    "wild_chain": 0,
    "shared_tail": 1,
    "shared_head": 0,
    "diamond_chord": 2,
    "tournament": 3,
    "disconnected": 0,
}


def _brute_flows(plan, supply):
    """Every bundle flow in the box [0, sum of positive supplies]^bundles
    with the given divergence, by filtering the whole box."""
    top = sum(s for s in supply if s > 0)
    out = []
    for flow in itertools.product(range(top + 1), repeat=len(plan.bundles)):
        div = list(supply)
        for (t, h, _), s in zip(plan.bundles, flow):
            div[t] -= s
            div[h] += s
        if not any(div):
            out.append(flow)
    return out


@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
def test_flows_match_brute_force(name):
    euler = EulerMatrix(WALK_QUIVERS[name])
    plan = euler.plan
    assert len(plan.cycles) == CYCLE_RANK[name]
    rng = random.Random(name)
    checked = 0
    while checked < 40:
        supply = [rng.randint(-2, 2) for _ in range(euler.n)]
        if rng.random() < 0.8:
            supply[rng.randrange(euler.n)] -= sum(supply)
        # keep the box of the brute force small
        if sum(s for s in supply if s > 0) > 4:
            continue
        checked += 1
        got = list(siweights._flows(plan, supply))
        assert len(set(got)) == len(got)
        assert sorted(got) == _brute_flows(plan, supply)


@pytest.mark.parametrize(
    "name", sorted(n for n, c in CYCLE_RANK.items() if c == 0)
)
def test_flows_fixed_by_supply_without_cycles(name):
    # a forest of bundles leaves no free coordinate: a supply has one flow
    # or none
    euler = EulerMatrix(WALK_QUIVERS[name])
    hits = 0
    for supply in itertools.product(range(-2, 3), repeat=euler.n):
        flows = list(siweights._flows(euler.plan, supply))
        assert len(flows) <= 1
        hits += len(flows)
    assert hits > 0


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetError:
        return "budget"


def _draw_with_zeros(data, n):
    """A small dimension vector with at least one zero entry."""
    dt = list(data.draw(st.tuples(*[st.integers(0, 2)] * n)))
    dt[data.draw(st.integers(0, n - 1))] = 0
    return tuple(dt)


def _draw_balanced(data, n, dt=None):
    """A small dimension vector d, unless one is given, and a weight theta
    with theta(d) = 0."""
    if dt is None:
        dt = data.draw(st.tuples(*[st.integers(0, 2)] * n))
    th = list(data.draw(st.tuples(*[st.integers(-2, 2)] * n)))
    # solve theta(d) = 0 for the last vertex in the support of d, so that
    # most drawn weights reach the enumeration
    live = [i for i, x in enumerate(dt) if x]
    if live:
        k = live[-1]
        rest = sum(t * x for t, x in zip(th, dt)) - th[k] * dt[k]
        assume(rest % dt[k] == 0 and abs(rest // dt[k]) <= 2)
        th[k] = -rest // dt[k]
    return dt, tuple(th)


@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=40)
@given(data=st.data())
def test_si_dim_matches_two_walk_reference(name, pivot, data):
    euler = EulerMatrix(WALK_QUIVERS[name])
    dt, th = _draw_balanced(data, euler.n)
    # small budgets push the pivot rule and BudgetError into play
    budget = data.draw(
        st.sampled_from([siweights.DEFAULT_BUDGET, 0, 3, 20, 100, 400])
    )
    want = _outcome(ref_si_dim, euler, dt, th, budget, pivot)
    got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want


# one matrix per quiver for every example, so that the plan's memo of
# semi-invariant dimensions carries answers from one example to the next
SHARED_EULER = {name: EulerMatrix(q) for name, q in WALK_QUIVERS.items()}
MEMO_BUDGETS = [0, 3, 15, 16, 20, 100, siweights.DEFAULT_BUDGET]


@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=40)
@given(data=st.data())
def test_si_dim_on_a_warm_plan_matches_reference(name, data):
    euler = SHARED_EULER[name]
    # half of the vectors have a zero entry, so that moving the weight off
    # their support changes it
    zeros = data.draw(st.booleans())
    dt, th = _draw_balanced(
        data, euler.n, _draw_with_zeros(data, euler.n) if zeros else None
    )
    # the same weight moved off the support of d shares its memo entry
    moved = tuple(
        t if x else data.draw(st.integers(-3, 3)) for t, x in zip(th, dt)
    )
    # several budgets in a row on one key: a memoised answer must not be
    # returned where the cold call raises, nor change any answer
    for weight in (th, moved, th):
        budget = data.draw(st.sampled_from(MEMO_BUDGETS))
        pivot = data.draw(st.booleans())
        want = _outcome(ref_si_dim, euler, dt, weight, budget, pivot)
        got = _outcome(
            siweights.si_dim, euler, dt, weight, budget=budget, pivot=pivot
        )
        assert got == want, (dt, weight, budget, pivot)


def test_memo_keeps_the_price_of_arrow_flows():
    # WILD_CHAIN (1, 0, 1) at (3, 0, -3): no tuple, but 16 arrow flows, so
    # the answer at budget 16 is memoised at price 16, not at 0 tuples, as
    # multiple 3 of the ray (1, 0, -1)
    euler = EulerMatrix(WILD_CHAIN)
    dt, th = (1, 0, 1), (3, 0, -3)
    memo = {(dt, (1, 0, -1)): {3: (16, 0)}}
    assert siweights.si_dim(euler, dt, th, budget=16, pivot=False) == 0
    assert euler.plan.sidims == memo
    assert _outcome(ref_si_dim, euler, dt, th, 15, False) == "budget"
    with pytest.raises(BudgetError):
        siweights.si_dim(euler, dt, th, budget=15, pivot=False)
    # at budget 15 the pivot rule still decides, as on a cold plan
    want = ref_si_dim(euler, dt, th, 15)
    assert siweights.si_dim(euler, dt, th, budget=15) == want
    assert euler.plan.sidims == memo
    # the weight off the support of d is not read, and the memo answers
    assert siweights.si_dim(euler, dt, (3, 7, -3), budget=16) == 0


# K3 with a sink v3 after its target: a K3 vector extended by zero keeps
# its dimensions, and its weight on v3 is never read
K3_TAIL = Quiver(
    ("v1", "v2", "v3"),
    (
        ("a", "v1", "v2"),
        ("b", "v1", "v2"),
        ("c", "v1", "v2"),
        ("d", "v2", "v3"),
    ),
)


def test_circ_sums_both_sides_after_a_pivot_answer(monkeypatch):
    # d = (2, 4, 0), theta = (12, -6, 0): 19,292 tuples on the literal side,
    # over the pivot threshold, and 7,286 on the side of e = (6, 6, 0)
    euler = EulerMatrix(K3_TAIL)
    dt, th, et = (2, 4, 0), (12, -6, 0), (6, 6, 0)
    layout = siweights._layout(euler.plan, dt)
    _, cost, _ = siweights._sized_flows(euler.plan, dt, layout, th, 10**6)
    assert cost > siweights.PIVOT_THRESHOLD
    assert siweights._pivot_vector(euler, th) == et
    want = siweights.si_dim(EK3, (2, 4), (12, -6))
    summed = []
    original = siweights._cauchy_sum

    def counted(layout, weight, flows):
        summed.append(weight)
        return original(layout, weight, flows)

    monkeypatch.setattr(siweights, "_cauchy_sum", counted)
    wl = (2, -2, -4)  # <d, ->, the weight of the pivot side and of circ's left
    answer = siweights.si_dim(euler, dt, th)
    assert answer == want
    # the pivot side answered, and its value is not memoised
    assert summed == [wl] and euler.plan.sidims == {}
    summed.clear()
    assert siweights.circ(euler, dt, et) == answer
    # both literal sides were summed, neither read from the memo
    assert summed == [wl, th]
    assert euler.plan.sidims == {
        (et, (1, -1, 0)): {2: (7_286, answer)},
        (dt, (2, -1, 0)): {6: (cost, answer)},
    }


def test_si_dims_live_on_the_matrix_plan():
    # the module keeps no dict beyond the three that clear_caches empties
    tables = {
        name
        for name, value in vars(siweights).items()
        if isinstance(value, dict) and not name.startswith("__")
    }
    assert tables == {"_PARTS_CACHE", "_COUNT_CACHE", "_TUPLE_COUNT_CACHE"}
    first = EulerMatrix(euclidean_quiver("A~3"))
    dt, th = (2, 2, 2, 0), (1, -1, 0, 5)
    ray = (dt, (1, -1, 0, 0))
    table = siweights.si_table(first, dt, th, 4)
    # n = 0 is the constant and is not memoised; every other point is, as
    # a multiple of the one ray
    assert list(first.plan.sidims) == [ray]
    assert sorted(first.plan.sidims[ray]) == [1, 2, 3, 4]
    # a weight that agrees on the support of d reads the same entries, and
    # a vector with no zero entry is not memoised
    assert siweights.si_table(first, dt, (1, -1, 0, -7), 4).dims == table.dims
    siweights.si_table(first, (2, 2, 2, 2), (1, 1, -1, -1), 4)
    assert list(first.plan.sidims) == [ray]
    assert sorted(first.plan.sidims[ray]) == [1, 2, 3, 4]
    siweights.clear_caches()
    assert not any(vars(siweights)[name] for name in tables)
    assert sorted(first.plan.sidims[ray]) == [1, 2, 3, 4]
    second = EulerMatrix(euclidean_quiver("A~3"))
    assert second == first and second.plan.sidims == {}
    assert siweights.si_table(second, dt, th, 4) == table
    assert second.plan.sidims == first.plan.sidims


@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=30)
@given(data=st.data())
def test_si_table_ray_equals_its_points(name, data):
    # one layout serves the whole ray: each entry, and the first budget
    # failure along it, must be what the point on its own gives
    euler = EulerMatrix(WALK_QUIVERS[name])
    dt, th = _draw_balanced(data, euler.n)
    n_max = data.draw(st.integers(1, 4))
    # budgets that run out part way along the ray as well as at once
    budget = data.draw(
        st.sampled_from([siweights.DEFAULT_BUDGET, 0, 5, 20, 100, 400])
    )
    points = []
    for n in range(n_max + 1):
        points.append(
            _outcome(ref_si_dim, euler, dt, tuple(n * t for t in th), budget)
        )
        if points[-1] == "budget":
            break
    if points[-1] == "budget":
        with pytest.raises(BudgetError):
            siweights.si_table(euler, dt, th, n_max, budget=budget)
        # and not before that point
        if len(points) > 1:
            shorter = siweights.si_table(
                euler, dt, th, len(points) - 2, budget=budget
            )
            assert list(shorter.dims) == points[:-1]
    else:
        assert list(siweights.si_table(euler, dt, th, n_max, budget).dims) == points


@pytest.mark.parametrize(
    "call",
    [
        lambda b: siweights.si_dim(EK2, (3, 3), (2, -1), budget=b),
        lambda b: siweights.si_dim(EK2, (3, 3), (2, -1), budget=b, pivot=False),
        lambda b: siweights.circ(EK2, (2, 1), (1, 1), budget=b),
        lambda b: siweights.circ(EA2, (1, 1), (1, 1), budget=b),
    ],
    ids=["si_dim", "si_dim_literal", "circ_k2", "circ_a2"],
)
def test_weight_missing_d_is_zero_within_any_budget(call):
    # theta(d) != 0: no flow, so no tuple is counted and no pivot is tried
    assert call(0) == 0


def test_si_table_builds_one_layout_per_ray(monkeypatch):
    built = []
    original = siweights._layout

    def counted(plan, dt):
        built.append(dt)
        return original(plan, dt)

    monkeypatch.setattr(siweights, "_layout", counted)
    table = siweights.si_table(EK2, (2, 2), (1, -1), 5)
    assert table.dims == tuple((n + 1) * (n + 2) // 2 for n in range(6))
    assert built == [(2, 2)]
    built.clear()
    # at n = 1 the literal side is over budget (81 tuples against 10), and
    # the pivot side builds the layout of its own vector
    euler = EulerMatrix(euclidean_quiver("D~4"))
    dt, th = (2, 2, 2, 2, 2), (0, 2, 2, -2, -2)
    assert siweights.si_table(euler, dt, th, 1, budget=10).dims == (1, 1)
    assert len(built) == 2 and built[0] == dt != built[1]


@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=25)
@given(data=st.data())
def test_weight_zero_on_support_is_constant(name, pivot, data):
    # SI(Q,d)_theta only reads theta on the support of d; zero there leaves
    # the invariants of an acyclic quiver, the constants, priced as one tuple
    euler = EulerMatrix(WALK_QUIVERS[name])
    dt = _draw_with_zeros(data, euler.n)
    th = tuple(0 if x else data.draw(st.integers(-3, 3)) for x in dt)
    budget = data.draw(st.sampled_from([0, 1, 2, siweights.DEFAULT_BUDGET]))
    want = 1 if budget else "budget"
    assert _outcome(ref_si_dim, euler, dt, th, budget, pivot) == want
    got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want
    n_max = data.draw(st.integers(0, 3))
    if budget:
        table = siweights.si_table(euler, dt, th, n_max, budget=budget)
        assert table.dims == (1,) * (n_max + 1)
    else:
        with pytest.raises(BudgetError):
            siweights.si_table(euler, dt, th, n_max, budget=budget)


@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@settings(max_examples=25)
@given(data=st.data())
def test_weight_read_only_on_support(name, data):
    # changing theta off the support of d leaves every dimension alone
    euler = EulerMatrix(WALK_QUIVERS[name])
    dt, th = _draw_balanced(data, euler.n, _draw_with_zeros(data, euler.n))
    moved = tuple(
        t if x else data.draw(st.integers(-3, 3)) for t, x in zip(th, dt)
    )
    want = ref_si_dim(euler, dt, th, siweights.DEFAULT_BUDGET)
    assert siweights.si_dim(euler, dt, th) == want
    assert siweights.si_dim(euler, dt, moved) == want


def test_si_table_zero_on_support_walks_nothing(monkeypatch):
    calls = []
    for fn in ("_layout", "_sized_flows"):
        monkeypatch.setattr(
            siweights, fn, lambda *args, fn=fn: calls.append(fn)
        )
    euler = EulerMatrix(euclidean_quiver("A~3"))
    dt, th = (1, 1, 0, 0), (0, 0, 1, -1)
    assert siweights.si_table(euler, dt, th, 5).dims == (1,) * 6
    # each point of the ray on its own, n = 0 included, sizes no flow and
    # reads no layout either
    for n in range(6):
        assert siweights._si_dim(euler, dt, None, (0, 0, n, -n), 1) == 1
    with pytest.raises(BudgetError) as err:
        siweights.si_table(euler, dt, th, 5, budget=0)
    assert (err.value.what, err.value.bound) == (
        "semi-invariant partition tuples",
        0,
    )
    assert calls == []


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


@pytest.mark.parametrize("budget, want", [(15, "budget"), (16, 0)])
def test_budget_counts_arrow_flows_of_every_bundle(budget, want):
    # v2 has dimension 0: each of the (3 + 1)^2 arrow flows through the two
    # bundles carries no tuple, yet every one of them counts
    euler = EulerMatrix(WILD_CHAIN)
    dt, th = (1, 0, 1), (3, 0, -3)
    got = _outcome(
        siweights.si_dim, euler, dt, th, budget=budget, pivot=False
    )
    assert got == _outcome(ref_si_dim, euler, dt, th, budget, False) == want


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


def _count_walks(monkeypatch):
    """Record, per ``_flows`` call, the number of bundle flows it yields."""
    walks = []
    original = siweights._flows

    def counted(plan, supply):
        walks.append(0)
        for flow in original(plan, supply):
            walks[-1] += 1
            yield flow

    monkeypatch.setattr(siweights, "_flows", counted)
    return walks


def test_si_dim_walks_flows_once_under_pivot_threshold(monkeypatch):
    walks = _count_walks(monkeypatch)
    euler = EulerMatrix(euclidean_quiver("A~3"))
    dt, th = (2, 2, 2, 2), (1, 1, -1, -1)
    budget = siweights.DEFAULT_BUDGET
    layout = siweights._layout(euler.plan, dt)
    _, cost, _ = siweights._sized_flows(euler.plan, dt, layout, th, budget)
    assert 0 < cost <= siweights.PIVOT_THRESHOLD
    walks.clear()
    got = siweights._si_dim(euler, dt, layout, th, budget)
    assert len(walks) == 1
    assert got == ref_si_dim(euler, dt, th, budget) > 0


@pytest.mark.parametrize(
    "m, dt, th, sides",
    [
        # the literal side alone: Sym^6 of k^3, 28 tuples
        (3, (1, 1), (6, -6), 1),
        (3, (2, 4), (6, -3), 1),
        # over the pivot threshold, so the reciprocal side is sized too
        (3, (2, 4), (12, -6), 2),
    ],
)
def test_si_dim_walks_one_bundle_flow_per_kronecker_side(
    monkeypatch, m, dt, th, sides
):
    # m parallel arrows are one bundle: each sized side walks a single flow
    # where the arrow-level walk met C(T + m - 1, m - 1) of them
    euler = EulerMatrix(kronecker_quiver(m))
    want = ref_si_dim(euler, dt, th, siweights.DEFAULT_BUDGET)
    walks = _count_walks(monkeypatch)
    assert siweights.si_dim(euler, dt, th) == want > 0
    assert walks == [1] * sides


def test_multisets_weigh_ordered_tuples():
    # every ordered p-tuple of partitions falls on exactly one multiset,
    # and the weight of a multiset is the number of tuples on it, with or
    # without a width bound
    for total, p, rows in itertools.product(range(8), range(1, 5), range(4)):
        for width in (None, *range(-1, total + 2)):
            fits = [
                [
                    lam
                    for lam in siweights.partitions_bounded(s, rows)
                    if width is None or _fits(lam, width)
                ]
                for s in range(total + 1)
            ]
            ordered = [
                combo
                for sizes in itertools.product(range(total + 1), repeat=p)
                if sum(sizes) == total
                for combo in itertools.product(*(fits[s] for s in sizes))
            ]
            got = siweights._multisets(total, p, rows, width)
            parts = [m for _, m in got]
            assert all(list(m) == sorted(m) and len(m) == p for m in parts)
            assert len(set(parts)) == len(parts)
            assert dict((m, w) for w, m in got) == Counter(
                tuple(sorted(combo)) for combo in ordered
            )
            assert sum(w for w, _ in got) == len(ordered)
            if width is None:
                assert siweights._count_tuples(total, p, rows) == len(ordered)


def test_width_bound_keeps_the_budget_of_unpruned_tuples():
    # K3 at d = (2, 4), theta = (18, -9): one flow of 36 boxes over three
    # arrows, 112,651 ordered tuples of partitions with at most 2 rows, of
    # which the 782 multisets inside the source and sink rectangles are
    # summed; the budget still prices every tuple
    dt, th = (2, 4), (18, -9)
    assert siweights._count_tuples(36, 3, 2) == 112_651
    free = siweights._multisets(36, 3, 2)
    assert len(free) == 19_135
    assert sum(weight for weight, _ in free) == 112_651
    assert len(siweights._multisets(36, 3, 2, 9)) == 782
    assert siweights.si_dim(EK3, dt, th) == 2002
    got = siweights.si_dim(EK3, dt, th, budget=112_651, pivot=False)
    assert got == 2002
    with pytest.raises(BudgetError):
        siweights.si_dim(EK3, dt, th, budget=112_650, pivot=False)


@st.composite
def _rectangle_factors(draw):
    """(d, w, factors): sorted trimmed factors, most of them cut from the
    rectangle (w^d) so that the coefficient is often nonzero."""
    dv = draw(st.integers(1, 3))
    w = draw(st.integers(0, 4))
    k = draw(st.integers(0, 6))
    cuts = sorted(draw(st.lists(st.integers(0, w * dv), min_size=k, max_size=k)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [w * dv])]
    factors = []
    for size in sizes:
        fits = siweights.partitions_bounded(size, dv, w)
        if fits:
            factors.append(draw(st.sampled_from(fits)))
    # sometimes a factor that need not fit, or a size that misses
    if draw(st.booleans()):
        stray = siweights.partitions_bounded(draw(st.integers(0, 5)), 4)
        factors.append(draw(st.sampled_from(stray)))
    return dv, w, tuple(sorted(factors))


@settings(max_examples=300)
@given(case=_rectangle_factors(), heads_first=st.booleans())
# both halves fold (1)^3 to 2 * (2,1) + (1,1,1): 2 * 2 + 1 * 1 = 5 tableaux
@example(case=(3, 2, ((1,),) * 6), heads_first=False)
def test_one_sided_vertex_mult_matches_sequential_fold(case, heads_first):
    # the complement join, read under either side's cache key, against
    # the public fold of every factor at the rectangle
    dv, w, factors = case
    rect = (w,) * dv if w else ()
    want = lr.tensor_fold(factors, dv, rect).get(rect, 0)
    siweights.clear_caches()
    calls = [
        lambda: siweights._vertex_mult(dv, w, factors, ()),
        lambda: siweights._vertex_mult(dv, -w, (), factors),
    ]
    if heads_first:
        calls.reverse()
    assert [call() for call in calls] == [want, want]
    # a one-sided vertex never takes the determinant's other sign
    if w:
        assert siweights._vertex_mult(dv, -w, factors, ()) == 0
        assert siweights._vertex_mult(dv, w, (), factors) == 0


@st.composite
def _two_sided_factors(draw):
    """(d, theta(v), tails, heads): 1-4 sorted factors per side, with at
    most d rows, whose sizes mostly balance |tails| - |heads| = theta(v) d."""
    dv = draw(st.integers(1, 3))
    tv = draw(st.integers(-3, 3))

    def side(total):
        k = draw(st.integers(1, 4))
        cuts = sorted(
            draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1))
        )
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        return tuple(
            sorted(
                draw(st.sampled_from(siweights.partitions_bounded(size, dv)))
                for size in sizes
            )
        )

    tails = side(draw(st.integers(0, 6)))
    balance = sum(map(sum, tails)) - tv * dv
    # sometimes a size that misses
    if balance < 0 or draw(st.integers(0, 4)) == 0:
        balance = draw(st.integers(0, 6))
    return dv, tv, tails, side(balance)


@settings(max_examples=300)
@given(case=_two_sided_factors())
# fewer tails than heads, and the reverse: each side is the folded one once
@example(case=(2, 1, ((3, 2),), ((1,), (1,), (1,))))  # multiplicity 2
@example(case=(2, -1, ((1,), (1,), (1, 1)), ((3, 3),)))  # multiplicity 1
def test_two_sided_vertex_mult_matches_sequential_fold(case):
    # the smaller side folded and the other read one target at a time,
    # against both sides folded whole by the public fold
    dv, tv, tails, heads = case
    want = _ref_vertex_mult(dv, tv, tails, heads)
    siweights.clear_caches()
    lr.clear_caches()
    assert siweights._vertex_mult(dv, tv, tails, heads) == want
    # det^tv in T (x) H^* is det^-tv in H (x) T^*
    siweights.clear_caches()
    assert siweights._vertex_mult(dv, -tv, heads, tails) == want


# a => b -> c: vertex b has both sides, one tail factor and two head factors
K2_TAIL = Quiver(
    ("a", "b", "c"), (("x", "a", "b"), ("y", "a", "b"), ("z", "b", "c"))
)


def test_k2_with_a_tail_two_sided_vertex():
    # the two head partitions at b have 48 boxes and 4 rows, too many to
    # fold whole in a test: each target is read as one LR coefficient
    euler = EulerMatrix(K2_TAIL)
    got = siweights.si_dim(euler, (4, 4, 2), (12, -9, -6), budget=5 * 10**7)
    assert got == 1750


@pytest.mark.parametrize(
    "n, budget, want",
    [
        (1, siweights.DEFAULT_BUDGET, 50),
        (2, siweights.DEFAULT_BUDGET, 406),
        (3, 10**8, 1750),
        # the budget prices every ordered tuple, bound or not
        (3, siweights.DEFAULT_BUDGET, "budget"),
    ],
)
def test_k2_with_a_tail_along_its_ray(n, budget, want):
    # a is bound to its 4 x 4n rectangle, c to its 2 x 2n rectangle, and
    # only b is read one multiplicity at a time
    euler = EulerMatrix(K2_TAIL)
    th = (4 * n, -3 * n, -2 * n)
    got = _outcome(siweights.si_dim, euler, (4, 4, 2), th, budget=budget)
    assert got == want


def _count_ray_work(monkeypatch):
    """The dimension vectors handed to ``_layout`` and ``_si_dim`` from now
    on, in one list."""
    calls = []
    for name in ("_layout", "_si_dim"):
        original = getattr(siweights, name)

        def counted(first, dt, *args, _original=original, **kwargs):
            calls.append(dt)
            return _original(first, dt, *args, **kwargs)

        monkeypatch.setattr(siweights, name, counted)
    return calls


# K2 with a tail at d = (2, 2, 0): along theta = (1, -1, 0) the dimensions
# are 1, 3, 6, 10, 15; along -theta there is no flow, and every price is 0
K2_RAY = ((2, 2, 0), (1, -1, 0))


def test_memoised_ray_is_read_whole(monkeypatch):
    euler = EulerMatrix(K2_TAIL)
    dt, p = K2_RAY
    assert siweights.si_table(euler, dt, p, 4).dims == (1, 3, 6, 10, 15)
    prices = {1: 5, 2: 14, 3: 30, 4: 55}
    memo = {(dt, p): {m: (prices[m], (1, 3, 6, 10, 15)[m]) for m in prices}}
    assert euler.plan.sidims == memo
    calls = _count_ray_work(monkeypatch)
    # weight 2p with noise off the support of d reads multiples 2 and 4
    assert siweights.si_table(euler, dt, (2, -2, 9), 2).dims == (1, 6, 15)
    # n_max = 0 is the constant alone
    assert siweights.si_table(euler, dt, p, 0).dims == (1,)
    assert calls == []
    # -p is another ray: summed, and kept apart
    assert siweights.si_table(euler, dt, (-1, 1, 0), 4).dims == (1, 0, 0, 0, 0)
    assert calls and euler.plan.sidims == {
        **memo,
        (dt, (-1, 1, 0)): {m: (0, 0) for m in prices},
    }


def test_memoised_ray_keeps_the_price_of_n_zero():
    # every price on the ray of -p is 0, yet n = 0 costs one tuple
    euler = EulerMatrix(K2_TAIL)
    dt, minus = K2_RAY[0], (-1, 1, 0)
    siweights.si_table(euler, dt, minus, 4)
    assert set(euler.plan.sidims[dt, minus].values()) == {(0, 0)}
    with pytest.raises(BudgetError):
        siweights.si_table(euler, dt, minus, 4, budget=0)
    assert siweights.si_table(euler, dt, minus, 4, budget=1).dims == (1, 0, 0, 0, 0)


def test_memoised_ray_over_budget_takes_the_points(monkeypatch):
    # A~3 at d = (2, 2, 2, 0): the memo prices of n (1, -1, 0, 0) are
    # n + 1, so budget 5 covers n = 1..4 and not n = 5, and the ray is then
    # evaluated point by point, answered or refused as on a fresh matrix.
    # At n = 5 the pivot answers for p, whose pivot vector is a dimension
    # vector, and not with weight 5 off the support of d
    warm = EulerMatrix(euclidean_quiver("A~3"))
    dt, p = (2, 2, 2, 0), (1, -1, 0, 0)
    siweights.si_table(warm, dt, p, 5)
    assert warm.plan.sidims[dt, p] == {n: (n + 1, 1) for n in range(1, 6)}
    calls = _count_ray_work(monkeypatch)
    for theta, last in ((p, 1), ((1, -1, 0, 5), "budget")):
        cold = EulerMatrix(euclidean_quiver("A~3"))
        for n_max in (4, 5):
            want = _outcome(siweights.si_table, cold, dt, theta, n_max, budget=5)
            calls.clear()
            got = _outcome(siweights.si_table, warm, dt, theta, n_max, budget=5)
            assert got == want
            # n_max = 4 reads the memo alone; n_max = 5 builds one layout
            # and goes through the six points
            assert calls[:7] == ([dt] * 7 if n_max == 5 else [])
        assert (want if want == "budget" else want.dims[-1]) == last


def test_cold_ray_derives_its_key_once(monkeypatch):
    # the ray derives its key at its own weight and hands each point its
    # multiple, so no point derives one again; the points are still one
    # layout and one _si_dim each, n = 0 included
    keys = []
    original = siweights._ray_key

    def counted(dt, th):
        keys.append(th)
        return original(dt, th)

    monkeypatch.setattr(siweights, "_ray_key", counted)
    calls = _count_ray_work(monkeypatch)
    euler = EulerMatrix(K2_TAIL)
    dt, p = K2_RAY
    assert siweights.si_table(euler, dt, p, 5).dims == (1, 3, 6, 10, 15, 21)
    assert keys == [p]
    assert calls == [dt] * 7
    assert sorted(euler.plan.sidims[dt, p]) == [1, 2, 3, 4, 5]


# one matrix per quiver for every example, as in SHARED_EULER, so that the
# rays held in the plan's memo carry from one example to the next
RAY_QUIVERS = dict(WALK_QUIVERS, k2_tail=K2_TAIL)
WARM_RAYS = {name: EulerMatrix(q) for name, q in RAY_QUIVERS.items()}


def _ref_table(euler, dt, th, n_max, budget):
    """``si_table(euler, dt, th, n_max, budget).dims`` from the reference,
    point by point, or "budget" where a point is refused."""
    if sum(t * x for t, x in zip(th, dt)):
        return (0,) * (n_max + 1)
    dims = []
    for n in range(n_max + 1):
        dims.append(
            _outcome(ref_si_dim, euler, dt, tuple(n * t for t in th), budget)
        )
        if dims[-1] == "budget":
            return "budget"
    return tuple(dims)


@pytest.mark.parametrize("name", sorted(RAY_QUIVERS))
@settings(max_examples=25)
@given(data=st.data())
def test_warm_rays_match_cold_reference(name, data):
    # points and tables of one ray, interleaved on a warm matrix, at budgets
    # around the prices held for the ray: every answer and every refusal
    # must be the reference's on a cold matrix
    warm, cold = WARM_RAYS[name], EulerMatrix(RAY_QUIVERS[name])
    dt, th = _draw_balanced(data, warm.n, _draw_with_zeros(data, warm.n))
    # the same ray with weight off the support of d
    moved = tuple(
        t if x else data.draw(st.integers(-3, 3)) for t, x in zip(th, dt)
    )
    on_support = any(t for t, x in zip(th, dt) if x)
    for _ in range(4):
        held = {}
        if on_support:
            held = warm.plan.sidims.get(siweights._ray_key(dt, th)[0], {})
        # a held price or a fixed budget, or one either side of it; drawn
        # by position, so that what is drawn does not depend on the memo
        around = sorted({q for q, _ in held.values()})
        around += [0, 1, siweights.DEFAULT_BUDGET]
        pick = around[data.draw(st.integers(0, 15)) % len(around)]
        budget = max(0, pick + data.draw(st.integers(-1, 1)))
        # a multiple of theta is the same ray, read at other multiples
        k = data.draw(st.integers(1, 2))
        weight = tuple(k * t for t in data.draw(st.sampled_from([th, moved])))
        if data.draw(st.booleans()):
            point = tuple(data.draw(st.integers(0, 4)) * t for t in weight)
            pivot = data.draw(st.booleans())
            want = _outcome(ref_si_dim, cold, dt, point, budget, pivot)
            got = _outcome(
                siweights.si_dim, warm, dt, point, budget=budget, pivot=pivot
            )
        else:
            n_max = data.draw(st.integers(0, 3))
            want = _ref_table(cold, dt, weight, n_max, budget)
            got = _outcome(siweights.si_table, warm, dt, weight, n_max, budget)
            if got != "budget":
                got = got.dims
        assert got == want, (dt, weight, budget)


# a => b, a -> c, b -> c: the triangle, whose bundles form a cycle; and the
# star with five arms into its centre c
TRIANGLE = Quiver(
    ("a", "b", "c"),
    (("x", "a", "b"), ("y", "a", "b"), ("z", "a", "c"), ("w", "b", "c")),
)
STAR5 = Quiver(
    ("c", "v1", "v2", "v3", "v4", "v5"),
    tuple((f"x{i}", f"v{i}", "c") for i in range(1, 6)),
)


def _leaves_by_rows(quiver, dt):
    """The layout's sides, and its leaves split by the bundle's row bound:
    those of two or more rows, bound to a rectangle, and those of one."""
    shape, _, sides, _, leaves = siweights._layout(EulerMatrix(quiver).plan, dt)
    bound = tuple(leaf for leaf in leaves if shape[leaf[0]][0] > 1)
    one_row = tuple(leaf[:4] for leaf in leaves if shape[leaf[0]][0] == 1)
    assert len(bound) + len(one_row) == len(leaves)
    return sides, bound, one_row


@pytest.mark.parametrize(
    "quiver, dt, binds",
    [
        # equal ends: the source is bound and the sink is its twin
        (K3, (2, 2), ((0, 0, 1, 2, (1, -1)),)),
        # the end with fewer rows; the other end's 4 rows exceed the bundle
        (K3, (2, 4), ((0, 0, 1, 2, None),)),
        (K3, (4, 2), ((0, 1, -1, 2, None),)),
        # a bundle of one row: nothing to bind, not even a 2-row end
        (K3, (1, 1), ()),
        (K3, (2, 1), ()),
        # a and c are bound, b has both sides
        (K2_TAIL, (4, 4, 2), ((0, 0, 1, 4, None), (1, 2, -1, 2, None))),
        # v2 of the pair v1 => v2 keeps its empty tail bundle to v3
        (K3_TAIL, (2, 2, 0), ((0, 0, 1, 2, None),)),
        (STAR5, (4, 2, 2, 2, 2, 2), tuple((k, k + 1, 1, 2, None) for k in range(5))),
        # a vertex with two bundles is never bound
        (TRIANGLE, (2, 2, 2), ()),
    ],
)
def test_layout_binds_single_bundle_ends(quiver, dt, binds):
    sides, bound, _ = _leaves_by_rows(quiver, dt)
    assert bound == binds
    # vertices of dimension 0 or 1 have multiplicity 1 on every flow
    assert all(dv > 1 for _, dv, _, _ in sides)


def test_bound_multisets_match_filtered_multisets():
    # the walk bound to a rectangle against every multiset of the free
    # walk, filtered by the rectangle coefficient: the same multisets,
    # once each, each weighed by its free weight times c^R; summed, the
    # walk gives the sum of free weight * c^2 over them as one choice
    multisets = siweights._multisets
    for total, p, rows, dv in itertools.product(
        range(9), range(1, 5), range(4), range(1, 4)
    ):
        for w in range(-1, 5):
            for width in range(-1, w + 2):
                want = {}
                for weight, parts in multisets(total, p, rows, width):
                    if w >= 0:
                        factors = tuple(lam for lam in parts if lam)
                        c = siweights._rect_mult(dv, w, factors)
                        if c:
                            want[parts] = (weight, c)
                got = multisets(total, p, rows, width, rect=(dv, w))
                case = (total, p, rows, width, dv, w)
                assert len({parts for _, parts in got}) == len(got), case
                assert {parts: wt for wt, parts in got} == {
                    parts: weight * c for parts, (weight, c) in want.items()
                }, case
                squares = sum(weight * c * c for weight, c in want.values())
                summed = multisets(total, p, rows, width, rect=(dv, w), summed=True)
                assert summed == ([(squares, ())] if squares else []), case
    # one part: the rectangle itself, when the bundle carries it
    assert multisets(6, 1, 2, 3, rect=(2, 3)) == [(1, ((3, 3),))]
    assert multisets(6, 1, 1, 3, rect=(2, 3)) == []
    assert multisets(6, 1, 2, 2, rect=(2, 3)) == []
    assert multisets(6, 1, 2, 3, rect=(2, 3), summed=True) == [(1, ())]
    assert multisets(6, 1, 1, 3, rect=(2, 3), summed=True) == []
    assert multisets(6, 1, 2, 2, rect=(2, 3), summed=True) == []
    # rows 0: only the empty rectangle, at width 0 or above
    for width in (0, 2):
        assert multisets(0, 3, 0, width, rect=(2, 0)) == [(1, ((), (), ()))]
        assert multisets(4, 3, 0, width, rect=(2, 2)) == []
        assert multisets(0, 3, 0, width, rect=(2, 0), summed=True) == [(1, ())]
        assert multisets(4, 3, 0, width, rect=(2, 2), summed=True) == []


def test_twin_ends_share_one_coefficient(monkeypatch):
    # K3 at d = (2, 2): source and sink have the same rectangle, so each
    # bound multiset, weighed by c, counts c once more, and neither end
    # calls _vertex_mult
    dt, th = (2, 2), (6, -6)
    want = sum(
        weight
        * siweights._vertex_mult(2, 6, parts, ())
        * siweights._vertex_mult(2, -6, (), parts)
        for weight, parts in siweights._multisets(12, 3, 2, 6)
    )
    bound = siweights._multisets(12, 3, 2, 6, rect=(2, 6))
    assert sum(
        weight * siweights._rect_mult(2, 6, tuple(lam for lam in parts if lam))
        for weight, parts in bound
    ) == want
    summed = siweights._multisets(12, 3, 2, 6, rect=(2, 6), summed=True)
    assert summed == [(want, ())]
    calls = []
    vertex_mult = siweights._vertex_mult

    def counted(*args):
        calls.append(args)
        return vertex_mult(*args)

    monkeypatch.setattr(siweights, "_vertex_mult", counted)
    siweights.clear_caches()
    assert siweights.si_dim(EK3, dt, th, pivot=False) == want
    assert calls == []


def _spy_multisets(monkeypatch):
    """Record the ``(p, rows, rect, summed)`` of every ``_multisets`` call."""
    calls = []
    multisets = siweights._multisets

    def spied(total, p, rows, width=None, rect=None, summed=False):
        calls.append((p, rows, rect, summed))
        return multisets(total, p, rows, width, rect, summed)

    monkeypatch.setattr(siweights, "_multisets", spied)
    return calls


@pytest.mark.parametrize(
    "dt, th, want, summed",
    [
        # twin ends: one bound walk, summed to a single choice
        ((2, 2), (6, -6), 462, True),
        # the 4-row sink reads every multiset bound to the source's 2 rows
        ((2, 4), (6, -3), 56, False),
    ],
)
def test_twin_bundle_is_summed_in_the_walk(monkeypatch, dt, th, want, summed):
    assert ref_si_dim(EK3, dt, th, siweights.DEFAULT_BUDGET) == want
    calls = _spy_multisets(monkeypatch)
    assert siweights.si_dim(EK3, dt, th, pivot=False) == want
    assert calls == [(3, 2, (2, 6), summed)]


def test_twin_kronecker_rays_at_their_closed_forms():
    # K3 at d = (2, 2) along n (3, -3) gives C(3n + 5, 5); K4 at the same
    # d is pinned along n (4, -4)
    for n in range(1, 8):
        th = (3 * n, -3 * n)
        want = math.comb(3 * n + 5, 5)
        if n <= 3:
            assert ref_si_dim(EK3, (2, 2), th, siweights.DEFAULT_BUDGET) == want
        for pivot in (True, False):
            got = siweights.si_dim(EulerMatrix(K3), (2, 2), th, pivot=pivot)
            assert got == want, (n, pivot)
    assert [
        siweights.si_dim(EulerMatrix(kronecker_quiver(4)), (2, 2), (4 * n, -4 * n))
        for n in (1, 2, 3)
    ] == [770, 29_315, 386_308]


@pytest.mark.parametrize(
    "quiver, dt, th, want",
    [
        # v1 => v2 shares its source with v1 -> v3, and v2 has both sides
        (SHARED_TAIL, (2, 2, 1), (2, -2, 0), 6),
        # v2 => v3 ends at a sink of three rows, more than the bundle's two
        (WILD_CHAIN, (1, 2, 3), (2, 2, -2), 10),
    ],
)
def test_free_multisets_of_parallel_arrows_feed_the_sum(
    monkeypatch, quiver, dt, th, want
):
    # a bundle of two arrows and two rows that is bound to no rectangle
    # takes the free walk's list as it is
    euler = EulerMatrix(quiver)
    assert ref_si_dim(euler, dt, th, siweights.DEFAULT_BUDGET) == want
    calls = _spy_multisets(monkeypatch)
    assert siweights.si_dim(euler, dt, th, pivot=False) == want
    assert (2, 2, None, False) in calls


BIND_QUIVERS = {
    **WALK_QUIVERS,
    "K2_tail": K2_TAIL,
    "K3_tail": K3_TAIL,
    "triangle": TRIANGLE,
    "star5": STAR5,
}


@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("name", sorted(BIND_QUIVERS))
@settings(max_examples=30)
@given(data=st.data())
def test_bound_ends_match_reference(name, pivot, data):
    # entries up to 3 put two or more rows on single-bundle ends; small
    # budgets keep the reference short and bring BudgetError into play
    euler = EulerMatrix(BIND_QUIVERS[name])
    dt = data.draw(st.tuples(*[st.sampled_from((0, 1, 2, 2, 3))] * euler.n))
    # a flow leaves a source and enters a sink: draw theta > 0 at sources
    # and < 0 at sinks, and solve theta(d) = 0 at the last vertex of the
    # support
    tails = {t for t, _, _ in euler.plan.bundles}
    heads = {h for _, h, _ in euler.plan.bundles}
    th = []
    for v in range(euler.n):
        lo, hi = (
            (1, 3)
            if v not in heads and v in tails
            else (-3, -1) if v not in tails and v in heads else (-2, 2)
        )
        th.append(data.draw(st.integers(lo, hi)))
    live = [i for i, x in enumerate(dt) if x]
    if live:
        k = live[-1]
        rest = sum(t * x for t, x in zip(th, dt)) - th[k] * dt[k]
        assume(rest % dt[k] == 0)
        th[k] = -rest // dt[k]
    th = tuple(th)
    budget = data.draw(st.sampled_from([0, 20, 400, 2000, 2000]))
    want = _outcome(ref_si_dim, euler, dt, th, budget, pivot)
    got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want


@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("equal", [True, False], ids=["a=b", "a!=b"])
@pytest.mark.parametrize(
    "name, pair",
    [
        ("K3", (0, 1)),
        ("K4", (0, 1)),
        # d vanishes off a Kronecker pair inside a larger quiver
        ("K3_tail", (0, 1)),
        ("K2_tail", (0, 1)),
        ("wild_chain", (1, 2)),
    ],
)
@settings(max_examples=15)
@given(data=st.data())
def test_kronecker_pair_binding_matches_reference(name, pair, equal, pivot, data):
    euler = EulerMatrix(BIND_QUIVERS[name])
    i, j = pair
    a = data.draw(st.integers(1, 4))
    b = a if equal else data.draw(st.integers(1, 4).filter(lambda x: x != a))
    t = data.draw(st.integers(1, 3))
    g = math.gcd(a, b)
    # the boxes on the pair's bundle
    assume(t * a * b // g <= 12)
    dt = [0] * euler.n
    dt[i], dt[j] = a, b
    # the weight off the pair is never read
    th = [data.draw(st.integers(-3, 3)) for _ in range(euler.n)]
    th[i], th[j] = t * b // g, -t * a // g
    budget = data.draw(st.sampled_from([0, 20, 400, 5000, 5000]))
    dt, th = tuple(dt), tuple(th)
    want = _outcome(ref_si_dim, euler, dt, th, budget, pivot)
    got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want


# a => b (three arrows), c -> b and b => d: the dimension-1 vertex b feeds
# the lone ends a and c; and D4 with every arrow into its centre c
ONE_ROW = Quiver(
    ("a", "b", "c", "d"),
    (
        ("x1", "a", "b"),
        ("x2", "a", "b"),
        ("x3", "a", "b"),
        ("y", "c", "b"),
        ("z1", "b", "d"),
        ("z2", "b", "d"),
    ),
)
D4_IN = Quiver(
    ("c", "p", "q", "r"), (("x", "p", "c"), ("y", "q", "c"), ("z", "r", "c"))
)


@pytest.mark.parametrize(
    "quiver, dt, rows1",
    [
        # both ends of dimension 1: the tail end serves
        (K3, (1, 1), ((0, 0, 1, 1),)),
        (K3, (1, 2), ((0, 1, -1, 2),)),
        (K3, (2, 1), ((0, 0, 1, 2),)),
        # two rows: the bundle is bound instead
        (K3, (2, 2), ()),
        (K2_TAIL, (3, 1, 3), ((0, 0, 1, 3), (1, 2, -1, 3))),
        # b has two rows and reads both bundles
        (K2_TAIL, (1, 2, 1), ()),
        (ONE_ROW, (1, 1, 3, 0), ((0, 0, 1, 1), (2, 2, 1, 3))),
        (D4_IN, (1, 3, 1, 1), ((0, 1, 1, 3), (1, 2, 1, 1), (2, 3, 1, 1))),
        # no vertex of the triangle is a lone end
        (TRIANGLE, (1, 1, 2), ()),
    ],
)
def test_layout_lists_one_row_ends(quiver, dt, rows1):
    _, bound, one_row = _leaves_by_rows(quiver, dt)
    assert one_row == rows1
    assert not {k for k, *_ in bound} & {k for k, *_ in rows1}


@pytest.mark.parametrize(
    "quiver, dt, leaves",
    [
        # equal ends: the source is bound and the sink is its twin
        (K3, (2, 2), ((0, 0, 1, 2, (1, -1)),)),
        # the end with fewer rows; the other end's 4 rows exceed the bundle
        (K3, (2, 4), ((0, 0, 1, 2, None),)),
        (K3, (4, 2), ((0, 1, -1, 2, None),)),
        # one row: nothing to bind, not even a 2-row end, and the closed
        # form instead; with both ends of dimension 1 the tail end takes it
        (K3, (1, 1), ((0, 0, 1, 1, None),)),
        (K3, (1, 2), ((0, 1, -1, 2, None),)),
        (K3, (2, 1), ((0, 0, 1, 2, None),)),
        # a and c are leaves, b has both sides
        (K2_TAIL, (4, 4, 2), ((0, 0, 1, 4, None), (1, 2, -1, 2, None))),
        (K2_TAIL, (3, 1, 3), ((0, 0, 1, 3, None), (1, 2, -1, 3, None))),
        # b has two rows and reads both bundles
        (K2_TAIL, (1, 2, 1), ()),
        # v2 of the pair v1 => v2 keeps its empty tail bundle to v3
        (K3_TAIL, (2, 2, 0), ((0, 0, 1, 2, None),)),
        (STAR5, (4, 2, 2, 2, 2, 2), tuple((k, k + 1, 1, 2, None) for k in range(5))),
        (ONE_ROW, (1, 1, 3, 0), ((0, 0, 1, 1, None), (2, 2, 1, 3, None))),
        (
            D4_IN,
            (1, 3, 1, 1),
            ((0, 1, 1, 3, None), (1, 2, 1, 1, None), (2, 3, 1, 1, None)),
        ),
        # a vertex with two bundles is never a lone end
        (TRIANGLE, (2, 2, 2), ()),
        (TRIANGLE, (1, 1, 2), ()),
    ],
)
def test_layout_lists_leaf_bundles(quiver, dt, leaves):
    _, _, sides, _, got = siweights._layout(EulerMatrix(quiver).plan, dt)
    assert got == leaves
    # one entry per bundle
    assert len({k for k, *_ in got}) == len(got)
    # vertices of dimension 0 or 1 have multiplicity 1 on every flow, and
    # a vertex that a leaf serves is read by the leaf alone
    assert all(dv > 1 for _, dv, _, _ in sides)
    fed = {v for _, v, _, _, _ in leaves}
    fed |= {twin[0] for *_, twin in leaves if twin}
    assert not fed & {v for v, *_ in sides}


def _weyl_dim(lam, p):
    """dim of the GL_p module of highest weight ``lam``, by Weyl's formula:
    prod over i < j of (lam_i - lam_j + j - i) / (j - i)."""
    if len(lam) > p:
        return 0
    lam = list(lam) + [0] * (p - len(lam))
    out = Fraction(1)
    for i, j in itertools.combinations(range(p), 2):
        out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


@pytest.mark.parametrize("p", range(2, 7))
def test_one_row_end_is_a_weyl_dimension(p):
    # K_p at (1, b) and (b, 1): the sum over the bundle's one-row multisets
    # is s_R(1^p) for R = (n^b), far past what the enumeration reaches
    euler = EulerMatrix(kronecker_quiver(p))
    for b in range(1, 6):
        for n in range(41):
            want = _weyl_dim((n,) * b if n else (), p)
            assert siweights._rect_dim(p, b, n) == want
            for dt, th in (((1, b), (b * n, -n)), ((b, 1), (n, -b * n))):
                got = siweights.si_dim(euler, dt, th, budget=10**30, pivot=False)
                assert got == want, (p, dt, th)
    # the check value: 25 * 13 * 13 * 9
    ek4 = EulerMatrix(kronecker_quiver(4))
    assert siweights.si_dim(ek4, (1, 2), (48, -24)) == 38025


@pytest.mark.parametrize(
    "quiver, dt, th, want",
    [
        # w = 0 with d(v) = 3 > p = 1: R is empty, so the factor is 1
        (D4_IN, (1, 3, 1, 1), (-2, 0, 0, 2), 1),
        # c is a 3-row end of width 0; a gives C(2 + 2, 2) compositions
        (ONE_ROW, (1, 1, 3, 0), (2, -2, 0, 0), 6),
    ],
)
def test_one_row_edge_cases(quiver, dt, th, want):
    euler = EulerMatrix(quiver)
    for pivot in (True, False):
        assert siweights.si_dim(euler, dt, th, pivot=pivot) == want
        assert ref_si_dim(euler, dt, th, siweights.DEFAULT_BUDGET, pivot) == want


def _reflect(quiver, dt, th, x):
    """(Q', dt', th') for the reflection at the vertex of sorted index x:
    its arrows turn round, dt'(x) is the sum of dt over its arrows less
    dt(x), th'(x) = -th(x) and th'(y) = th(y) + a_xy th(x)."""
    order = sorted(quiver.vertices)
    vx = order[x]
    dt, th = list(dt), list(th)
    arrows = []
    moved = 0
    for a, t, h in quiver.arrows:
        if vx in (t, h):
            y = order.index(h if t == vx else t)
            moved += dt[y]
            th[y] += th[x]
            t, h = h, t
        arrows.append((a, t, h))
    dt[x] = moved - dt[x]
    th[x] = -th[x]
    return Quiver(quiver.vertices, tuple(arrows)), tuple(dt), tuple(th)


def _meets_guard(quiver, dt, th, x):
    """Whether the vertex of sorted index x is a sink with th(x) <= 0 or a
    source with th(x) >= 0, and its reflected dimension is in [0, dt(x))."""
    vx = sorted(quiver.vertices)[x]
    out = any(t == vx for _, t, _ in quiver.arrows)
    into = any(h == vx for _, _, h in quiver.arrows)
    if out == into or (th[x] < 0 if out else th[x] > 0):
        return False
    return 0 <= _reflect(quiver, dt, th, x)[1][x] < dt[x]


REFLECT_QUIVERS = {
    **BIND_QUIVERS,
    "A3": A3,
    "A3_sink": Quiver(("v1", "v2", "v3"), (("a", "v1", "v2"), ("b", "v3", "v2"))),
    "D4": dynkin_quiver("D4"),
    "D4_in": D4_IN,
}


@pytest.mark.parametrize("name", sorted(REFLECT_QUIVERS))
@settings(max_examples=30)
@given(data=st.data())
def test_reflection_keeps_si_dim(name, data):
    quiver = REFLECT_QUIVERS[name]
    euler = EulerMatrix(quiver)
    dt = data.draw(st.tuples(*[st.integers(0, 3)] * euler.n))
    dt, th = _draw_balanced(data, euler.n, dt)
    want = _outcome(siweights.si_dim, euler, dt, th, budget=20_000, pivot=False)
    for x in range(euler.n):
        if want == "budget" or not _meets_guard(quiver, dt, th, x):
            continue
        q, rdt, rth = _reflect(quiver, dt, th, x)
        got = _outcome(
            siweights.si_dim, EulerMatrix(q), rdt, rth, budget=20_000, pivot=False
        )
        assert got in (want, "budget"), (x, rdt, rth)


def test_reflection_needs_the_sign_guard():
    # a => b -> c at (0, 3, 3): the sink c has theta(c) = 1 > 0; its
    # reflected dimension 0 is in range, but the reflected sum differs
    dt, th = (0, 3, 3), (-3, -1, 1)
    euler = EulerMatrix(K2_TAIL)
    assert siweights.si_dim(euler, dt, th) == 0
    assert not _meets_guard(K2_TAIL, dt, th, 2)
    assert siweights._reduce(euler, dt, th) is None
    q, rdt, rth = _reflect(K2_TAIL, dt, th, 2)
    assert (rdt, rth) == ((0, 3, 0), (-3, 0, -1))
    assert siweights.si_dim(EulerMatrix(q), rdt, rth) == 1


def test_reflecting_back_returns_the_original_matrix():
    # K3 reflected at v2 and back has the arrows of K3 again, and is the
    # matrix it started from, with its memos, not a third one
    euler = EulerMatrix(K3)
    once = siweights._reflected(euler, 1)
    assert once is not euler
    assert siweights._reflected(once, 1) is euler
    assert siweights._reflected(euler, 1) is once


def test_reflection_chain_stops_at_the_guard(monkeypatch):
    # a => b -> c at (3, 2, 1): the source a reflects to 1, then b, now a
    # source, to 1; c, now a source with theta(c) = -2 < 0, must stay, for
    # reflecting it as well would give (1, 1, 0) and a nonzero answer
    euler = EulerMatrix(K2_TAIL)
    dt, th = (3, 2, 1), (3, -1, -7)
    reduced = siweights._reduce(euler, dt, th)
    assert reduced[1:] == ((1, 1, 1), (7, -5, -2))
    arrows = (("x", "a", "b"), ("y", "a", "b"), ("z", "c", "b"))
    assert reduced[0].quiver.arrows == arrows
    monkeypatch.setattr(siweights, "PIVOT_THRESHOLD", 0)
    monkeypatch.setattr(siweights, "_pivot_vector", lambda euler, theta: None)
    assert siweights.si_dim(euler, dt, th) == 0
    assert ref_si_dim(euler, dt, th, siweights.DEFAULT_BUDGET, False) == 0


def test_reflection_sums_the_smaller_vector():
    # K3 at (2, 4): the sink v2 reflects to 3 * 2 - 4 = 2, and the literal
    # side's 19,292 tuples give way to those of (2, 2); an isolated vertex
    # gives d a zero entry, so a literal answer would be memoised
    quiver = Quiver(("v1", "v2", "v3"), K3.arrows)
    euler = EulerMatrix(quiver)
    dt, th = (2, 4, 0), (12, -6, 5)
    reduced = siweights._reduce(euler, dt, th)
    assert reduced[1:] == ((2, 2, 0), (-6, 6, 5))
    assert euler.plan.reflections == {1: reduced[0]}
    assert siweights.si_dim(euler, dt, th) == 462
    # the reflected answer is not memoised, and the reflection is reused
    assert euler.plan.sidims == {}
    assert siweights._reduce(euler, dt, th)[0] is reduced[0]
    assert siweights.si_dim(euler, dt, th, pivot=False) == 462
    assert len(euler.plan.sidims) == 1
    # no reflection where the literal side is refused
    budget = 19_291
    assert _outcome(siweights.si_dim, euler, dt, th, budget=budget) == "budget"
    assert _outcome(ref_si_dim, euler, dt, th, budget) == "budget"


def _draw_one_row_case(data, case):
    """A quiver, a dimension vector and a balanced weight for ``case``."""
    if case == "Kp(1,b)":
        p, b = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 5))
        t = data.draw(st.integers(-1, 4))
        if data.draw(st.booleans()):
            return kronecker_quiver(p), (1, b), (b * t, -t)
        return kronecker_quiver(p), (b, 1), (t, -b * t)
    if case == "Kp(2,4)":
        p, t = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
        if data.draw(st.booleans()):
            return kronecker_quiver(p), (2, 4), (2 * t, -t)
        return kronecker_quiver(p), (4, 2), (t, -2 * t)
    # the dimension-1 vertex stays at 1, the ends it feeds take 0..3
    quiver, one = {
        "one_row": (ONE_ROW, 1),
        "d4_in": (D4_IN, 0),
        "star5": (STAR5, 0),
    }[case]
    n = len(quiver.vertices)
    dt = list(data.draw(st.tuples(*[st.integers(0, 3)] * n)))
    dt[one] = 1
    return (quiver, *_draw_balanced(data, n, tuple(dt)))


@pytest.mark.parametrize(
    "threshold", [siweights.PIVOT_THRESHOLD, 0], ids=["threshold", "threshold0"]
)
@pytest.mark.parametrize("pivot", [True, False], ids=["pivot", "literal"])
@pytest.mark.parametrize("case", ["Kp(1,b)", "Kp(2,4)", "one_row", "d4_in", "star5"])
@settings(max_examples=20)
@given(data=st.data())
def test_one_row_ends_and_reflection_match_reference(case, pivot, threshold, data):
    # at threshold 0 every sum tries the pivot and then the reflection, so
    # the small vectors drawn here reach both; small budgets compare
    # BudgetError as well
    quiver, dt, th = _draw_one_row_case(data, case)
    budget = data.draw(st.sampled_from([0, 20, 400, 5000, 50_000]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(siweights, "PIVOT_THRESHOLD", threshold)
        euler = EulerMatrix(quiver)
        want = _outcome(ref_si_dim, euler, dt, th, budget, pivot)
        got = _outcome(siweights.si_dim, euler, dt, th, budget=budget, pivot=pivot)
    assert got == want


@pytest.mark.parametrize("name", sorted(REFLECT_QUIVERS))
@settings(max_examples=25)
@given(data=st.data())
def test_reduced_sums_match_reference(name, data):
    # with threshold 0 and no pivot vector, every sum that the literal side
    # would run tries the reflections, so the refusals are the literal
    # side's and every answer comes from the smaller of the two vectors
    euler = EulerMatrix(REFLECT_QUIVERS[name])
    dt = data.draw(st.tuples(*[st.integers(0, 3)] * euler.n))
    dt, th = _draw_balanced(data, euler.n, dt)
    budget = data.draw(st.sampled_from([0, 20, 400, 5000]))
    want = _outcome(ref_si_dim, euler, dt, th, budget, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(siweights, "PIVOT_THRESHOLD", 0)
        mp.setattr(siweights, "_pivot_vector", lambda euler, theta: None)
        got = _outcome(siweights.si_dim, euler, dt, th, budget=budget)
    assert got == want


@pytest.mark.parametrize(
    "quiver", [SHARED_TAIL, SHARED_HEAD], ids=["shared_tail", "shared_head"]
)
def test_merged_sides_reach_vertex_mult_sorted(quiver, monkeypatch):
    # a vertex side fed by two bundles is merged into one sorted tuple, so
    # _vertex_mult sees each multiset of its factors in one order
    seen = []
    vertex_mult = siweights._vertex_mult

    def spy(dv, tv, tails, heads):
        seen.append((tails, heads))
        return vertex_mult(dv, tv, tails, heads)

    monkeypatch.setattr(siweights, "_vertex_mult", spy)
    euler = EulerMatrix(quiver)
    siweights.clear_caches()
    for th in ((2, 1, -3), (3, 0, -3), (1, 2, -3)):
        siweights.si_dim(euler, (2, 2, 2), th)
    assert any(len(tails) > 2 or len(heads) > 2 for tails, heads in seen)
    for tails, heads in seen:
        assert list(tails) == sorted(tails) and list(heads) == sorted(heads)


def test_clear_caches_empties_every_module_cache():
    siweights.si_dim(EK3, (2, 4), (6, -3))
    siweights.si_dim(EA3, (1, 1, 1), (1, 0, -1))
    caches = {
        name: value
        for name, value in vars(siweights).items()
        if isinstance(value, dict) and not name.startswith("__")
    }
    assert set(caches) == {"_PARTS_CACHE", "_COUNT_CACHE", "_TUPLE_COUNT_CACHE"}
    assert any(caches.values())
    siweights.clear_caches()
    assert {name: len(c) for name, c in caches.items() if c} == {}


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


def test_wild_search_reports_its_frontier():
    # the one imaginary Schur root with entries up to 1 is (1, 1), and its
    # witness lies at N = 7, past the cap
    hit = siweights.wild_violation_search(EK3, dprime_max=1, n_cap=2)
    assert hit.status == "not_found"
    assert hit.frontier == (((1, 1), "no hit through N=2"),)
