"""Littlewood-Richardson kernel against a tableau-enumeration oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverinv import lr
from quiverinv.errors import InputError

from oracles import lr_oracle, pieri_row, poly_mul, schur_expand, schur_poly


def partitions_up_to(size):
    out = [()]
    for total in range(1, size + 1):
        def gen(rest, mx, cur):
            if rest == 0:
                out.append(tuple(cur))
                return
            for p in range(min(mx, rest), 0, -1):
                gen(rest - p, p, cur + [p])
        gen(total, total, [])
    return out


PARTS3 = partitions_up_to(3)


def test_partition_normalization():
    assert lr.partition((3, 1, 0, 0)) == (3, 1)
    assert lr.partition(()) == ()
    with pytest.raises(InputError):
        lr.partition((1, 2))
    with pytest.raises(InputError):
        lr.partition((-1,))
    assert lr.partition((3.0, Fraction(2, 1), 0)) == (3, 2)
    # fractional and non-numeric entries are rejected, not truncated or parsed
    for bad in ((2.7, 1.2), (Fraction(3, 2),), ["3", "1"], ("x",), (None,)):
        with pytest.raises(InputError):
            lr.partition(bad)
    with pytest.raises(InputError):
        lr.lr_coefficient((1,), (1,), (2.9,))
    with pytest.raises(InputError):
        lr.schur_product((1,), (1,), 2, cap=(1.5, 1))
    with pytest.raises(InputError):
        lr.tensor_fold([(1,), (1,)], 2, cap=("2",))


def test_rows_must_be_a_nonnegative_integer():
    assert lr.schur_product((1,), (1,), 2.0) == lr.schur_product((1,), (1,), 2)
    assert lr.tensor_fold([(1,)], 0) == {}
    for rows in (2.5, -1, "2", None):
        with pytest.raises(InputError):
            lr.schur_product((1,), (1,), rows)
        with pytest.raises(InputError):
            lr.tensor_fold([(1,), (1,)], rows)


def test_trivial_factor():
    for lam in PARTS3:
        assert lr.lr_coefficient(lam, (), lam) == 1


def test_known_coefficients():
    assert lr.lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr.lr_coefficient((2, 1), (1,), (2, 2)) == 1
    assert lr.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_pieri_rule_oracle():
    # multiplying by a one-row shape hits exactly the horizontal strips
    for lam in PARTS3:
        for k in (1, 2):
            strips = pieri_row(lam, k)
            total = sum(lam) + k
            for nu in partitions_up_to(total):
                if sum(nu) != total:
                    continue
                want = 1 if tuple(nu) in strips else 0
                assert lr.lr_coefficient(lam, (k,), nu) == want


def test_grid_against_schur_polynomial_oracle():
    checked = 0
    for lam, mu in itertools.product(PARTS3, repeat=2):
        nvars = max(1, sum(lam) + sum(mu))
        product = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
        expansion = schur_expand(product, nvars)
        total = sum(lam) + sum(mu)
        for nu in partitions_up_to(total):
            if sum(nu) != total:
                continue
            assert lr.lr_coefficient(lam, mu, nu) == expansion.get(nu, 0)
            checked += 1
    assert checked > 250


def test_symmetry_and_size_filter():
    for lam, mu in itertools.product(PARTS3, repeat=2):
        for nu in partitions_up_to(sum(lam) + sum(mu)):
            assert lr.lr_coefficient(lam, mu, nu) == lr.lr_coefficient(
                mu, lam, nu
            )
    assert lr.lr_coefficient((2,), (1,), (2,)) == 0
    assert lr.lr_coefficient((2,), (1,), (4,)) == 0


def test_clear_caches_empties_every_module_cache():
    # from empty caches, and with three-row targets: two-row answers are
    # never stored
    lr.clear_caches()
    lr.lr_coefficient((2, 1), (1, 1), (2, 2, 1))
    lr.tensor_fold([(1,), (1,), (2,)], 3)
    caches = {
        name: value
        for name, value in vars(lr).items()
        if isinstance(value, dict) and not name.startswith("__")
    }
    assert set(caches) == {"_PRODUCT_CACHE"} and all(caches.values())
    lr.clear_caches()
    assert {name: len(c) for name, c in caches.items() if c} == {}


# at most 5 rows; factors of up to 6 boxes, targets of up to 12
FACTORS5 = [p for p in partitions_up_to(6) if len(p) <= 5]
TARGETS5 = [p for p in partitions_up_to(12) if len(p) <= 5]


@st.composite
def _coef_triples(draw):
    """(lam, mu, nu): nu either from the support of S_lam * S_mu or any
    partition, which may miss the size or not contain a factor."""
    lam = draw(st.sampled_from(FACTORS5))
    mu = draw(st.sampled_from(FACTORS5))
    support = sorted(lr._schur_mult(lam, mu, 5, None))
    if support and draw(st.booleans()):
        return lam, mu, draw(st.sampled_from(support))
    return lam, mu, draw(st.sampled_from(TARGETS5))


@settings(max_examples=500)
@given(case=_coef_triples())
@example(case=((2, 1), (2, 1), (3, 2, 1)))  # coefficient 2
@example(case=((2,), (2,), (2, 1, 1)))  # right size, outside the product
@example(case=((1, 1, 1), (1,), (4,)))  # nu has fewer rows than lam
@example(case=((1,), (1, 1, 1), (2, 1, 1, 1)))  # a size mismatch
@example(case=((3,), (1,), (2, 2)))  # lam does not fit inside nu
@example(case=((1,), (3,), (2, 1, 1)))  # mu does not fit inside nu
def test_coefficient_kernel_matches_schur_mult(case):
    # the single-coefficient count, in both argument orders and from a cold
    # cache each time, against the entry of the full strip enumeration
    lam, mu, nu = case
    want = lr._schur_mult(lam, mu, 5, None).get(nu, 0)
    lr.clear_caches()
    assert lr._coef(lam, mu, nu) == want
    lr.clear_caches()
    assert lr._coef(mu, lam, nu) == want


def test_schur_product_row_trimming():
    assert lr.schur_product((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert lr.schur_product((1,), (1,), 1) == {(2,): 1}


def test_schur_product_rowwise_cap():
    assert lr.schur_product((1,), (1,), 2, cap=(1, 1)) == {(1, 1): 1}
    assert lr.schur_product((2, 1), (1,), 3, cap=(2, 2)) == {(2, 2): 1}
    full = lr.schur_product((2, 1), (2, 1), 4)
    capped = lr.schur_product((2, 1), (2, 1), 4, cap=(3, 2, 1))
    for nu, c in capped.items():
        assert full[nu] == c
        assert all(
            nu[r] <= (3, 2, 1)[r] for r in range(len(nu))
        )


def test_tensor_fold_matches_iterated_product():
    rows = 3
    acc = {(): 1}
    for lam in ((1,), (1,), (2,)):
        nxt = {}
        for nu, mult in acc.items():
            for out, c in lr.schur_product(nu, lam, rows).items():
                nxt[out] = nxt.get(out, 0) + mult * c
        acc = nxt
    assert lr.tensor_fold([(1,), (2,), (1,)], rows) == acc


def test_schur_product_result_is_the_callers_own():
    """Changing a returned product changes no later answer: neither the
    same product nor a coefficient read off the same cached walk."""
    lr.clear_caches()
    got = lr.schur_product((1,), (1,), 3)
    got[(9,)] = 5
    assert lr.schur_product((1,), (1,), 3) == {(2,): 1, (1, 1): 1}
    # lr_coefficient((2, 1), (1, 1), (2, 2, 1)) reads this capped product
    got = lr.schur_product((1, 1), (2, 1), 3, cap=(2, 2, 1))
    got[(2, 2, 1)] = 7
    assert lr.schur_product((1, 1), (2, 1), 3, cap=(2, 2, 1)) == {(2, 2, 1): 1}
    assert lr.lr_coefficient((2, 1), (1, 1), (2, 2, 1)) == 1
    got.clear()
    assert lr.lr_coefficient((2, 1), (1, 1), (2, 2, 1)) == 1


def test_cache_transparency():
    before = lr.schur_product((2, 1), (2, 1), 3)
    lr.clear_caches()
    assert lr.schur_product((2, 1), (2, 1), 3) == before


ORACLE_PRODUCTS = (((2, 1), (2, 1), 4), ((3, 1), (2, 2), 4), ((2, 2, 1), (2, 1), 5))


def test_schur_product_matches_oracle():
    """The kernel's full expansions agree with the Schur-polynomial oracle,
    both on every nu it returns and on every nu of the right size that fits
    in ``rows`` rows (so no coefficient is missing either)."""
    for lam, mu, rows in ORACLE_PRODUCTS:
        got = lr.schur_product(lam, mu, rows)
        size = sum(lam) + sum(mu)
        shapes = [nu for nu in partitions_up_to(size) if sum(nu) == size]
        for nu in set(got) | {nu for nu in shapes if len(nu) <= rows}:
            assert got.get(nu, 0) == lr_oracle(lam, mu, nu), (lam, mu, nu)


def test_fold_on_sorted_trimmed_factors_matches_tensor_fold():
    """``_fold`` skips validation; on sorted, trimmed factors it must give
    what ``tensor_fold`` gives for the same factors in any order and with
    trailing zeros.  ``siweights._vertex_mult`` relies on this."""
    factors = [(2, 1, 0), (1,), (), (2, 0), (1, 1)]
    clean = sorted(lr.partition(f) for f in factors)
    for rows, cap in ((3, None), (4, None), (3, (3, 3, 3)), (2, (4, 3))):
        assert lr._fold(clean, rows, cap) == lr.tensor_fold(
            factors, rows, cap=cap
        )
    assert lr._fold(clean, 3, None) and lr._fold(clean, 3, (3, 3, 3))


# the two-row rule: every factor of at most 3 rows and 8 boxes, so a factor
# with a third row is covered too
FACTORS3 = [p for p in partitions_up_to(8) if len(p) <= 3]
TWO_ROW_CAPS = (None, (), (3,), (9,), (2, 2), (5, 3), (9, 1), (6, 4, 2))


def _two_row_targets(size):
    """Every partition of ``size`` with at most two rows."""
    return [
        (size - k, k) if k else (size,) if size else ()
        for k in range(size // 2 + 1)
    ]


def _walked_coef(lam, mu, nu):
    """c^nu_{lam,mu} read off the uncapped strip walk, where the tight-cap
    rule is off."""
    return lr._schur_mult(lam, mu, len(nu), None).get(nu, 0)


def _check_two_row_case(lam, mu, nu, rows, cap):
    assert lr._coef(lam, mu, nu) == _walked_coef(lam, mu, nu), (lam, mu, nu)
    want = lr._schur_mult(lam, mu, rows, cap)
    assert lr._product(lam, mu, rows, cap) == want, (lam, mu, rows, cap)


def test_two_row_rule_matches_the_walks():
    """``_coef`` on targets of at most two rows, of the right size and of a
    wrong size, and ``_product`` in at most two rows under every cap agree
    with the walk they bypass; the public functions agree on the same
    grid, and no closed-form answer is cached."""
    lr.clear_caches()
    checked = 0
    for lam, mu in itertools.product(FACTORS3, repeat=2):
        size = sum(lam) + sum(mu)
        for nu in _two_row_targets(size - 1) + _two_row_targets(size + 1):
            assert lr._coef(lam, mu, nu) == 0
            assert lr.lr_coefficient(lam, mu, nu) == 0
        for nu in _two_row_targets(size):
            want = _walked_coef(lam, mu, nu)
            assert lr._coef(lam, mu, nu) == want, (lam, mu, nu)
            assert lr.lr_coefficient(lam, mu + (0,), nu) == want
            checked += 1
        for rows in (0, 1, 2):
            for cap in TWO_ROW_CAPS:
                want = lr._schur_mult(lam, mu, rows, cap)
                assert lr._product(lam, mu, rows, cap) == want
                assert lr.schur_product(lam, mu, rows, cap) == want
    assert checked > 5000
    assert not lr._PRODUCT_CACHE


@st.composite
def _two_row_cases(draw):
    """(lam, mu, nu, rows, cap): factors of at most 3 rows and 12 boxes, a
    target of at most two rows whose size is off by at most one, and any
    cap of at most three nonnegative rows."""
    rows = st.lists(st.integers(0, 6), max_size=3)
    factors = rows.map(lambda xs: lr.partition(sorted(xs, reverse=True)))
    lam, mu = draw(factors), draw(factors)
    size = sum(lam) + sum(mu) + draw(st.integers(-1, 1))
    nu = draw(st.sampled_from(_two_row_targets(size) or [()]))
    rows = draw(st.integers(0, 2))
    cap = draw(st.none() | st.lists(st.integers(0, 12), max_size=3).map(tuple))
    return lam, mu, nu, rows, cap


@settings(max_examples=500)
@given(case=_two_row_cases())
@example(case=((2, 1, 1), (1,), (3, 2), 2, None))  # a factor has a third row
@example(case=((3, 1), (2, 2), (4, 3), 2, None))  # mu has no free column
@example(case=((1,), (1,), (2,), 1, (2,)))  # one row keeps only j = 0
@example(case=((), (), (), 0, ()))  # the empty product
@example(case=((2,), (2,), (2, 2), 2, (3, 1)))  # a cap row below a term's
def test_two_row_rule_property(case):
    _check_two_row_case(*case)


# the walk under a cap: three to five rows, any cap of at most six rows


def _inside(nu, cap):
    return all(x <= (cap[r] if r < len(cap) else 0) for r, x in enumerate(nu))


@st.composite
def _capped_cases(draw):
    """(lam, mu, rows, cap): factors of at most 4 rows of at most 4 boxes,
    3 to 5 rows, and a cap that is a target of the product (tight), any
    list of at most six rows (which need not be a partition and may have
    zero rows), or such a list with one of its first ``rows`` entries set
    so that the sizes fill it exactly (tight, often not a partition)."""
    factors = st.lists(st.integers(0, 4), max_size=4).map(
        lambda xs: lr.partition(sorted(xs, reverse=True))
    )
    lam, mu = draw(factors), draw(factors)
    rows = draw(st.integers(3, 5))
    size = sum(lam) + sum(mu)
    cap = draw(st.lists(st.integers(0, 6), max_size=6))
    kind = draw(st.sampled_from(("target", "any", "filled")))
    support = sorted(lr._schur_mult(lam, mu, rows, None))
    if kind == "target" and support:
        cap = list(draw(st.sampled_from(support))) + cap[rows:]
    elif kind == "filled":
        cap += [0] * (rows - len(cap))
        at = draw(st.integers(0, rows - 1))
        cap[at] += size - sum(cap[:rows])
        if cap[at] < 0:
            cap[at] = 0
    return lam, mu, rows, tuple(cap)


@settings(max_examples=500)
@given(case=_capped_cases())
@example(case=((2, 1), (1, 1), 3, (2, 2, 1)))  # tight, the only target
@example(case=((2, 1), (2, 1), 3, (3, 2, 1)))  # tight, coefficient 2
@example(case=((2, 1), (1, 1), 3, (2, 1, 2)))  # tight, not a partition
@example(case=((2, 1), (1, 1), 3, (2, 2, 1, 4)))  # longer than rows
@example(case=((2, 1), (1, 1), 4, (2, 2)))  # shorter than rows
@example(case=((1,), (1,), 3, ()))  # no rows at all
@example(case=((1,), (1,), 3, (0, 2)))  # a zero row above the sizes
@example(case=((3, 1), (2,), 3, (3, 3, 0)))  # tight, row 0 forced past lam
def test_capped_product_is_the_filtered_walk(case):
    """``_product`` in three or more rows, from a cold cache, keeps exactly
    the terms of the uncapped walk that fit inside the cap."""
    lam, mu, rows, cap = case
    want = {
        nu: c
        for nu, c in lr._schur_mult(lam, mu, rows, None).items()
        if _inside(nu, cap)
    }
    lr.clear_caches()
    assert lr._product(lam, mu, rows, cap) == want
    lr.clear_caches()
    assert lr._product(mu, lam, rows, cap) == want


def test_three_row_coefficients_match_schur_polynomial_oracle():
    """``_coef`` on every target of three or more rows, in both argument
    orders, against the Schur-polynomial oracle, which shares no code with
    the walk."""
    lr.clear_caches()
    # every pair of total size at most 6, and two of size 7 whose products
    # hold a coefficient 2
    pairs = [
        (lam, mu)
        for lam, mu in itertools.product(partitions_up_to(6), repeat=2)
        if sum(lam) + sum(mu) <= 6
    ] + [((3, 1), (2, 1)), ((2, 1, 1), (2, 1))]
    checked, nonzero, several = 0, 0, 0
    for lam, mu in pairs:
        size = sum(lam) + sum(mu)
        for nu in partitions_up_to(size):
            if sum(nu) != size or len(nu) < 3:
                continue
            want = lr_oracle(lam, mu, nu)
            assert lr._coef(lam, mu, nu) == want, (lam, mu, nu)
            assert lr._coef(mu, lam, nu) == want, (mu, lam, nu)
            checked += 1
            nonzero += want > 0
            several += want > 1
    assert checked > 500 and nonzero > 100 and several >= 3
