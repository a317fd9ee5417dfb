"""Acceptance gate: twelve desk-scale criteria, one report line each.

Every test prints its own pass/fail line (visible even without -s) and then
asserts, so a red run still shows which criteria held.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction

from quiverinv import canonical as can
from quiverinv import linalg, siweights, stability
from quiverinv.core import (
    EulerMatrix,
    dynkin_quiver,
    euclidean_quiver,
    kronecker_quiver,
)
from quiverinv.generic import canonical_decomposition, is_schur_root

from oracles import (
    candecomp_exhaustive,
    hom_ext_concrete,
    random_representation,
    ref_coxeter_matrix,
)

EK2 = EulerMatrix(kronecker_quiver(2))
EK3 = EulerMatrix(kronecker_quiver(3))
EA3 = EulerMatrix(dynkin_quiver("A3"))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _line(capsys, text):
    with capsys.disabled():
        print(text)


def _vectors(n, total):
    for d in itertools.product(range(total + 1), repeat=n):
        if any(d) and sum(d) <= total:
            yield d


def test_criterion_01_euler_oracle(capsys):
    rng = random.Random(20260816)
    quivers = (kronecker_quiver(2), dynkin_quiver("A3"), dynkin_quiver("D4"))
    start = time.time()
    bad = 0
    checked = 0
    for quiver in quivers:
        euler = EulerMatrix(quiver)
        n = euler.n
        for _ in range(67):
            d = tuple(rng.randrange(0, 5) for _ in range(n))
            e = tuple(rng.randrange(0, 5) for _ in range(n))
            v = random_representation(quiver, d, rng)
            w = random_representation(quiver, e, rng)
            hom, ext = hom_ext_concrete(v, w)
            if hom - ext != euler.euler(d, e):
                bad += 1
            checked += 1
            if checked >= 200:
                break
    elapsed = time.time() - start
    ok = bad == 0 and elapsed < 5.0
    _line(
        capsys,
        f"AC01 Euler oracle on concrete representations: "
        f"{'pass' if ok else 'FAIL'} ({checked} pairs, {bad} mismatches, "
        f"{elapsed:.2f}s)",
    )
    assert ok


def test_criterion_02_schur_stability(capsys):
    bad = []
    checked = 0
    for euler in (EK2, EK3, EA3):
        for d in _vectors(euler.n, 6):
            theta = euler.theta(d)
            if is_schur_root(euler, d) != stability.is_stable_generic(
                euler, d, theta
            ):
                bad.append((euler.quiver.name, d))
            checked += 1
    _line(
        capsys,
        f"AC02 Schur iff stable at the self-weight: "
        f"{'pass' if not bad else 'FAIL'} ({checked} vectors, "
        f"{len(bad)} mismatches)",
    )
    assert not bad


def test_criterion_03_candecomp_brute_force(capsys):
    bad = []
    checked = 0
    for euler in (EK2, EA3):
        for d in _vectors(euler.n, 6):
            expected = candecomp_exhaustive(euler, d)
            got = sorted(
                root
                for root, mult, _ in canonical_decomposition(euler, d).summands
                for _ in range(mult)
            )
            if got != expected:
                bad.append((euler.quiver.name, d))
            checked += 1
    _line(
        capsys,
        f"AC03 canonical decomposition vs exhaustive search: "
        f"{'pass' if not bad else 'FAIL'} ({checked} vectors, "
        f"{len(bad)} mismatches)",
    )
    assert not bad


def test_criterion_04_reciprocity(capsys):
    rng = random.Random(41)
    quivers = (EK2, EA3, EK3)
    bad = 0
    checked = 0
    for euler in quivers:
        n = euler.n
        done = 0
        while done < 50:
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            if not any(d) or not any(e):
                continue
            # circ evaluates both sides itself and raises on disagreement
            left = siweights.si_dim(
                euler, e, euler.weight_left(d), pivot=False
            )
            right = siweights.si_dim(
                euler, d, tuple(-t for t in euler.weight_right(e)), pivot=False
            )
            if left != right or siweights.circ(euler, d, e) != left:
                bad += 1
            done += 1
            checked += 1
    _line(
        capsys,
        f"AC04 reciprocity of weight-space dimensions: "
        f"{'pass' if bad == 0 else 'FAIL'} ({checked} pairs, {bad} mismatches)",
    )
    assert bad == 0


def test_criterion_05_kronecker_tables(capsys):
    start = time.time()
    ray1 = siweights.si_table(EK2, (1, 1), (1, -1), 6).dims
    ray2 = siweights.si_table(EK2, (2, 2), (1, -1), 6).dims
    ok = list(ray1) == [n + 1 for n in range(7)]
    ok = ok and list(ray2) == [(n + 1) * (n + 2) // 2 for n in range(7)]
    v1 = stability.projective_space_verdict(EK2, (1, 1), (1, -1), 6)
    v2 = stability.projective_space_verdict(EK2, (2, 2), (1, -1), 6)
    ok = ok and (v1.status, v1.m, v1.q) == ("is_P_m", 1, Fraction(1))
    ok = ok and (v2.status, v2.m, v2.q) == ("is_P_m", 2, Fraction(1))
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _line(
        capsys,
        f"AC05 Kronecker weight tables and projective verdicts: "
        f"{'pass' if ok else 'FAIL'} ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_06_log_concavity_tame(capsys):
    # catalogue quivers with at most five vertices: one of each family
    # shape; the theta grid is exponential in the vertex count, so larger
    # members are out of desk range
    names = ("A~1", "A~2", "A~3", "A~4", "D~4")
    bad = []
    pairs = 0
    for name in names:
        quiver = euclidean_quiver(name)
        euler = EulerMatrix(quiver)
        for d in _vectors(euler.n, 4):
            cone = stability.effective_cone(euler, d)
            for theta in itertools.product(range(-2, 3), repeat=euler.n):
                if sum(a * b for a, b in zip(theta, d)) != 0:
                    continue
                if not cone.contains(theta):
                    continue
                dims = siweights.si_table(euler, d, theta, 5).dims
                if siweights.log_concavity_check(dims).status != "ok":
                    bad.append((name, d, theta, dims))
                pairs += 1
    _line(
        capsys,
        f"AC06 log-concavity along tame weight rays: "
        f"{'pass' if not bad else 'FAIL'} ({pairs} effective pairs, "
        f"{len(bad)} violations)",
    )
    assert not bad


def test_criterion_07_wild_violation_fixture(capsys):
    hit = siweights.wild_violation_search(EK3)
    doc = {
        "status": hit.status,
        "dprime": list(hit.dprime),
        "d": list(hit.d),
        "theta": list(hit.theta),
        "n": hit.n,
        "si_theta": hit.si_theta,
        "si_2theta": hit.si_2theta,
    }
    payload = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    path = os.path.join(FIXTURES, "wild_k3.json")
    if not os.path.exists(path):
        os.makedirs(FIXTURES, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    with open(path, "rb") as handle:
        recorded = handle.read()
    ok = (
        hit.status == "found"
        and hit.si_2theta > hit.si_theta**2
        and recorded == payload
    )
    _line(
        capsys,
        f"AC07 wild violation found and replayed: "
        f"{'pass' if ok else 'FAIL'} (d'={hit.dprime}, n={hit.n}, "
        f"{hit.si_theta}^2 < {hit.si_2theta})",
    )
    assert ok


def test_criterion_08_decomposition_scaling(capsys):
    ok = True
    for m in (2, 3):
        dec = stability.theta_stable_decomposition(EK2, (m, m), (1, -1))
        ok = ok and dec.factors == (((1, 1), m, "isotropic"),)
    dec = stability.theta_stable_decomposition(
        EK3, (2, 2), EK3.theta((1, 1))
    )
    ok = ok and dec.factors == (((2, 2), 1, "imaginary"),)
    _line(
        capsys,
        f"AC08 stable-decomposition scaling laws: {'pass' if ok else 'FAIL'}",
    )
    assert ok


def test_criterion_09_canonical_identities(capsys):
    start = time.time()
    rng = random.Random(9)
    ok = True
    tubulars = (((2, 2, 2, 2), (1, 2)), ((3, 3, 3), (1,)),
                ((4, 4, 2), (1,)), ((6, 3, 2), (1,)))
    for weights, lams in tubulars:
        algebra = can.build_canonical(weights, lams)
        ok = ok and algebra.euler.tits(algebra.h()) == 0
        phi = ref_coxeter_matrix(algebra.euler)
        n = algebra.euler.n
        for basis in range(n):
            v = tuple(1 if i == basis else 0 for i in range(n))
            for _ in range(algebra.m_lcm):
                v = tuple(linalg.matvec(phi, v))
            ok = ok and v == tuple(1 if i == basis else 0 for i in range(n))
    for weights in ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2), (3, 3, 2)):
        lams = (1, 2)[: len(weights) - 2]
        algebra = can.build_canonical(weights, lams)
        n = algebra.euler.n
        h = algebra.h()
        for _ in range(50):
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            rk, _ = can.rank_degree(algebra, d)
            ok = ok and rk == algebra.euler.euler(d, h)
        for _ in range(100):
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            ok = ok and can.riemann_roch_check(algebra, d, e).status == "ok"
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _line(
        capsys,
        f"AC09 canonical-algebra identities: "
        f"{'pass' if ok else 'FAIL'} ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_10_genus_classification(capsys):
    tubular_found = set()
    scanned = 0
    bad = 0
    for n in (3, 4):
        lams = (1, 2)[: n - 2]
        for weights in itertools.combinations_with_replacement(
            range(2, 8), n
        ):
            weights = tuple(sorted(weights, reverse=True))
            algebra = can.build_canonical(weights, lams)
            # classify_canonical cross-checks genus against the star
            # representation type internally and raises on disagreement
            kind = can.classify_canonical(algebra)
            if (can.virtual_genus(algebra) == 1) != (kind == "tubular"):
                bad += 1
            if kind == "tubular":
                tubular_found.add(weights)
            scanned += 1
    ok = bad == 0 and tubular_found == set(can.TUBULAR_WEIGHTS)
    _line(
        capsys,
        f"AC10 genus classification scan: {'pass' if ok else 'FAIL'} "
        f"({scanned} weight tuples, tubular = {sorted(tubular_found)})",
    )
    assert ok


def test_criterion_11_kronecker_pair(capsys):
    pair = can.kronecker_pair(EK2, (1, 1))
    ok = (pair.d1, pair.d2) == ((0, 1), (1, 0))
    ok = ok and EK2.euler(pair.d1, pair.d2) == 0
    ok = ok and EK2.euler(pair.d2, pair.d1) == -2
    algebra = can.build_canonical((2, 2, 2, 2), (1, 2))
    h = algebra.h()
    pair = can.kronecker_pair(algebra, h)
    euler = algebra.euler
    ok = ok and tuple(a + b for a, b in zip(pair.d1, pair.d2)) == h
    ok = ok and euler.tits(pair.d1) == 1 and euler.tits(pair.d2) == 1
    ok = ok and euler.euler(pair.d1, pair.d2) == 0
    ok = ok and euler.euler(pair.d2, pair.d1) == -2
    profile = can.rational_invariants_canonical(algebra, h)
    ok = ok and profile.field_description == "k(t)"
    _line(
        capsys,
        f"AC11 Kronecker pair extraction: {'pass' if ok else 'FAIL'}",
    )
    assert ok


def test_criterion_12_rational_invariants(capsys):
    ok = (
        stability.rational_invariants_profile(EK2, (2, 2)).field_description
        == "k(t_1,t_2)"
    )
    ok = ok and (
        stability.rational_invariants_profile(EK2, (3, 1)).field_description
        == "k"
    )
    checked = 0
    for d in _vectors(3, 6):
        profile = stability.rational_invariants_profile(EA3, d)
        ok = ok and profile.field_description == "k"
        checked += 1
    _line(
        capsys,
        f"AC12 rational-invariant field profiles: "
        f"{'pass' if ok else 'FAIL'} ({checked + 2} vectors)",
    )
    assert ok
