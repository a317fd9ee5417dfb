"""The four benchmark workloads.

Each workload has four steps:

* ``plan(rng, small)`` draws the inputs from the seed as plain data, without
  touching the library;
* ``build(qv, plan)`` builds the quivers and Euler matrices (timed as set-up);
* ``run(qv, objs, plan, call)`` issues the queries, one at a time, each
  through ``call(kind, tag, fn, *args)``, which times it and records the
  answer (``None`` comes back when the call raised);
* ``check(qv, objs, plan, record)`` verifies the recorded answers and
  returns one message per wrong answer.

``qv`` is a namespace holding the freshly imported library modules.  The
``small`` plans are for the harness self-test only.
"""

import itertools
import math

# ---------------------------------------------------------------------------
# helpers


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec):
    g = math.gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def _vectors(n, total):
    for d in itertools.product(range(total + 1), repeat=n):
        if any(d) and sum(d) <= total:
            yield d


_NAMES = ("p", "q", "r", "s", "u", "w", "x", "y", "z", "src", "snk", "mid")


def _labels(rng, count):
    """``count`` distinct vertex ids; their sorted order is seed-drawn."""
    return rng.sample(_NAMES, count)


def _sorted_coords(labels, vec):
    """Re-express a vector given along ``labels`` in sorted-id order."""
    by_label = dict(zip(labels, vec))
    return tuple(by_label[v] for v in sorted(labels))


def _theta(arrows, labels, d):
    """Canonical weight <d,-> - <-,d> of a path algebra, along ``labels``:
    theta(v) = sum of d over heads of arrows out of v minus sum of d over
    tails of arrows into v."""
    pos = {v: i for i, v in enumerate(labels)}
    theta = [0] * len(labels)
    for tail, head in arrows:
        theta[pos[tail]] += d[pos[head]]
        theta[pos[head]] -= d[pos[tail]]
    return tuple(theta)


def _quiver(qv, labels, arrows, prefix):
    arrow_ids = tuple(
        (f"{prefix}{i}", t, h) for i, (t, h) in enumerate(arrows, start=1)
    )
    return qv.core.Quiver(tuple(labels), arrow_ids)


def _kronecker_arrows(labels, k):
    return ((labels[0], labels[1]),) * k


def _sum_summands(items, n):
    total = [0] * n
    for root, mult, *_ in items:
        for i, x in enumerate(root):
            total[i] += mult * x
    return tuple(total)


# ---------------------------------------------------------------------------
# tame_rays: the AC06 log-concavity grid, sampled


class TameRays:
    """Euclidean quivers, |d| <= 4, theta in [-2,2]^n: effective_cone per d,
    then si_table(d, theta, 5) for a seed-drawn fifth of the theta grid."""

    QUIVERS = ("A~2", "A~3", "A~4", "D~4")
    SIZES = {"A~2": 3, "A~3": 4, "A~4": 5, "D~4": 5}
    FRACTION = 0.2
    N_MAX = 5

    def plan(self, rng, small):
        names = ("A~2",) if small else self.QUIVERS
        total = 2 if small else 4
        out = []
        for name in names:
            n = self.SIZES[name]
            for d in _vectors(n, total):
                grid = [
                    t
                    for t in itertools.product(range(-2, 3), repeat=n)
                    if _dot(t, d) == 0
                ]
                picked = rng.sample(grid, round(self.FRACTION * len(grid)))
                out.append((name, d, tuple(sorted(picked))))
        return out

    def build(self, qv, plan):
        names = sorted({name for name, _, _ in plan})
        return {
            name: qv.core.EulerMatrix(qv.core.euclidean_quiver(name))
            for name in names
        }

    def run(self, qv, objs, plan, call):
        for name, d, thetas in plan:
            euler = objs[name]
            cone = call("effective_cone", d, qv.stability.effective_cone, euler, d)
            if cone is None:
                continue
            for theta in thetas:
                if cone.contains(theta):
                    call(
                        "si_table",
                        (d, theta),
                        qv.siweights.si_table,
                        euler,
                        d,
                        theta,
                        self.N_MAX,
                    )

    def check(self, qv, objs, plan, record):
        bad = []
        for kind, tag, answer, _ in record:
            if kind == "effective_cone":
                if not all(
                    answer.contains(r) and _dot(r, tag) == 0 for r in answer.rays
                ):
                    bad.append(f"cone of {tag} has a ray outside it")
            else:
                dims = answer.dims
                if len(dims) != self.N_MAX + 1 or dims[0] != 1:
                    bad.append(f"si_table{tag} = {dims}: dims[0] != 1")
                elif qv.siweights.log_concavity_check(dims).status != "ok":
                    bad.append(f"si_table{tag} = {dims} is not log-concave")
        return bad


# ---------------------------------------------------------------------------
# wild_rays: si_dim along n * theta_{d'} on generalized Kronecker quivers


class WildRays:
    """si_dim(K_k, d, n * theta_{d'}) for n = 1..n_max, d = d' or 2d'.

    Each slot lists rays of matched cost; the seed draws one per slot, the
    vertex and arrow ids, and the n at which reciprocity (``circ``) is
    checked.  ``form`` says which side of the reciprocity identity stays
    small enough to evaluate literally: "e" pairs d with the e that has
    -<-,e> = weight, "x" pairs the x that has <x,-> = weight with d.
    Coordinates are (source, sink).
    """

    # (k, d', scale, n_max, form, largest n the reciprocity check may use)
    SLOTS = (
        ((3, (1, 1), 1, 11, "e", 2),),
        ((3, (1, 2), 1, 11, "e", 3),),
        ((3, (2, 1), 1, 11, "x", 5),),
        ((3, (1, 1), 2, 6, "e", 1),),
        ((3, (1, 2), 2, 3, "e", 2), (3, (2, 1), 2, 3, "x", 2)),
        ((4, (1, 1), 1, 9, "e", 1),),
        ((4, (1, 2), 1, 6, "e", 1),),
        ((4, (2, 1), 1, 6, "x", 1),),
        ((4, (1, 2), 2, 1, "e", 1), (4, (2, 1), 2, 1, "x", 1)),
    )
    SMALL_SLOTS = (((3, (1, 1), 1, 4, "e", 2),), ((4, (1, 2), 1, 2, "e", 1),))

    def plan(self, rng, small):
        labels = {k: _labels(rng, 2) for k in (3, 4)}
        rays = []
        for slot in self.SMALL_SLOTS if small else self.SLOTS:
            k, (a, b), scale, n_max, form, circ_max = rng.choice(slot)
            lab = labels[k]
            d = (scale * a, scale * b)
            theta = (k * b, -k * a)  # theta_{d'} = <d',-> - <-,d'>
            n_circ = rng.randint(1, circ_max)
            w1, w2 = n_circ * theta[0], n_circ * theta[1]
            if form == "e":  # -<-,e> = w
                partner = (-w1 - k * w2, -w2)
            else:  # <x,-> = w
                partner = (w1, w2 + k * w1)
            rays.append(
                (
                    k,
                    _sorted_coords(lab, d),
                    _sorted_coords(lab, theta),
                    n_max,
                    form,
                    n_circ,
                    _sorted_coords(lab, partner),
                )
            )
        return {"labels": labels, "rays": rays}

    def build(self, qv, plan):
        return {
            k: qv.core.EulerMatrix(
                _quiver(qv, lab, _kronecker_arrows(lab, k), f"{lab[0]}{k}_")
            )
            for k, lab in plan["labels"].items()
        }

    def run(self, qv, objs, plan, call):
        for i, (k, d, theta, n_max, *_) in enumerate(plan["rays"]):
            for n in range(1, n_max + 1):
                weight = tuple(n * t for t in theta)
                call("si_dim", (i, n), qv.siweights.si_dim, objs[k], d, weight)

    def check(self, qv, objs, plan, record):
        answers = {tag: answer for _, tag, answer, _ in record}
        bad = []
        for i, (k, d, _, _, form, n_circ, partner) in enumerate(plan["rays"]):
            if (i, n_circ) not in answers:
                continue  # the query itself raised and is already counted
            pair = (d, partner) if form == "e" else (partner, d)
            try:
                value = qv.siweights.circ(objs[k], *pair)
            except qv.errors.QuiverInvError as exc:
                value = exc
            if value != answers[(i, n_circ)]:
                bad.append(
                    f"K{k} d={d} n={n_circ}: si_dim {answers[(i, n_circ)]} "
                    f"!= circ {value!r}"
                )
        return bad


# ---------------------------------------------------------------------------
# schofield_large: the ext/subdimension recursion on large vectors


class SchofieldLarge:
    """Semistability, canonical decomposition and stable decomposition of
    large vectors on K3 and on a 3-vertex wild chain a => b => c, at the
    primitive canonical weight theta_d of each vector (where it is stable).

    Every call gets its own vector on its own copy of the quiver: copies
    differ in their vertex ids, so their caches never meet and each call
    pays for its whole ext recursion.  The K3 vectors have subdimension
    boxes of 231 to 247; the chain vectors are cyclic permutations of
    (5, 6, 7).  The vectors and the call each one gets are fixed, so that
    every seed does the same ext work and the six latencies keep their
    order; the seed draws the ids (which fix each copy's sorted order) and
    the order of the calls.
    """

    K3_VECTORS = ((12, 18), (10, 20), (11, 19))
    CHAIN_VECTORS = ((5, 6, 7), (6, 7, 5), (7, 5, 6))
    SMALL_K3 = ((3, 5), (4, 4), (2, 5))
    SMALL_CHAIN = ((2, 2, 3), (2, 3, 2), (3, 2, 2))
    CALLS = ("is_semistable_generic", "canonical_decomposition", "theta_stable_decomposition")

    def plan(self, rng, small):
        pools = {
            "k3": self.SMALL_K3 if small else self.K3_VECTORS,
            "chain": self.SMALL_CHAIN if small else self.CHAIN_VECTORS,
        }
        quivers, items = {}, []
        for shape, vectors in pools.items():
            for i, (kind, d) in enumerate(zip(self.CALLS, vectors)):
                lab = [f"{v}{i}" for v in _labels(rng, len(d))]
                if shape == "k3":
                    arrows = _kronecker_arrows(lab, 3)
                else:
                    arrows = ((lab[0], lab[1]),) * 2 + ((lab[1], lab[2]),) * 2
                key = f"{shape}{i}"
                quivers[key] = (lab, arrows)
                theta = _primitive(_theta(arrows, lab, d))
                items.append((kind, key, _sorted_coords(lab, d), _sorted_coords(lab, theta)))
        rng.shuffle(items)
        return {"quivers": quivers, "items": items}

    def build(self, qv, plan):
        return {
            key: qv.core.EulerMatrix(_quiver(qv, lab, arrows, f"{key}_"))
            for key, (lab, arrows) in plan["quivers"].items()
        }

    def run(self, qv, objs, plan, call):
        for kind, key, d, theta in plan["items"]:
            if kind == "canonical_decomposition":
                call(kind, (key, d, theta), qv.generic.canonical_decomposition, objs[key], d)
            else:
                fn = getattr(qv.stability, kind)
                call(kind, (key, d, theta), fn, objs[key], d, theta)

    def check(self, qv, objs, plan, record):
        bad = []
        for kind, (key, d, theta), answer, _ in record:
            euler = objs[key]
            if kind == "is_semistable_generic":
                if answer is not True:
                    bad.append(f"{key} {d} not semistable at {theta}")
            elif kind == "canonical_decomposition":
                if _sum_summands(answer.summands, len(d)) != d:
                    bad.append(f"{key} {d}: summands do not sum to d")
            else:
                if _sum_summands(answer.factors, len(d)) != d:
                    bad.append(f"{key} {d}: stable factors do not sum to d")
                for root, _, _ in answer.factors:
                    if _dot(theta, root) != 0 or not qv.stability.is_stable_generic(
                        euler, root, theta
                    ):
                        bad.append(f"{key} {d}: factor {root} is not {theta}-stable")
        return bad


# ---------------------------------------------------------------------------
# genus_scan: canonical algebras, the AC10 weight scan, sampled


class GenusScan:
    """Canonical algebras with n in {3, 4} weights from 2..7: build,
    classify, genus, rank/degree, Riemann-Roch.

    The scan covers every weight tuple with at most ``MAX_VERTICES``
    vertices (2 + sum(m_i - 1)), the four tubular ones among them, so the
    tubular set can be compared with the library's catalogue.  The cost of a
    tuple grows steeply with its size, so a seed-drawn subset would move the
    latency percentiles from seed to seed; the tuples are therefore fixed.
    The seed draws the order of the arms (which permutes the vertices), the
    last lambda (which leaves the Euler form unchanged), the vectors, and
    the order of the scan.
    """

    TUBULAR = ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2))
    LAMBDAS = (2, 3, -1, "1/2", "-2/3", 5)
    MAX_VERTICES = 12

    def plan(self, rng, small):
        counts = (3,) if small else (3, 4)
        top = 4 if small else 7
        limit = 9 if small else self.MAX_VERTICES
        tuples = [
            tuple(sorted(w, reverse=True))
            for n in counts
            for w in itertools.combinations_with_replacement(range(2, top + 1), n)
            if 2 + sum(m - 1 for m in w) <= limit
        ]
        rng.shuffle(tuples)
        items = []
        for w in tuples:
            arms = tuple(rng.sample(w, len(w)))
            lams = (1,) if len(w) == 3 else (1, rng.choice(self.LAMBDAS))
            nverts = 2 + sum(m - 1 for m in w)
            d = tuple(rng.randint(0, 3) for _ in range(nverts))
            e = tuple(rng.randint(0, 3) for _ in range(nverts))
            items.append((w, arms, lams, d, e))
        return items

    def build(self, qv, plan):
        return {}

    def run(self, qv, objs, plan, call):
        can = qv.canonical
        for w, arms, lams, d, e in plan:
            algebra = call("build_canonical", w, can.build_canonical, arms, lams)
            if algebra is None:
                continue
            call("classify_canonical", w, can.classify_canonical, algebra)
            call("virtual_genus", w, can.virtual_genus, algebra)
            call("rank_degree", w, can.rank_degree, algebra, d)
            call("riemann_roch_check", w, can.riemann_roch_check, algebra, d, e)

    def check(self, qv, objs, plan, record):
        kinds, genera, bad = {}, {}, []
        for kind, w, answer, _ in record:
            if kind == "classify_canonical":
                kinds[w] = answer
            elif kind == "virtual_genus":
                genera[w] = answer
            elif kind == "riemann_roch_check" and answer.status != "ok":
                bad.append(f"{w}: Riemann-Roch {answer.lhs} != {answer.rhs}")
        for w, kind in kinds.items():
            if (genera.get(w) == 1) != (kind == "tubular"):
                bad.append(f"{w}: genus {genera.get(w)} but class {kind}")
        found = {w for w, kind in kinds.items() if kind == "tubular"}
        expected = {tuple(w) for w in qv.canonical.TUBULAR_WEIGHTS} & set(kinds)
        if found != expected:
            bad.append(f"tubular set {sorted(found)} != {sorted(expected)}")
        return bad


WORKLOADS = {
    "tame_rays": TameRays(),
    "wild_rays": WildRays(),
    "schofield_large": SchofieldLarge(),
    "genus_scan": GenusScan(),
}

# The answer fields that the digest covers, per kind of query.
CANON = {
    "effective_cone": lambda c: (c.rays, c.lineality, c.dim),
    "si_table": lambda t: t.dims,
    "si_dim": int,
    "is_semistable_generic": bool,
    "canonical_decomposition": lambda r: r.summands,
    "theta_stable_decomposition": lambda r: r.factors,
    "build_canonical": lambda a: (a.weights_m, a.euler.matrix),
    "classify_canonical": str,
    "virtual_genus": str,
    "rank_degree": tuple,
    "riemann_roch_check": lambda r: (r.status, str(r.lhs), str(r.rhs)),
}
