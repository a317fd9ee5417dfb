"""Quivers, Euler forms, and representation-type classification.

A quiver is a finite directed multigraph.  The homological bilinear form of
its path algebra (or of a bound algebra given by relation counts) is carried
by :class:`EulerMatrix`; for a dimension vector ``d`` and weight ``theta``
all pairings are exact integer arithmetic.

Vertex ids are arbitrary strings.  Every matrix and tuple in this module is
indexed through the canonical sorted order of the vertex ids, exposed as
``EulerMatrix.order``, which makes all outputs independent of declaration
order.
"""

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import InputError, InvariantError, PreconditionError, as_int

# the entry types of a vector that ``EulerMatrix.tup`` returns unchanged
_EXACT_INT = frozenset({int})


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with string vertex ids and arrow ids."""

    vertices: tuple
    arrows: tuple  # of (arrow_id, tail, head)
    name: str = ""

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        ids = [a[0] for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate arrow ids")
        vset = set(self.vertices)
        for aid, tail, head in self.arrows:
            if tail not in vset or head not in vset:
                raise InputError(f"arrow {aid!r} uses an undeclared vertex")

    @property
    def order(self):
        """Canonical sorted vertex order used for all matrices."""
        return tuple(sorted(self.vertices))

    def _kahn(self):
        """One pass of Kahn's algorithm: the vertices in an arrow-compatible
        order (ties broken by sorted id), and whether that order reaches
        every vertex.  Vertices on or behind an oriented cycle never reach
        indegree zero, so the flag is exactly acyclicity."""
        indeg = {v: 0 for v in self.vertices}
        heads = {v: [] for v in self.vertices}
        for _, t, h in self.arrows:
            indeg[h] += 1
            heads[t].append(h)
        ready = sorted(v for v in self.vertices if indeg[v] == 0)
        out = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for h in heads[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
        return tuple(out), len(out) == len(self.vertices)

    def is_acyclic(self):
        return self._kahn()[1]

    def topological_order(self):
        """Vertices in an arrow-compatible order (ties broken by sorted id)."""
        order, acyclic = self._kahn()
        if not acyclic:
            raise PreconditionError("quiver has an oriented cycle")
        return order

    def is_connected(self):
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for _, t, h in self.arrows:
            adj[t].add(h)
            adj[h].add(t)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def _has_long_path(quiver, i, j):
    """Whether some path of length >= 2 runs from i to j: a search for j
    from the heads of the arrows out of i, one arrow at a time."""
    heads = {}
    for _, t, h in quiver.arrows:
        heads.setdefault(t, []).append(h)
    todo = list(heads.get(i, ()))
    seen = set(todo)
    while todo:
        for w in heads.get(todo.pop(), ()):
            if w == j:
                return True
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


@dataclass(frozen=True)
class BoundQuiver:
    """Quiver plus per-pair counts of independent relations.

    ``relation_counts[(i, j)]`` is the number of relations supported on paths
    from i to j; it enters the Euler matrix with a positive sign (the algebra
    is assumed to have global dimension at most two).
    """

    quiver: Quiver
    relation_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), r in self.relation_counts.items():
            if r < 0:
                raise InputError("negative relation count")
            if r > 0 and not _has_long_path(self.quiver, i, j):
                raise InputError(
                    f"relation count on ({i}, {j}) without a path of length >= 2"
                )


class QuiverPlan(NamedTuple):
    """What the kernels read of a quiver's shape, computed once.

    Vertices are indices into the sorted vertex order.  Parallel arrows
    (same tail, same head) form one bundle, and bundles are positions in
    ``bundles``, which lists each as a ``(tail, head, multiplicity)``
    triple in sorted (tail, head) order.  ``incidence`` lists, in sorted
    order, each vertex that an arrow touches with the positions of its tail
    bundles and of its head bundles.  ``ends`` lists a ``(position, v,
    sign)`` for each bundle end at a one-sided vertex v, one with tail
    bundles only (sign +1) or head bundles only (sign -1).  ``lone`` lists
    a ``(position, ((v, sign), ...))`` for each bundle with an end at a
    vertex v that no other bundle meets, over those ends, tail first.

    The rest is a spanning forest of the bundle graph, which maps a supply
    (out minus in, per vertex) to every bundle flow that has it.
    ``components`` holds the vertex set of each connected component; a
    flow exists only where each of them has net supply zero.  ``tree``
    lists each tree bundle as ``(position, sign, far, bridge)``: with the
    other bundles empty it carries ``sign`` times the net supply of the
    vertices ``far`` on one side of it, and ``bridge`` says that no cycle
    row below touches it.  ``cycles`` lists each of the
    #bundles - #vertices + #components other bundles as
    ``(position, row, closing)``: its flow t is a free coordinate, and
    ``row`` holds the ``(tree position, +1 or -1)`` entries of its
    fundamental cycle, so that each unit of t adds them to the tree flows.
    ``closing`` is the part of ``row`` on tree bundles that no later cycle
    touches.  All of these are empty when the quiver has an oriented cycle.

    The last six fields are memos on the plan's matrix.  Four memoise
    the Schofield recursion of :mod:`quiverinv.generic`, keyed by the
    int-tuple dimension vector alone: its generic subdimension vectors, the
    rows that ext(v, -) reads off them, the columns that ext(-, v) reads
    off its generic quotients, and its canonical decomposition.  A vector
    gets rows or columns only on the side that ext expands, so it may have
    either, both or neither.
    ``sidims`` memoises :mod:`quiverinv.siweights` by ray: it maps
    ``(d, p)``, for a d with a zero entry and p the primitive direction of
    theta with its entries off the support of d set to 0, to a dict from
    each multiple m >= 1 (theta = m p on that support) to
    ``(price, dim SI(Q,d)_theta)`` for a sum taken on the literal side,
    ``price`` being the least budget under which that sum runs.
    ``reflections`` maps a vertex index x to the ``EulerMatrix`` of the
    quiver with every arrow at x reversed, for the reflections that
    :mod:`quiverinv.siweights` takes at a sink or a source; at most one per
    vertex, and the reflected matrix keeps this one under x.  All six
    start empty and are freed with the matrix.
    """

    acyclic: bool
    bundles: tuple
    incidence: tuple
    ends: tuple
    lone: tuple
    components: tuple
    tree: tuple
    cycles: tuple
    subdims: dict
    rows: dict
    cols: dict
    candecomp: dict
    sidims: dict
    reflections: dict


def _spanning_forest(n, bundles, tails, heads):
    """``(components, tree, cycles)`` of :class:`QuiverPlan`, from a
    breadth-first forest of the bundle graph rooted at the least vertex of
    each component."""
    parent = [None] * n  # (parent vertex, bundle position) per vertex
    depth = [0] * n
    seen = [False] * n
    components = []
    visits = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for k in tails[v] + heads[v]:
                t, h, _ = bundles[k]
                w = h if t == v else t
                if not seen[w]:
                    seen[w] = True
                    parent[w] = (v, k)
                    depth[w] = depth[v] + 1
                    comp.append(w)
        components.append(tuple(sorted(comp)))
        visits.append(comp)
    # the tree edge above v splits its component into the subtree at v and
    # the rest; deepest vertices first, so children are complete before v
    below = [[v] for v in range(n)]
    for comp in visits:
        for v in reversed(comp[1:]):
            below[parent[v][0]].extend(below[v])
    # the fundamental cycle of a non-tree bundle (a, b): the bundle itself,
    # then the tree path from b back to a; a tree bundle counts +1 where the
    # path runs along it and -1 where it runs against it
    in_tree = {p[1] for p in parent if p is not None}
    rows = []
    for k, (a, b, _) in enumerate(bundles):
        if k in in_tree:
            continue
        up_b, up_a = [], []
        x, y = b, a
        while x != y:
            if depth[x] >= depth[y]:
                u, e = parent[x]
                up_b.append((e, 1 if bundles[e][0] == x else -1))
                x = u
            else:
                u, e = parent[y]
                up_a.append((e, -1 if bundles[e][0] == y else 1))
                y = u
        rows.append((k, tuple(sorted(up_b + up_a))))
    last = {}
    for i, (_, row) in enumerate(rows):
        for e, _ in row:
            last[e] = i
    cycles = tuple(
        (k, row, tuple((e, c) for e, c in row if last[e] == i))
        for i, (k, row) in enumerate(rows)
    )
    comp_of = {v: comp for comp in components for v in comp}
    tree = []
    for v in range(n):
        if parent[v] is None:
            continue
        k = parent[v][1]
        far = sorted(below[v])
        if 2 * len(far) > len(comp_of[v]):
            far = sorted(set(comp_of[v]) - set(far))
        # with no flow off the tree, the bundle carries the net supply of
        # its tail side, which is minus that of its head side
        sign = 1 if bundles[k][0] in far else -1
        tree.append((k, sign, tuple(far), k not in last))
    return tuple(components), tuple(sorted(tree)), cycles


class EulerMatrix:
    """Bilinear Euler form of a (bound) quiver algebra.

    ``matrix[i][j] = delta_ij - #arrows(i -> j) + relations(i -> j)`` indexed
    in sorted vertex order, so that ``<d, e> = d^T E e`` counts homomorphisms
    minus extensions (minus relation corrections) for generic representations.

    ``plan`` holds the quiver's acyclicity, from one topological sort, and,
    as index tuples, its bundles of parallel arrows, the bundle incidence at
    each vertex and a spanning forest of the bundles that turns a supply
    into flows (see :class:`QuiverPlan`).  It is built on first use and then
    kept, so matrices that never reach a kernel never pay for it.  The plan
    also memoises the Schofield recursion's results for this matrix, one
    entry per dimension vector, and semi-invariant dimensions, one entry per
    vector and weight on its support; they are freed with it.
    ``triangular_rows``, also built on first use, carries the substitutions
    of ``solve_left`` and ``solve_right``, the one solve with E.  Instances are
    safe to share across threads: the plan and each memo entry depend on the
    matrix and the key alone, so threads racing to build the plan or to
    fill an entry compute equal values and either one serves.
    """

    def __init__(self, source):
        if isinstance(source, Quiver):
            quiver = source
            relations = {}
        elif isinstance(source, BoundQuiver):
            quiver = source.quiver
            relations = dict(source.relation_counts)
        else:
            raise InputError("expected a Quiver or BoundQuiver")
        self.quiver = quiver
        self.relation_counts = relations
        self.order = quiver.order
        idx = {v: i for i, v in enumerate(self.order)}
        self.index = idx
        n = len(self.order)
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _, t, h in quiver.arrows:
            m[idx[t]][idx[h]] -= 1
        for (i, j), r in relations.items():
            m[idx[i]][idx[j]] += r
        self.matrix = tuple(tuple(row) for row in m)
        self.n = n
        self.key = (self.order, self.matrix)

    def __eq__(self, other):
        return isinstance(other, EulerMatrix) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @property
    def is_path_algebra(self):
        return not any(self.relation_counts.values())

    @cached_property
    def plan(self):
        _, acyclic = self.quiver._kahn()
        if not acyclic:
            return QuiverPlan(False, (), (), (), (), (), (), (), {}, {}, {}, {}, {}, {})
        idx = self.index
        mult = {}
        for _, t, h in self.quiver.arrows:
            key = (idx[t], idx[h])
            mult[key] = mult.get(key, 0) + 1
        bundles = tuple((t, h, p) for (t, h), p in sorted(mult.items()))
        tails = [[] for _ in range(self.n)]
        heads = [[] for _ in range(self.n)]
        for k, (t, h, _) in enumerate(bundles):
            tails[t].append(k)
            heads[h].append(k)
        incidence = tuple(
            (v, tuple(tails[v]), tuple(heads[v]))
            for v in range(self.n)
            if tails[v] or heads[v]
        )
        ends = tuple(
            (k, v, 1 if tails[v] else -1)
            for v in range(self.n)
            if not (tails[v] and heads[v])
            for k in tails[v] or heads[v]
        )
        lone = []
        for k, (t, h, _) in enumerate(bundles):
            alone = tuple(
                (v, sign)
                for v, sign in ((t, 1), (h, -1))
                if len(tails[v]) + len(heads[v]) == 1
            )
            if alone:
                lone.append((k, alone))
        forest = _spanning_forest(self.n, bundles, tails, heads)
        return QuiverPlan(
            True, bundles, incidence, ends, tuple(lone), *forest, {}, {}, {}, {}, {}, {}
        )

    def tup(self, vec):
        """Coerce a dict keyed by vertex id, or a sequence in sorted vertex
        order, to an internal tuple of ints.  Entries must be integral
        (``2``, ``2.0`` and ``Fraction(4, 2)`` all give ``2``); a fractional
        entry raises ``InputError`` instead of being truncated.  A tuple of
        exact ints of the right length is returned as it is."""
        if (
            type(vec) is tuple
            and len(vec) == self.n
            and {*map(type, vec)} == _EXACT_INT
        ):
            return vec
        if isinstance(vec, dict):
            unknown = set(vec) - set(self.order)
            if unknown:
                raise InputError(f"unknown vertex ids: {sorted(unknown)}")
            vals = tuple(vec.get(v, 0) for v in self.order)
        else:
            vals = tuple(vec)
        t = tuple(as_int(x, "vector entry") for x in vals)
        if len(t) != self.n:
            raise InputError(
                f"vector length {len(t)} does not match {self.n} vertices"
            )
        return t

    def euler(self, d, e):
        return linalg.bilinear(self.matrix, self.tup(d), self.tup(e))

    def tits(self, d):
        return self.euler(d, d)

    def weight_left(self, d):
        """The weight <d, -> as a tuple in sorted vertex order."""
        return linalg.vecmat(self.tup(d), self.matrix)

    def weight_right(self, d):
        """The weight <-, d> as a tuple in sorted vertex order."""
        return linalg.matvec(self.matrix, self.tup(d))

    def theta(self, d):
        """Canonical weight <d, -> - <-, d> attached to d."""
        d = self.tup(d)
        left = linalg.vecmat(d, self.matrix)
        right = linalg.matvec(self.matrix, d)
        return tuple(a - b for a, b in zip(left, right))

    def symmetrized(self):
        return tuple(
            tuple(self.matrix[i][j] + self.matrix[j][i] for j in range(self.n))
            for i in range(self.n)
        )

    @cached_property
    def triangular_rows(self):
        """The nonzero off-diagonal entries of E row by row, in reverse
        topological order: ``(i, ((j, E[i][j]), ...))`` per vertex index i.

        The solves substitute along these rows, so E must be unitriangular
        in a topological order: 1 on the diagonal, and the other entries of
        a row only at vertices after it.  It is whenever the quiver is
        acyclic, because ``BoundQuiver`` joins every relation key by a path.
        A cyclic quiver, or any other matrix, raises ``PreconditionError``.
        """
        order, acyclic = self.quiver._kahn()
        if not acyclic:
            raise PreconditionError("solving with E needs an acyclic quiver")
        idx = self.index
        pos = {idx[v]: k for k, v in enumerate(order)}
        rows = []
        for v in reversed(order):
            i = idx[v]
            row = self.matrix[i]
            entries = tuple((j, c) for j, c in enumerate(row) if c and j != i)
            if row[i] != 1 or any(pos[j] < pos[i] for j, _ in entries):
                raise PreconditionError(
                    "solving with E needs E unitriangular in a topological order"
                )
            rows.append((i, entries))
        return tuple(rows)

    def _solve_input(self, vec):
        vec = list(vec)
        if len(vec) != self.n:
            raise InputError(
                f"vector length {len(vec)} does not match {self.n} vertices"
            )
        return vec

    def solve_right(self, y):
        """The integral d with <-, d> = y, that is E d = y, for ints y in
        sorted vertex order: back-substitution along ``triangular_rows``."""
        d = self._solve_input(y)
        for i, entries in self.triangular_rows:
            d[i] -= sum(c * d[j] for j, c in entries)
        return tuple(d)

    def solve_left(self, theta):
        """The integral d with <d, -> = theta, that is d^T E = theta, for
        ints theta in sorted vertex order: forward substitution along
        ``triangular_rows`` in topological order."""
        d = self._solve_input(theta)
        for i, entries in reversed(self.triangular_rows):
            if d[i]:
                for j, c in entries:
                    d[j] -= c * d[i]
        return tuple(d)


def dimension_vectors(euler, *vecs, hereditary=True):
    """The one check of a public call that takes dimension vectors: each
    vector through ``euler.tup`` and none with a negative entry, returned as
    int tuples in sorted vertex order for the kernels below.

    With ``hereditary`` (the default) the algebra must also be the path
    algebra of an acyclic quiver, which is checked first.  Callers that work
    on any Euler form, such as canonical algebras, pass ``hereditary=False``.
    """
    if hereditary:
        if not euler.is_path_algebra:
            raise PreconditionError("operation requires a path algebra")
        if not euler.plan.acyclic:
            raise PreconditionError("operation requires an acyclic quiver")
    out = tuple(map(euler.tup, vecs))
    for t in out:
        if min(t, default=0) < 0:
            raise InputError("dimension vectors must be nonnegative")
    return out


# ---------------------------------------------------------------------------
# Representation type


@dataclass(frozen=True)
class Classification:
    type: str  # "finite" | "tame_infinite" | "wild"
    diagram: str | None


_EXTENDED_STARS = {"E~6": (2, 2, 2), "E~7": (1, 3, 3), "E~8": (1, 2, 5)}


def _arm_length(adj, centre, v):
    """Vertices on the arm that leaves ``centre`` through its neighbour v:
    the path from v on through vertices of degree two, up to and including
    the first vertex of another degree (a leaf when ``centre`` is the only
    branch vertex)."""
    length, prev = 1, centre
    while len(adj[v]) == 2:
        prev, v = v, adj[v][adj[v][0] == prev]
        length += 1
    return length


def _classify_tree(edges, vertices):
    """Name a tree as Dynkin or extended Dynkin, or return None, from its
    branch vertices (degree at least three) and the lengths of their arms,
    not counting the branch vertex itself."""
    n = len(vertices)
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    branches = [v for v in vertices if len(adj[v]) > 2]
    if not branches:
        return "finite", f"A{n}"
    if len(branches) == 1:
        (centre,) = branches
        arms = tuple(sorted(_arm_length(adj, centre, w) for w in adj[centre]))
        if len(arms) == 4:
            return ("tame_infinite", "D~4") if arms == (1, 1, 1, 1) else None
        if len(arms) == 3:
            if arms[1] == 1:
                return "finite", f"D{n}"
            if arms[:2] == (1, 2) and arms[2] <= 4:
                return "finite", f"E{n}"
            for name, star in _EXTENDED_STARS.items():
                if arms == star:
                    return "tame_infinite", name
        return None
    if len(branches) == 2 and all(
        len(adj[v]) == 3 and sum(len(adj[w]) == 1 for w in adj[v]) == 2
        for v in branches
    ):
        return "tame_infinite", f"D~{n - 1}"
    return None


def _classify_component(quiver, comp):
    verts = sorted(comp)
    edges = [(t, h) for _, t, h in quiver.arrows if t in comp]
    nedges = len(edges)
    n = len(verts)
    loops = sum(1 for t, h in edges if t == h)
    if nedges == n - 1 and not loops:
        named = _classify_tree(edges, verts)
        if named:
            return named
        return "wild", None
    if nedges == n:
        degree = {v: 0 for v in verts}
        for t, h in edges:
            degree[t] += 1
            degree[h] += 1
        if all(degree[v] == 2 for v in verts):
            return "tame_infinite", f"A~{n - 1}" if n > 1 else "A~0"
        return "wild", None
    return "wild", None


def classify_path_algebra(quiver):
    """Representation type of the path algebra, with the diagram name.

    The verdict comes from the shape of the underlying graph: a cycle, or
    a tree read by its branch vertices and their arm lengths.  It is
    cross-checked against the definiteness of the symmetrized Tits form;
    a disagreement raises an internal error.  A quiver with no vertex has
    no diagram and is refused before that check.
    """
    if not quiver.vertices:
        raise PreconditionError("classification requires a vertex")
    if not quiver.is_connected():
        raise PreconditionError("classification requires a connected quiver")
    if not quiver.is_acyclic():
        raise PreconditionError("classification requires an acyclic quiver")
    kind, name = _classify_component(quiver, set(quiver.vertices))
    verdict = Classification(kind, name)

    euler = EulerMatrix(quiver)
    signature, corank = linalg.symmetric_signature(euler.symmetrized())
    expected_tame = 1 if kind == "tame_infinite" else 0
    if verdict.type == "finite" and signature != "positive_definite":
        raise InvariantError("Dynkin recognition disagrees with the Tits form")
    if verdict.type == "tame_infinite" and (
        signature != "positive_semidefinite" or corank != expected_tame
    ):
        raise InvariantError("Euclidean recognition disagrees with the Tits form")
    if verdict.type == "wild" and signature in (
        "positive_definite",
        "positive_semidefinite",
    ):
        raise InvariantError("wild verdict contradicts a nonnegative Tits form")
    return verdict


def null_root(quiver):
    """The minimal positive radical vector of a connected Euclidean quiver."""
    if not quiver.is_connected():
        raise PreconditionError("null root requires a connected quiver")
    if classify_path_algebra(quiver).type != "tame_infinite":
        raise PreconditionError("null root exists only for Euclidean quivers")
    euler = EulerMatrix(quiver)
    basis = linalg.kernel_basis(euler.symmetrized())
    if len(basis) != 1:
        raise InvariantError("Euclidean radical is not one dimensional")
    vec = basis[0]
    if all(x <= 0 for x in vec):
        vec = tuple(-x for x in vec)
    if any(x <= 0 for x in vec):
        raise InvariantError("null root is not strictly positive")
    return vec


# ---------------------------------------------------------------------------
# Catalogue quivers


def kronecker_quiver(k):
    """The k-arrow Kronecker quiver v1 => v2."""
    if k < 1:
        raise InputError("need at least one arrow")
    arrows = tuple((f"a{i}", "v1", "v2") for i in range(1, k + 1))
    return Quiver(("v1", "v2"), arrows, name=f"K{k}")


def _tree_quiver(edges, name):
    """Orient tree edges parent -> child as listed."""
    vertices = []
    for t, h in edges:
        for v in (t, h):
            if v not in vertices:
                vertices.append(v)
    arrows = tuple((f"a{i}", t, h) for i, (t, h) in enumerate(edges, start=1))
    return Quiver(tuple(vertices), arrows, name=name)


def dynkin_quiver(name):
    """A fixed acyclic orientation of a Dynkin diagram, e.g. ``A3``, ``D4``."""
    kind, num = name[0], name[1:]
    n = int(num)
    if kind == "A" and n >= 1:
        edges = [(f"v{i}", f"v{i + 1}") for i in range(1, n)]
        if n == 1:
            return Quiver(("v1",), (), name="A1")
    elif kind == "D" and n >= 4:
        edges = [(f"v{i}", f"v{i + 1}") for i in range(1, n - 1)]
        edges.append((f"v{n - 2}", f"v{n}"))
    elif kind == "E" and n in (6, 7, 8):
        edges = [(f"v{i}", f"v{i + 1}") for i in range(1, n - 1)]
        edges.append((f"v{n - 3}", f"v{n}"))
    else:
        raise InputError(f"unknown Dynkin diagram {name!r}")
    return _tree_quiver(edges, name)


def euclidean_quiver(name):
    """A fixed acyclic orientation of an extended Dynkin diagram.

    ``A~1`` is the Kronecker quiver; ``A~n`` is oriented with one source and
    one sink; trees are oriented away from the branch.
    """
    kind = name[0]
    n = int(name[2:])
    if kind == "A" and n >= 1:
        if n == 1:
            return kronecker_quiver(2)
        edges = [(f"v{i}", f"v{i + 1}") for i in range(1, n + 1)]
        edges.append(("v1", f"v{n + 1}"))
    elif kind == "D" and n >= 4:
        center = [f"c{i}" for i in range(1, n - 2)]
        edges = list(zip(center, center[1:]))
        edges += [("l1", center[0]), ("l2", center[0])]
        edges += [(center[-1], "r1"), (center[-1], "r2")]
    elif kind == "E" and n in (6, 7, 8):
        arms = _EXTENDED_STARS[f"E~{n}"]
        edges = []
        for i, length in enumerate(arms, start=1):
            prev = "c"
            for j in range(1, length + 1):
                node = f"w{i}{j}"
                edges.append((prev, node))
                prev = node
    else:
        raise InputError(f"unknown extended Dynkin diagram {name!r}")
    return _tree_quiver(edges, name)


# ---------------------------------------------------------------------------
# Text format


def parse_quiver(text):
    """Parse the plain text quiver format.

    Lines (``#`` starts a comment)::

        quiver
        vertices: 1 2 3
        arrow a: 1 -> 2

    Vertex declarations may be split over several ``vertices:`` lines.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != "quiver":
        raise InputError("quiver text must start with a 'quiver' line")
    vertices = []
    arrows = []
    for line in lines[1:]:
        if line.startswith("vertices:"):
            for v in line[len("vertices:"):].split():
                if v in vertices:
                    raise InputError(f"duplicate vertex id {v!r}")
                vertices.append(v)
        elif line.startswith("arrow "):
            body = line[len("arrow "):]
            if ":" not in body:
                raise InputError(f"malformed arrow line {line!r}")
            aid, rest = body.split(":", 1)
            aid = aid.strip()
            if "->" not in rest:
                raise InputError(f"malformed arrow line {line!r}")
            tail, head = (part.strip() for part in rest.split("->", 1))
            if not aid or not tail or not head:
                raise InputError(f"malformed arrow line {line!r}")
            arrows.append((aid, tail, head))
        else:
            raise InputError(f"unrecognized line {line!r}")
    return Quiver(tuple(vertices), tuple(arrows))


def format_quiver(quiver):
    """Inverse of :func:`parse_quiver` (canonical sorted order)."""
    out = ["quiver", "vertices: " + " ".join(quiver.order)]
    for aid, t, h in sorted(quiver.arrows):
        out.append(f"arrow {aid}: {t} -> {h}")
    return "\n".join(out) + "\n"
