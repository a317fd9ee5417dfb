"""Command-line front end.

One command per library operation, one JSON envelope per run:
``{"command": ..., "input": ..., "result": ...}`` on stdout, compact unless
--json-pretty.  Vectors are read as comma-separated integers in the declared
vertex order of the input file and reported as vertex-keyed mappings, so the
output bytes do not depend on declaration order.  Exit codes: 0 success,
2 input, 3 precondition, 4 budget, 5 invariant violation.
"""

import argparse
import json
import os
import sys

from . import canonical as canonical_mod
from . import siweights, stability
from .core import EulerMatrix, classify_path_algebra, null_root, parse_quiver
from .errors import InputError, QuiverInvError
from .generic import (
    BOX_LIMIT,
    canonical_decomposition,
    is_schur_root,
    root_class,
)


class _Source:
    """Parsed -f payload: a plain quiver or a canonical algebra."""

    def __init__(self, quiver=None, algebra=None):
        self.algebra = algebra
        if algebra is not None:
            self.kind = "canonical"
            self.quiver = algebra.presentation.quiver
            self.euler = algebra.euler
            self.declared = algebra.vertex_ids
        else:
            self.kind = "quiver"
            self.quiver = quiver
            self.euler = EulerMatrix(quiver)
            self.declared = quiver.vertices

    def describe(self):
        if self.kind == "canonical":
            return {
                "kind": "canonical",
                "spec": canonical_mod.format_canonical(self.algebra),
            }
        return {
            "kind": "quiver",
            "vertices": sorted(self.quiver.vertices),
            "arrows": sorted([a, t, h] for a, t, h in self.quiver.arrows),
        }


def _load_source(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if lines and lines[0].split()[0] == "canonical":
        return _Source(algebra=canonical_mod.parse_canonical(" ".join(lines)))
    return _Source(quiver=parse_quiver(text))


def _parse_ints(text, flag):
    try:
        return [int(p.strip()) for p in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} entries must be integers") from None


def _parse_vector(text, source, flag, nonnegative):
    vals = _parse_ints(text, flag)
    if len(vals) != len(source.declared):
        raise InputError(
            f"{flag} needs {len(source.declared)} entries in declared "
            f"vertex order, got {len(vals)}"
        )
    if nonnegative and any(v < 0 for v in vals):
        raise InputError(f"{flag} entries must be non-negative")
    return dict(zip(source.declared, vals))


def _parse_factors(texts, source, flag):
    factors = []
    for item in texts:
        vec, sep, mult = item.partition(":")
        count = 1
        if sep:
            try:
                count = int(mult)
            except ValueError:
                raise InputError(
                    f"{flag} multiplicity must be an integer: {item!r}"
                ) from None
        factors.append((_parse_vector(vec, source, flag, True), count))
    return factors


def _vec_json(vec, source):
    t = source.euler.tup(vec)
    return {v: t[i] for i, v in enumerate(source.euler.order)}


def _pretty_vec(vec, source):
    t = source.euler.tup(vec)
    idx = source.euler.index
    return "(" + ",".join(str(t[idx[v]]) for v in source.declared) + ")"


def _summands_json(summands, source):
    # largest root first, the usual way a decomposition is written out
    shown = sorted(summands, reverse=True)
    rows = [
        {"root": _vec_json(r, source), "multiplicity": m, "class": c}
        for r, m, c in shown
    ]
    pretty = "+".join(_pretty_vec(r, source) for r, m, _ in shown for _ in range(m))
    return rows, pretty


def _need_kind(source, kind, command):
    if source.kind != kind:
        raise InputError(f"{command} requires a {kind} input file")


def _cone_json(cone, source):
    vecs = lambda rows: [_vec_json(r, source) for r in rows]
    return {
        "dim": cone.dim,
        "equalities": vecs(cone.equalities),
        "inequalities": vecs(cone.inequalities),
        "lineality": vecs(cone.lineality),
        "rays": vecs(cone.rays),
        "facets": [
            {
                "defining": vecs(f.defining),
                "rays": vecs(f.rays),
                "interior_point": _vec_json(f.interior_point, source),
            }
            for f in cone.facets
        ],
    }


def _run_command(args):
    """Returns (input echo, result dict, exit code)."""
    source = _load_source(args.file) if args.file else None
    echo = {}
    if source is not None:
        echo["source"] = source.describe()
    if args.budget is not None:
        echo["budget"] = args.budget

    def budget(default):
        """--budget when given, else the library default of the command."""
        return default if args.budget is None else args.budget

    def dim(flag="d", attr=None):
        text = getattr(args, attr or flag)
        if text is None:
            raise InputError(f"{args.command} requires -{flag}")
        vec = _parse_vector(text, source, f"-{flag}", nonnegative=True)
        echo[flag] = vec
        return vec

    def weight():
        if args.t is None:
            raise InputError(f"{args.command} requires -t")
        vec = _parse_vector(args.t, source, "-t", nonnegative=False)
        echo["t"] = vec
        return vec

    def length():
        if args.n is None:
            raise InputError(f"{args.command} requires -n")
        echo["n"] = args.n
        return args.n

    cmd = args.command
    if cmd == "classify":
        _need_kind(source, "quiver", cmd)
        verdict = classify_path_algebra(source.quiver)
        return echo, {"type": verdict.type, "diagram": verdict.diagram}, 0

    if cmd == "euler":
        d, e = dim("d"), dim("e")
        return echo, {"value": source.euler.euler(d, e)}, 0

    if cmd == "delta":
        _need_kind(source, "quiver", cmd)
        delta = null_root(source.quiver)
        return (
            echo,
            {"delta": _vec_json(delta, source), "pretty": _pretty_vec(delta, source)},
            0,
        )

    if cmd == "candecomp":
        _need_kind(source, "quiver", cmd)
        decomp = canonical_decomposition(
            source.euler, dim(), budget(BOX_LIMIT)
        )
        rows, pretty = _summands_json(decomp.summands, source)
        return echo, {"summands": rows, "pretty": pretty}, 0

    if cmd == "schur":
        _need_kind(source, "quiver", cmd)
        d = dim()
        return (
            echo,
            {
                "schur": is_schur_root(source.euler, d, budget(BOX_LIMIT)),
                "class": root_class(source.euler, d),
            },
            0,
        )

    if cmd == "stable":
        _need_kind(source, "quiver", cmd)
        d, th, limit = dim(), weight(), budget(BOX_LIMIT)
        return (
            echo,
            {
                "semistable": stability.is_semistable_generic(
                    source.euler, d, th, limit
                ),
                "stable": stability.is_stable_generic(source.euler, d, th, limit),
            },
            0,
        )

    if cmd == "stable-decomp":
        _need_kind(source, "quiver", cmd)
        dec = stability.theta_stable_decomposition(
            source.euler, dim(), weight(), budget(BOX_LIMIT)
        )
        rows, pretty = _summands_json(dec.factors, source)
        return echo, {"factors": rows, "pretty": pretty}, 0

    if cmd == "eff-cone":
        _need_kind(source, "quiver", cmd)
        cone = stability.effective_cone(source.euler, dim(), budget(BOX_LIMIT))
        return echo, _cone_json(cone, source), 0

    if cmd == "local-quiver":
        if not args.factor:
            raise InputError("local-quiver requires at least one --factor")
        factors = _parse_factors(args.factor, source, "--factor")
        echo["factors"] = [
            {"dimension": _vec_json(v, source), "multiplicity": m}
            for v, m in factors
        ]
        setup = stability.local_quiver(source.euler, factors)
        return (
            echo,
            {
                "vertices": list(setup.quiver.vertices),
                "arrows": [[a, t, h] for a, t, h in setup.quiver.arrows],
                "dim": setup.dim,
            },
            0,
        )

    if cmd == "si-dim":
        _need_kind(source, "quiver", cmd)
        value = siweights.si_dim(
            source.euler, dim(), weight(), budget(siweights.DEFAULT_BUDGET)
        )
        return echo, {"dim": value}, 0

    if cmd == "si-table":
        _need_kind(source, "quiver", cmd)
        table = siweights.si_table(
            source.euler,
            dim(),
            weight(),
            length(),
            budget(siweights.DEFAULT_BUDGET),
        )
        check = siweights.log_concavity_check(table.dims)
        return (
            echo,
            {
                "base_weight": _vec_json(table.base_weight, source),
                "dims": list(table.dims),
                "logconcave": check.status,
                "violated_at": check.index,
            },
            0,
        )

    if cmd == "circ":
        _need_kind(source, "quiver", cmd)
        value = siweights.circ(
            source.euler, dim("d"), dim("e"), budget(siweights.DEFAULT_BUDGET)
        )
        return echo, {"value": value}, 0

    if cmd == "logconcave":
        if args.values is None:
            raise InputError("logconcave requires --values")
        values = _parse_ints(args.values, "--values")
        echo["values"] = values
        check = siweights.log_concavity_check(values)
        return echo, {"status": check.status, "index": check.index}, 0

    if cmd == "wild-search":
        _need_kind(source, "quiver", cmd)
        hit = siweights.wild_violation_search(
            source.euler, budget=budget(siweights.DEFAULT_BUDGET)
        )
        vec = lambda v: None if v is None else _vec_json(v, source)
        return (
            echo,
            {
                "status": hit.status,
                "dprime": vec(hit.dprime),
                "d": vec(hit.d),
                "theta": vec(hit.theta),
                "n": hit.n,
                "si_theta": hit.si_theta,
                "si_2theta": hit.si_2theta,
                "frontier": [
                    {"dprime": vec(v), "note": note} for v, note in hit.frontier
                ],
            },
            0,
        )

    if cmd == "moduli":
        _need_kind(source, "quiver", cmd)
        value = stability.moduli_dimension(
            source.euler, dim(), weight(), budget(BOX_LIMIT)
        )
        return echo, {"dimension": value}, 0

    if cmd == "pspace":
        _need_kind(source, "quiver", cmd)
        verdict = stability.projective_space_verdict(
            source.euler,
            dim(),
            weight(),
            length(),
            budget(siweights.DEFAULT_BUDGET),
        )
        return (
            echo,
            {
                "status": verdict.status,
                "m": verdict.m,
                "q": None if verdict.q is None else str(verdict.q),
            },
            0,
        )

    if cmd == "rational-invariants":
        d = dim()
        if source.kind == "canonical":
            decomposition = None
            if args.factor:
                decomposition = _parse_factors(args.factor, source, "--factor")
                echo["factors"] = [
                    {"dimension": _vec_json(v, source), "multiplicity": m}
                    for v, m in decomposition
                ]
            profile = canonical_mod.rational_invariants_canonical(
                source.algebra, d, decomposition, budget(canonical_mod.SEARCH_BUDGET)
            )
        else:
            profile = stability.rational_invariants_profile(
                source.euler, d, budget(BOX_LIMIT)
            )
        return (
            echo,
            {
                "n_isotropic": profile.n_isotropic,
                "field": profile.field_description,
            },
            0,
        )

    if cmd == "canonical-info":
        _need_kind(source, "canonical", cmd)
        algebra = source.algebra
        result = {
            "weights": list(algebra.weights_m),
            "lambdas": [str(x) for x in algebra.lambdas],
            "m_lcm": algebra.m_lcm,
            "genus": str(canonical_mod.virtual_genus(algebra)),
            "class": canonical_mod.classify_canonical(algebra),
            "vertices": list(algebra.vertex_ids),
            "arrow_count": len(algebra.presentation.quiver.arrows),
            "relations": {
                f"{i}->{j}": r
                for (i, j), r in algebra.presentation.relation_counts.items()
            },
        }
        if args.d is not None:
            d = dim()
            rank, degree = canonical_mod.rank_degree(algebra, d)
            result["rank"] = rank
            result["degree"] = degree
        return echo, result, 0

    if cmd == "rr-check":
        _need_kind(source, "canonical", cmd)
        check = canonical_mod.riemann_roch_check(
            source.algebra, dim("d"), dim("e"), budget(canonical_mod.SEARCH_BUDGET)
        )
        result = {
            "status": check.status,
            "lhs": str(check.lhs),
            "rhs": str(check.rhs),
        }
        return echo, result, 5 if check.status == "violated" else 0

    if cmd == "kronecker-pair":
        holder = source.algebra if source.kind == "canonical" else source.euler
        pair = canonical_mod.kronecker_pair(
            holder, dim(), budget(canonical_mod.SEARCH_BUDGET)
        )
        return (
            echo,
            {"d1": _vec_json(pair.d1, source), "d2": _vec_json(pair.d2, source)},
            0,
        )

    if cmd == "iso-hull":
        _need_kind(source, "canonical", cmd)
        hull = canonical_mod.isotropic_hull(source.algebra, dim())
        return (
            echo,
            {"hull": _vec_json(hull, source), "pretty": _pretty_vec(hull, source)},
            0,
        )

    raise InputError(f"unknown command {cmd!r}")


COMMANDS = (
    "classify",
    "euler",
    "delta",
    "candecomp",
    "schur",
    "stable",
    "stable-decomp",
    "eff-cone",
    "local-quiver",
    "si-dim",
    "si-table",
    "circ",
    "logconcave",
    "wild-search",
    "moduli",
    "pspace",
    "rational-invariants",
    "canonical-info",
    "rr-check",
    "kronecker-pair",
    "iso-hull",
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverinv",
        description="Exact quiver invariant theory: forms, roots, stability, "
        "semi-invariants, canonical algebras.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("-f", dest="file", help="quiver or canonical spec file")
    parser.add_argument("-d", help="dimension vector, declared vertex order")
    parser.add_argument("-e", help="second dimension vector")
    parser.add_argument("-t", help="weight, declared vertex order")
    parser.add_argument("-n", type=int, help="table length / sample count")
    parser.add_argument("--values", help="integer list for logconcave")
    parser.add_argument(
        "--factor",
        action="append",
        help="dimension vector with optional :multiplicity; repeatable",
    )
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--json-pretty", action="store_true")
    parser.add_argument(
        "--fixture",
        help="golden file: record on first run, compare byte-for-byte after",
    )
    return parser


def _emit(doc, pretty):
    if pretty:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    text += "\n"
    sys.stdout.write(text)
    return text.encode("utf-8")


def _handle_fixture(path, payload):
    if os.path.exists(path):
        try:
            with open(path, "rb") as handle:
                recorded = handle.read()
        except OSError as exc:
            sys.stderr.write(f"fixture read failed: {exc}\n")
            return 2
        if recorded != payload:
            sys.stderr.write(f"fixture mismatch: {path}\n")
            return 5
        return 0
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        sys.stderr.write(f"fixture write failed: {exc}\n")
        return 2
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        echo, result, code = _run_command(args)
    except QuiverInvError as exc:
        _emit(
            {
                "command": args.command,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            },
            args.json_pretty,
        )
        return exc.exit_code
    payload = _emit(
        {"command": args.command, "input": echo, "result": result},
        args.json_pretty,
    )
    if args.fixture:
        fixture_code = _handle_fixture(args.fixture, payload)
        if fixture_code:
            return fixture_code
    return code


if __name__ == "__main__":
    sys.exit(main())
