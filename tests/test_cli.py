"""Command-line envelope contract: JSON shape, exit codes, fixtures."""

import json

import pytest

from quiverinv import canonical, cli, stability
from quiverinv.errors import InvariantError

K2 = "quiver\nvertices: v1 v2\narrow a1: v1 -> v2\narrow a2: v1 -> v2\n"
K3 = (
    "quiver\nvertices: v1 v2\narrow a1: v1 -> v2\narrow a2: v1 -> v2\n"
    "arrow a3: v1 -> v2\n"
)
K2_REVERSED = "quiver\nvertices: v2 v1\narrow a1: v1 -> v2\narrow a2: v1 -> v2\n"
CANONICAL = "canonical weights=2,2,2,2 lambda=1,2\n"


@pytest.fixture
def k2(tmp_path):
    path = tmp_path / "k2.quiver"
    path.write_text(K2)
    return str(path)


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.quiver"
    path.write_text(K3)
    return str(path)


@pytest.fixture
def tubular(tmp_path):
    path = tmp_path / "t4.alg"
    path.write_text(CANONICAL)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_envelope_shape(capsys, k2):
    code, out, err = run(capsys, "euler", "-f", k2, "-d", "1,1", "-e", "1,1")
    assert code == 0
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert set(doc) == {"command", "input", "result"}
    assert doc["command"] == "euler"
    assert doc["result"]["value"] == 0
    assert doc["input"]["d"] == {"v1": 1, "v2": 1}


def test_deterministic_output(capsys, k2):
    _, first, _ = run(capsys, "candecomp", "-f", k2, "-d", "3,1")
    _, second, _ = run(capsys, "candecomp", "-f", k2, "-d", "3,1")
    assert first == second


def test_pretty_flag(capsys, k2):
    _, compact, _ = run(capsys, "classify", "-f", k2)
    _, pretty, _ = run(capsys, "classify", "-f", k2, "--json-pretty")
    assert compact.count("\n") == 1
    assert pretty.count("\n") > 1
    assert json.loads(compact) == json.loads(pretty)


def test_candecomp_pretty_string(capsys, k2):
    code, out, _ = run(capsys, "candecomp", "-f", k2, "-d", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pretty"] == "(2,1)+(1,0)"
    roots = [s["root"] for s in doc["result"]["summands"]]
    assert {"v1": 2, "v2": 1} in roots and {"v1": 1, "v2": 0} in roots


def test_declared_order_controls_pretty_only(capsys, tmp_path):
    a = tmp_path / "a.quiver"
    b = tmp_path / "b.quiver"
    a.write_text(K2)
    b.write_text(K2_REVERSED)
    _, out_a, _ = run(capsys, "candecomp", "-f", str(a), "-d", "3,1")
    # the second file declares v2 first, so the same vector reads 1,3
    _, out_b, _ = run(capsys, "candecomp", "-f", str(b), "-d", "1,3")
    doc_a = json.loads(out_a)
    doc_b = json.loads(out_b)
    assert doc_a["result"]["summands"] == doc_b["result"]["summands"]
    assert doc_a["result"]["pretty"] == "(2,1)+(1,0)"
    assert doc_b["result"]["pretty"] == "(1,2)+(0,1)"


def test_si_table(capsys, k2):
    code, out, _ = run(
        capsys, "si-table", "-f", k2, "-d", "1,1", "-t", "1,-1", "-n", "6"
    )
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 2, 3, 4, 5, 6, 7]


def test_logconcave_needs_no_file(capsys):
    code, out, _ = run(capsys, "logconcave", "--values", "1,3,2")
    assert code == 0
    assert json.loads(out)["result"]["status"] == "ok"
    code, out, _ = run(capsys, "logconcave", "--values", "1,1,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "violated"
    assert doc["result"]["index"] == 1


def test_input_error_exit_2(capsys, k2):
    code, out, _ = run(capsys, "euler", "-f", k2, "-d", "1,1,1", "-e", "1,1")
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"command", "error"}
    assert doc["error"]["type"] == "InputError"
    assert doc["error"]["message"]


def test_missing_flag_exit_2(capsys, k2):
    code, out, _ = run(capsys, "euler", "-f", k2, "-d", "1,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_precondition_error_exit_3(capsys, k2):
    code, out, _ = run(capsys, "schur", "-f", k2, "-d", "0,0")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PreconditionError"
    # hom between the factors: the caller's claim that they are distinct
    # stables is false (this exited 5, as a broken invariant)
    code, out, _ = run(
        capsys, "local-quiver", "-f", k2, "--factor", "1,1:1", "--factor", "1,0:1"
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "text, argv",
    [
        # no vertex: used to exit 5 through the Tits form cross-check
        ("quiver\n", ("classify",)),
        ("quiver\n", ("delta",)),
        ("quiver\n", ("wild-search",)),
        # an oriented cycle a <-> b: used to exit 5, no pair despite q = 0
        (
            "quiver\nvertices: a b\narrow x: a -> b\narrow y: b -> a\n",
            ("kronecker-pair", "-d", "1,1"),
        ),
    ],
)
def test_empty_or_cyclic_quiver_exits_3(capsys, tmp_path, text, argv):
    path = tmp_path / "q.quiver"
    path.write_text(text)
    code, out, _ = run(capsys, argv[0], "-f", str(path), *argv[1:])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_budget_error_exit_4(capsys, k2):
    code, out, _ = run(
        capsys, "si-dim", "-f", k2, "-d", "1,1", "-t", "1,-1", "--budget", "0"
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "BudgetError"


def test_negative_budget_is_input_error_exit_2(capsys, k2):
    code, out, _ = run(
        capsys, "si-dim", "-f", k2, "-d", "1,1", "-t", "1,-1", "--budget", "-1"
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"
    # the Kronecker search box follows the same rule
    code, out, _ = run(
        capsys, "kronecker-pair", "-f", k2, "-d", "1,1", "--budget", "-1"
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


# commands that run the Schofield recursion on K2, each with the work bound
# of its d, prod((d_i + 1)(d_i + 2) / 2) subdimension box points
RECURSION_COMMANDS = [
    (("candecomp", "-d", "3,1"), 30),
    (("schur", "-d", "3,1"), 30),
    (("stable", "-d", "1,1", "-t", "1,-1"), 9),
    (("stable-decomp", "-d", "1,1", "-t", "1,-1"), 9),
    (("eff-cone", "-d", "3,1"), 30),
    (("moduli", "-d", "1,1", "-t", "1,-1"), 9),
    (("rational-invariants", "-d", "3,1"), 30),
]


@pytest.mark.parametrize(
    "argv, box", RECURSION_COMMANDS, ids=[a[0] for a, _ in RECURSION_COMMANDS]
)
def test_budget_bounds_recursion_commands(capsys, k2, argv, box):
    command, *rest = argv
    code, default, _ = run(capsys, command, "-f", k2, *rest)
    assert code == 0 and "budget" not in json.loads(default)["input"]
    code, out, _ = run(capsys, command, "-f", k2, *rest, "--budget", str(box - 1))
    assert code == 4
    assert json.loads(out)["error"]["type"] == "BudgetError"
    code, out, _ = run(capsys, command, "-f", k2, *rest, "--budget", str(box))
    assert code == 0
    assert json.loads(out)["result"] == json.loads(default)["result"]


def test_budget_bounds_canonical_rational_invariants(capsys, tubular):
    # the radical generator h of the tubular algebra is isotropic, and its
    # Kronecker pair is searched in the box of h, 2^6 candidates
    argv = ("rational-invariants", "-f", tubular, "-d", "1,1,1,1,1,1")
    code, default, _ = run(capsys, *argv)
    assert code == 0 and json.loads(default)["result"]["n_isotropic"] == 1
    code, out, _ = run(capsys, *argv, "--budget", "63")
    assert code == 4
    assert json.loads(out)["error"]["type"] == "BudgetError"
    code, out, _ = run(capsys, *argv, "--budget", "64")
    assert code == 0
    assert json.loads(out)["result"] == json.loads(default)["result"]
    # a real root needs no search, but its bound is still checked
    code, out, _ = run(
        capsys,
        "rational-invariants",
        "-f",
        tubular,
        "-d",
        "1,0,0,0,0,0",
        "--budget",
        "-1",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_kronecker_pair_defaults_to_the_library_search_budget(
    capsys, k2, monkeypatch
):
    seen = []
    original = canonical.kronecker_pair

    def spy(source, d, budget=canonical.SEARCH_BUDGET):
        seen.append(budget)
        return original(source, d, budget)

    monkeypatch.setattr(canonical, "kronecker_pair", spy)
    code, _, _ = run(capsys, "kronecker-pair", "-f", k2, "-d", "1,1")
    assert code == 0
    code, _, _ = run(
        capsys, "kronecker-pair", "-f", k2, "-d", "1,1", "--budget", "3"
    )
    assert code == 4
    assert seen == [canonical.SEARCH_BUDGET, 3]


def test_invariant_error_exit_5(capsys, k2, monkeypatch):
    # invariant checks are bug sentinels that no input should reach, so
    # plant one that fires
    def broken(*args):
        raise InvariantError("planted")

    monkeypatch.setattr(stability, "local_quiver", broken)
    code, out, _ = run(capsys, "local-quiver", "-f", k2, "--factor", "1,1:1")
    assert code == 5
    assert json.loads(out)["error"]["type"] == "InvariantError"


def test_unknown_command_exits_argparse(capsys, k2):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command", "-f", k2])
    assert info.value.code == 2


def test_seed_flag_is_a_usage_error(capsys, k2):
    # no command draws random numbers, so there is no seed to pass
    with pytest.raises(SystemExit) as info:
        cli.main(["candecomp", "-f", k2, "-d", "3,1", "--seed", "5"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_wrong_source_kind(capsys, k2, tubular):
    code, out, _ = run(capsys, "canonical-info", "-f", k2)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"
    code, out, _ = run(capsys, "stable", "-f", tubular, "-d", "1,1,1,1,1,1", "-t", "0,0,0,0,0,0")
    assert code == 2


def test_canonical_info(capsys, tubular):
    code, out, _ = run(capsys, "canonical-info", "-f", tubular)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "tubular"
    assert doc["result"]["genus"] == "1"


def test_fixture_record_replay_mismatch(capsys, k2, tmp_path):
    fixture = tmp_path / "golden.json"
    args = ("candecomp", "-f", k2, "-d", "3,1", "--fixture", str(fixture))
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    assert fixture.read_bytes() == out.encode()
    assert "(2,1)+(1,0)" in fixture.read_text()
    code, out2, err = run(capsys, *args)
    assert code == 0 and err == "" and out2 == out
    fixture.write_bytes(fixture.read_bytes() + b" ")
    code, _, err = run(capsys, *args)
    assert code == 5
    assert "fixture mismatch" in err


def test_wild_search_cli(capsys, k3, tmp_path):
    fixture = tmp_path / "wild.json"
    code, out, err = run(
        capsys, "wild-search", "-f", k3, "--fixture", str(fixture)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "found"
    assert doc["result"]["dprime"] == {"v1": 1, "v2": 1}
    assert doc["result"]["n"] == 7
    assert doc["result"]["si_theta"] == 253
    assert doc["result"]["si_2theta"] == 65780
    code, out2, err = run(
        capsys, "wild-search", "-f", k3, "--fixture", str(fixture)
    )
    assert code == 0 and out2 == out


def test_rr_check_cli(capsys, tubular):
    code, out, _ = run(
        capsys,
        "rr-check",
        "-f",
        tubular,
        "-d",
        "1,1,1,1,1,1",
        "-e",
        "1,0,0,0,0,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "ok"
    assert doc["result"]["lhs"] == "-2"
    assert doc["result"]["rhs"] == "-2"


def test_rr_check_cli_honours_budget(capsys, tmp_path):
    # weights (53, 47, 43) have period 107,113, so 107,112 Coxeter steps
    path = tmp_path / "wild.alg"
    path.write_text("canonical weights=53,47,43 lambda=1\n")
    ones = ",".join(["1"] * 142)
    code, out, _ = run(
        capsys,
        "rr-check",
        "-f",
        str(path),
        "-d",
        ones,
        "-e",
        ones,
        "--budget",
        "100000",
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "BudgetError"


def test_cli_refuses_negative_classes_the_library_accepts(
    capsys, k2, tmp_path
):
    # euler and rr-check take K0 classes, which the library accepts with
    # negative entries, yet the CLI's own vector check refuses them
    path = tmp_path / "t3.alg"
    path.write_text("canonical weights=2,2,2 lambda=1\n")
    d, e = (-1, 0, 0, 0, 0), (1, 1, 1, 1, 1)
    algebra = canonical.build_canonical((2, 2, 2), (1,))
    assert canonical.riemann_roch_check(algebra, d, e).status == "ok"
    for argv in (
        ("rr-check", "-f", str(path), "-d=-1,0,0,0,0", "-e", "1,1,1,1,1"),
        ("euler", "-f", k2, "-d=-1,2", "-e", "1,1"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "-d entries must be non-negative",
            "type": "InputError",
        }


def test_iso_hull_cli(capsys, tubular):
    code, out, _ = run(capsys, "iso-hull", "-f", tubular, "-d", "1,0,0,0,0,0")
    assert code == 0
    assert json.loads(out)["result"]["pretty"] == "(0,1,1,1,1,2)"


@pytest.mark.parametrize("seed", ["1,1,0,0,0,0", "2,0,2,2,0,2"])
def test_iso_hull_without_a_positive_hull_exits_3(capsys, tubular, seed):
    # these seeds used to exit 5 with an InvariantError
    code, out, _ = run(capsys, "iso-hull", "-f", tubular, "-d", seed)
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionError"
    assert "no positive hull" in error["message"]


def test_entry_point_matches_package():
    import pathlib

    text = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'quiverinv = "quiverinv.cli:main"' in text.read_text()
