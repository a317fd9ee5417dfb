"""Self-check of the benchmark harness.

    python3 -m pytest perfbench

Small inputs only: each test takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--size", "small",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert '"lr_backend"' in proc.stdout and '"nproc"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_digest_counts_as_errors(workload):
    result, _ = run.measure(
        workload, 5, 0.1, 0, small=True, expected_digest="0" * 64
    )
    assert result["failed"] > 0
    assert result["metrics"]["success_rate"] < 1.0


def _corrupt_tame(qv):
    orig = qv.siweights.si_table

    def si_table(*args, **kwargs):
        table = orig(*args, **kwargs)
        return replace(table, dims=(2,) + table.dims[1:])

    qv.siweights.si_table = si_table


def _corrupt_wild(qv):
    orig = qv.siweights.si_dim

    def si_dim(euler, d, theta, budget=qv.siweights.DEFAULT_BUDGET, pivot=True):
        # the reciprocity check evaluates with pivot=False and stays exact
        return orig(euler, d, theta, budget, pivot) + (1 if pivot else 0)

    qv.siweights.si_dim = si_dim


def _corrupt_schofield(qv):
    orig = qv.stability.theta_stable_decomposition

    def decomp(*args, **kwargs):
        result = orig(*args, **kwargs)
        factors = tuple((r, 2 * m, c) for r, m, c in result.factors)
        return replace(result, factors=factors)

    qv.stability.theta_stable_decomposition = decomp


def _corrupt_genus(qv):
    orig = qv.canonical.virtual_genus
    qv.canonical.virtual_genus = lambda algebra: orig(algebra) + 1


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("tame_rays", _corrupt_tame),
        ("wild_rays", _corrupt_wild),
        ("schofield_large", _corrupt_schofield),
        ("genus_scan", _corrupt_genus),
    ],
)
def test_wrong_answers_fail_the_checks(workload, corrupt):
    bench = run.Run(workload, 5, small=True)
    bench.setup()
    corrupt(bench.qv)
    _, record = bench.one_pass()
    bench.check(record)
    assert bench.failures


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tame_rays", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
