#!/usr/bin/env python3
"""quiverinv benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload tame_rays --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  The seed
draws the inputs (see ``workloads.py``); the library sees only those.  A run
imports the library and builds its quivers several times (``setup_s`` is
the median), then repeats passes over the same queries until ``--seconds``
is used up, and at least three times.  Every pass starts with empty
library caches.  Every timing is scaled to a reference host speed (see
``REF_SECONDS``), because the speed of a shared host drifts.  The first
pass is checked query by query, and against the stored answer digest when
the seed is the default one; later passes must repeat its answers exactly.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
the tracing overhead, and the LR product-grid probe.  The last line of
stdout is the JSON result; the lines above it repeat the metrics for
reading and stamp the run with the interpreter, the LR backend, the core
count and the seed.
"""

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import CANON, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANSWERS = HERE / "answers.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 11
# The host's speed drifts by up to 40% within seconds, and the program with
# it.  A short fixed loop (_reference) is timed before the first query of a
# pass, between queries at least every REF_EVERY_S, and after the last one;
# every timing is scaled by REF_SECONDS over the mean of the two reference
# times around it, so the metrics read as seconds on a host where the loop
# takes REF_SECONDS (about its median on a shared 2-core x86-64 host at
# 2.1 GHz with CPython 3.11).
REF_SECONDS, REF_EVERY_S = 0.015, 0.25
# untraced runs: the median of three passes survives one pass that the
# host slowed down
MIN_PASSES = 3
MODULES = ("core", "errors", "linalg", "cones", "lr", "siweights", "generic",
           "stability", "canonical")

# The LR product grid of the former kernel microbenchmark: every unordered
# pair of partitions of size <= 9 with <= 5 rows, expanded in 5 rows.
GRID_SIZE, GRID_ROWS, GRID_CHECKSUM, GRID_REPEATS = 9, 5, 66197, 3


def _import_library():
    """Import quiverinv afresh from src/ and return its modules."""
    for name in [m for m in sys.modules if m == "quiverinv" or m.startswith("quiverinv.")]:
        del sys.modules[name]
    importlib.import_module("quiverinv")
    return SimpleNamespace(**{m: sys.modules[f"quiverinv.{m}"] for m in MODULES})


def _clear_caches(qv):
    for name in MODULES:
        clear = getattr(getattr(qv, name), "clear_caches", None)
        if clear is not None:
            clear()


def _canon(kind, answer):
    if isinstance(answer, Exception):
        return ("raised", type(answer).__name__)
    return CANON[kind](answer)


def _digest(answers):
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def _reference():
    """Time the reference loop: (start, end).

    It mixes integer arithmetic with tuple and dict work, as the library
    does; each part alone follows the host's speed less closely on some
    workload.  The collector is off, so the loop's time does not depend on
    how many objects the library holds."""
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {}
    for i in range(12_000):
        key = (i * 7919 % 4001, i % 13)
        table[key] = (table.get(key, 0), i**3)
    table.clear()
    end = time.perf_counter()
    gc.enable()
    return start, end


def _scale(before, after):
    """Host-speed factor for work done between two reference timings."""
    return 2 * REF_SECONDS / (before[1] - before[0] + after[1] - after[0])


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """One workload, one seed: set-up, passes, checks and metrics."""

    def __init__(self, workload, seed, small=False, expected_digest=None):
        self.workload = WORKLOADS[workload]
        self.plan = self.workload.plan(random.Random(seed), small)
        self.expected = expected_digest
        if expected_digest is None and not small and seed == DEFAULT_SEED:
            self.expected = json.loads(ANSWERS.read_text())["digests"].get(workload)
        self.attempted = 0
        self.failures = []
        self.first_answers = None
        self.digest = None
        self.raw_walls = []

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            before = _reference()
            start = time.perf_counter()
            qv = _import_library()
            self.workload.build(qv, self.plan)
            end = time.perf_counter()
            times.append((end - start) * _scale(before, _reference()))
        self.qv = qv
        return statistics.median(times)

    def one_pass(self, tracer=None):
        """Run every query once; return (wall seconds, record), both scaled
        to the reference host speed."""
        qv = self.qv
        _clear_caches(qv)
        objs = self.workload.build(qv, self.plan)
        raw, refs = [], []
        clock = time.perf_counter

        def call(kind, tag, fn, *args):
            if clock() - refs[-1][1] > REF_EVERY_S:
                refs.append(_reference())
            start = clock()
            try:
                answer = fn(*args)
            except Exception as exc:  # counted as a failed query
                answer = exc
                answer.trace = traceback.format_exc()
            raw.append((kind, tag, answer, clock() - start, len(refs) - 1))
            return None if isinstance(answer, Exception) else answer

        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            refs.append(_reference())
            self.workload.run(qv, objs, self.plan, call)
            refs.append(_reference())
        finally:
            if tracer is not None:
                tracer.restore()
        scales = [_scale(a, b) for a, b in zip(refs, refs[1:])]
        wall = sum((b[0] - a[1]) * f for a, b, f in zip(refs, refs[1:], scales))
        if tracer is None:
            self.raw_walls.append(sum(b[0] - a[1] for a, b in zip(refs, refs[1:])))
        record = [(kind, tag, answer, t * scales[k]) for kind, tag, answer, t, k in raw]
        self.attempted += len(record)
        self.objs = objs
        return wall, record

    def check(self, record):
        """Full check on the first pass, exact repetition afterwards."""
        answers = [_canon(kind, answer) for kind, _, answer, _ in record]
        for kind, tag, answer, _ in record:
            if isinstance(answer, Exception):
                self.failures.append(f"{kind}{tag} raised:\n{answer.trace}")
        if self.first_answers is None:
            self.first_answers = answers
            self.digest = _digest(answers)
            good = [r for r in record if not isinstance(r[2], Exception)]
            try:
                self.failures += self.workload.check(self.qv, self.objs, self.plan, good)
            except Exception:  # an answer of the wrong shape: none is trusted
                self.failures += [f"check raised:\n{traceback.format_exc()}"] * len(record)
            if self.expected is not None and self.digest != self.expected:
                # the digest cannot tell which answer changed: count them all
                self.failures += [
                    f"answer digest {self.digest} != stored {self.expected}"
                ] * len(record)
        elif answers != self.first_answers:
            self.failures += [
                f"pass answer {i} differs from the first pass"
                for i, (a, b) in enumerate(itertools.zip_longest(answers, self.first_answers))
                if a != b
            ]

    def grid_probe(self):
        """Products per second of lr.schur_product over the kernel grid."""
        lr = self.qv.lr
        parts = _partitions_up_to(GRID_SIZE, GRID_ROWS)
        pairs = list(itertools.combinations_with_replacement(parts, 2))
        rates = []
        for _ in range(GRID_REPEATS):
            _clear_caches(self.qv)
            checksum = 0
            start = time.perf_counter()
            for lam, mu in pairs:
                checksum += sum(lr.schur_product(lam, mu, GRID_ROWS).values())
            rates.append(len(pairs) / (time.perf_counter() - start))
            self.attempted += 1
            if checksum != GRID_CHECKSUM:
                self.failures.append(f"LR grid checksum {checksum} != {GRID_CHECKSUM}")
        return statistics.median(rates)


def _partitions_up_to(size, rows):
    def rec(remaining, max_part, rows_left):
        yield ()
        if remaining and rows_left:
            for first in range(min(remaining, max_part), 0, -1):
                for rest in rec(remaining - first, first, rows_left - 1):
                    yield (first,) + rest

    seen = set()
    for total in range(size + 1):
        seen.update(rec(total, total, rows))
    return sorted(seen)


def _layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    out = {}
    for key, (calls, self_s, yielded) in tracer.stats.items():
        out[f"{key}_calls"] = calls
        out[f"{key}_self_s"] = self_s
        out[f"{key}_yielded"] = yielded
    misses = {
        name: size - tracer.sizes_before[name] for name, size in tracer.sizes_after.items()
    }

    def hit_ratio(key, cache):
        calls = tracer.stats[key][0]
        return 1.0 - misses[cache] / calls if calls else 0.0

    out["generic.ext_misses"] = misses["generic.ext_cache"]
    out["lr.product_cache_hit_ratio"] = hit_ratio("lr.schur_product", "lr.product_cache")
    out["siweights.vertex_cache_hit_ratio"] = hit_ratio(
        "siweights.vertex_mult", "siweights.vertex_cache"
    )
    for name, size in tracer.sizes_after.items():
        out[f"{name}_entries"] = size
    return out


def measure(workload, seed, seconds, trace, small=False, expected_digest=None):
    """One benchmark run: (result with all metrics and failures, report)."""
    run = Run(workload, seed, small, expected_digest)
    setup_s = run.setup()
    walls, traced_walls, p50s, p90s, layer_runs, elapsed = [], [], [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall, record = run.one_pass()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.check(record)
        walls.append(wall)
        latencies = [r[3] for r in record]
        p50s.append(_quantile(latencies, 0.5))
        p90s.append(_quantile(latencies, 0.9))
        if trace:
            tracer = tracing.Tracer()
            wall, record = run.one_pass(tracer)
            layer_runs.append(_layer_metrics(tracer))
            run.check(record)
            traced_walls.append(wall)
        now = time.perf_counter()
        elapsed.append(now - pass_start)
        enough = trace or len(walls) >= MIN_PASSES
        if enough and now - start + statistics.median(elapsed) > seconds:
            break

    if trace:
        grid_rate = run.grid_probe()
    failed = min(len(run.failures), run.attempted)
    if trace:
        metrics = {key: statistics.median(m[key] for m in layer_runs) for key in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics["lr.grid_products_per_s"] = grid_rate
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "query_p50_ms": 1000 * statistics.median(p50s),
            "query_p90_ms": 1000 * statistics.median(p90s),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
            "success_rate": 1.0 - failed / run.attempted,
        }
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": "small" if small else "full",
        "python": platform.python_version(),
        "lr_backend": getattr(run.qv.lr, "BACKEND", "python"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    report = [
        "stamp " + json.dumps(stamp),
        f"passes {len(walls)}, queries attempted {run.attempted}, failed {failed}, "
        f"error_rate {failed / run.attempted:.6f}, answer digest {run.digest}",
        "pass walls " + " ".join(f"{w:.4f}" for w in walls),
        "pass walls unscaled " + " ".join(f"{w:.4f}" for w in run.raw_walls),
    ]
    if trace:
        report.append("traced pass walls " + " ".join(f"{w:.4f}" for w in traced_walls))
    else:
        report.append(f"latency samples {len(latencies)} per pass, {run.attempted} in all")
    return (
        {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": metrics,
            "failures": run.failures,
        },
        report,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small inputs, for the harness self-test")
    args = ap.parse_args(argv)
    if not (SRC / "quiverinv" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = measure(
        args.workload, args.seed, args.seconds, args.trace, args.size == "small"
    )
    for line in list(dict.fromkeys(result.pop("failures")))[:5]:
        print("FAILED:", line, file=sys.stderr)
    for line in report:
        print(line)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
