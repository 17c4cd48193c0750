"""Benchmark of the qrgames package: three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Workloads (one client, one process, ops back to back; see workloads.py):

- ``analyze-mw10``: ``bimatrix --format csv``, ``nash`` and ``dominance``
  through ``qrgames.cli.main`` on one dense random 10-qubit config.  Its
  time is mostly the 1024x1024 XOR gather of ``rep_component_tables``.
- ``verify-mw10``: ``compare-protocols --protocol mw10 --samples 1``:
  1024 ``play_sequential`` calls checked against the batch table.
- ``small-games``: library calls on 2-, 4- and 10-qubit inputs, where
  the fixed cost of each call dominates.

This script only uses the standard library.  It starts the measured run
and the set-up probes as child processes (``worker.py``) with BLAS held
to one thread, and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Shared 2-vCPU hosts drift: the same op runs up to about 1.8x slower
for stretches of a few seconds to minutes, on each vCPU on its own.
Each run is therefore cut into blocks of consecutive ops, pairs of
blocks take turns on the vCPUs, and the latency metrics come from the
block with the lowest median: slower blocks measure the neighbours, not
the program.  All block medians and the whole-run median are printed as
diagnostics, so the drift stays visible.

End-to-end metrics (``--trace 0``):

- ``ops_per_s``: verified ops in the measured block over its busy time
  (the oracle runs between ops and is not timed);
- ``latency_p50_ms``: median op latency in the measured block;
- ``setup_s``: fresh interpreter to the end of the imports and the first
  cold op; the lower median of two blocks of fresh processes, one run
  before and one after the measured run;
- ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the workload.

The tail latency (the highest percentile of the whole run with at least
10 ops beyond it) and the share of failed ops are printed with the
diagnostics but are not metrics of the result: on such a host the tail
measures the drift, and the failed share is carried by ``attempted`` and
``failed``.

Per-layer metrics (``--trace 1``) come from a separate run in which
blocks alternate untraced and traced; see tracing.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYER_FUNCTIONS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Ops per block, a whole number of passes over each 4-item input pool:
# at most about 2 s of ops, to fit inside the host's fast stretches,
# which can last only seconds.  A verify-mw10 op takes 0.3-0.5 s but
# already averages 1024 sequential plays, so one pass is enough.
BLOCK_OPS = {"analyze-mw10": 20, "verify-mw10": 4, "small-games": 20}
WORKLOADS = tuple(BLOCK_OPS)
# Fresh interpreters timed in a block before the measured run and in a
# block after it, so that set-up is sampled at two moments of the drift.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_child(argv: list[str], t0_ns: int | None = None) -> dict:
    """Run worker.py to completion and parse its JSON line."""
    command = [sys.executable, str(HERE / "worker.py"), *argv]
    if t0_ns is not None:
        command += ["--t0-ns", str(t0_ns)]
    try:
        done = subprocess.run(
            command,
            env=_child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[:2]} timed out") from None
    if done.returncode != 0:
        raise BenchError(f"worker {argv[:2]} failed:\n{done.stderr.strip()}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {argv[:2]} printed no result") from None


def _probe_setup(workload: str, work: Path, block: int) -> list[tuple[float, bool]]:
    """Set-up seconds of fresh interpreters, each with its oracle verdict.

    The probes of one block run on one vCPU and the next block's on the
    next, as the measured run's blocks do (see worker.pin_block).
    """
    allowed = os.sched_getaffinity(0)
    probes = []
    try:
        os.sched_setaffinity(0, {sorted(allowed)[block % len(allowed)]})
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic_ns()
            result = _run_child(["probe", workload, "--work", str(work)], t0_ns=t0)
            probes.append((result["setup_ns"] / 1e9, result["ok"]))
    finally:
        os.sched_setaffinity(0, allowed)
    return probes


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least 10 values beyond it, or the maximum if there are fewer values."""
    values = sorted(latency_ms)
    rank = len(values) - 10 if len(values) > 10 else len(values)
    return 100.0 * rank / len(values), values[rank - 1]


def _blocks(latency_ms: list[float], size: int) -> list[list[float]]:
    """Consecutive full blocks; a run too short for one is one short block."""
    full = len(latency_ms) // size
    if full == 0:
        return [latency_ms]
    return [latency_ms[k * size : (k + 1) * size] for k in range(full)]


def block_stats(latency_ms: list[float], failed: set[int], size: int) -> dict:
    """Metrics of the block with the lowest median.

    Only verified ops count toward ``ops_per_s``; a failed op still took
    its time, so the block's busy time includes it.
    """
    blocks = _blocks(latency_ms, size)
    medians = [statistics.median(block) for block in blocks]
    best = medians.index(min(medians))
    start = best * size
    ops = blocks[best]
    verified = sum(1 for i in range(start, start + len(ops)) if i not in failed)
    return {
        "ops_per_s": verified / (sum(ops) / 1e3),
        "latency_p50_ms": medians[best],
        "block_medians_ms": medians,
    }


def _layer_metrics(child: dict, latency_ms: list[float], size: int) -> dict:
    layers = child["layers"]
    ops = max(layers["ops"], 1)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = layers["calls"][name] / ops
        metrics[f"{name}.self_ms"] = layers["self_ns"][name] / ops / 1e6
    measured = layers["calls"]["qstate.measure_pair"]
    metrics["qstate.measure_pair.kept_ratio"] = (
        layers["kept_outcomes"] / (4 * measured) if measured else 0.0
    )
    plays = layers["calls"]["repeated10.play_sequential"]
    metrics["cli.compare_protocols.profiles_per_play"] = (
        child["profiles_checked"] / plays if plays else 0.0
    )
    metrics["unattributed.self_ms"] = layers["self_ns"]["op"] / ops / 1e6
    blocks = _blocks(latency_ms, size)
    untraced = [statistics.median(b) for b in blocks[0::2]]
    traced = [statistics.median(b) for b in blocks[1::2]]
    metrics["trace.overhead_pct"] = (
        100.0 * (min(traced) / min(untraced) - 1.0) if traced and untraced else 0.0
    )
    return metrics


def _check_names(emitted: dict[str, str], key: str) -> None:
    """The metric names and units must be exactly those in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[key]}
    if declared != emitted:
        raise BenchError(f"metrics differ from BENCHMARK.json {key}: {emitted} vs {declared}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: inputs, set-up probes, the measured child, probes again.

    A traced run has no probes: its metrics are per layer only.
    """
    size = BLOCK_OPS[workload]
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    probes = []
    try:
        _run_child(["prepare", workload, "--work", str(work), "--seed", str(seed)])
        if not trace:
            probes += _probe_setup(workload, work, 0)
        child = _run_child(
            [
                "measure", workload,
                "--work", str(work),
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--block-ops", str(size),
                "--trace", str(int(trace)),
            ]
        )
        if not trace:
            probes += _probe_setup(workload, work, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latency_ms = [ns / 1e6 for ns in child["latency_ns"]]
    failed_ops = set(child["failed"])
    setup = [seconds for seconds, _ in probes]
    attempted = len(latency_ms) + len(probes)
    failed = len(failed_ops) + sum(1 for _, ok in probes if not ok)
    stats = block_stats(latency_ms, failed_ops, size)
    if trace:
        metrics = _layer_metrics(child, latency_ms, size)
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": stats["ops_per_s"],
            "latency_p50_ms": stats["latency_p50_ms"],
            "setup_s": min(
                statistics.median(setup[:SETUP_PROBES]),
                statistics.median(setup[SETUP_PROBES:]),
            ),
            "peak_rss_mb": child["rss_kb"] / 1024.0,
        }
        units = END_TO_END
    tail_pct, tail_ms = tail(latency_ms)
    return {
        "correct": failed == 0 and not child["self_check"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "diagnostics": {
            "workload": workload,
            "seed": seed,
            "ops": len(latency_ms),
            "block_ops": size,
            "fail_share": failed / attempted,
            "tail_percentile": tail_pct,
            "latency_tail_ms": tail_ms,
            "whole_run_p50_ms": statistics.median(latency_ms),
            "block_medians_ms": [round(m, 3) for m in stats["block_medians_ms"]],
            "setup_probes_s": [round(s, 4) for s in setup],
            "self_check": child["self_check"],
            "errors": child["errors"],
        },
    }


def _print_report(result: dict) -> None:
    diag = result["diagnostics"]
    print(
        f"# {diag['workload']} seed={diag['seed']} ops={diag['ops']} "
        f"block={diag['block_ops']} ops"
    )
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows.append(("fail_share", diag["fail_share"], "fraction"))
    tail_name = f"latency_tail_ms (whole run, p{diag['tail_percentile']:.4g})"
    rows.append((tail_name, diag["latency_tail_ms"], "ms"))
    for name, value, unit in rows:
        print(f"#   {name:<48} {value:>14.6g} {unit}")
    keys = ("whole_run_p50_ms", "block_medians_ms", "setup_probes_s", "self_check", "errors")
    print(f"#   diagnostics {json.dumps({k: diag[k] for k in keys})}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=20261018)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if not (ROOT / "src" / "qrgames").is_dir():
            raise BenchError(f"no qrgames sources under {ROOT / 'src'}")
        _check_names(
            PER_LAYER if args.trace else END_TO_END,
            "per_layer" if args.trace else "end_to_end",
        )
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_report(results[name])
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for result in results.values():
        del result["diagnostics"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
