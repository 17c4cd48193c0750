"""Child process of the benchmark: one measured run, or one set-up probe.

``run.py`` starts this script with BLAS pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``; it prints one JSON line.

    worker.py prepare WORKLOAD --seed N --work DIR
    worker.py probe WORKLOAD --work DIR --t0-ns T
    worker.py measure WORKLOAD --seed N --seconds S --block-ops B --trace 0|1 --work DIR

``prepare`` writes the seeded input pool.  ``measure`` feeds the oracle
one good output and deliberately wrong copies of it (each must fail),
runs one op per pool item as warm-up, then runs the closed loop for S
seconds.  With ``--trace 1``, blocks of B ops alternate untraced and
traced.  ``probe`` is a fresh interpreter
that imports the package and runs the first op cold; T is the parent's
``time.monotonic_ns()`` just before it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads

CPUS = sorted(os.sched_getaffinity(0))


def pin_block(block: int) -> None:
    """Run each pair of consecutive blocks on the next vCPU in turn.

    Each vCPU of a shared host drifts between a fast and a slow state on
    its own, so spreading blocks over the vCPUs gives the least-interfered
    block more chances to be a fast one.  Pairs keep a traced block and
    its untraced neighbour on the same vCPU.
    """
    try:
        os.sched_setaffinity(0, {CPUS[(block // 2) % len(CPUS)]})
    except OSError:
        pass


def _checked(workload, item, output, rng) -> bool:
    try:
        return bool(workload.check(item, output, rng))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def _self_check(workload, item, output, rng) -> list[str]:
    """Problems found when the oracle is fed known-good and known-bad outputs."""
    problems = []
    if not _checked(workload, item, output, rng):
        problems.append("warm-up output failed its oracle")
    for label, wrong in workload.corruptions(output):
        if _checked(workload, item, wrong, rng):
            problems.append(f"oracle accepted a {label}")
    return problems


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    items = [workload.load(work, i) for i in range(workload.pool_size)]
    rng = np.random.default_rng(args.seed)
    sample = workload.self_check_item(work)
    problems = _self_check(workload, sample, workload.op(sample), rng)
    for index, item in enumerate(items):
        if not _checked(workload, item, workload.op(item), rng):
            problems.append(f"warm-up op on pool item {index} failed its oracle")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    latency_ns, failed, errors = [], [], []
    profiles_checked = 0
    clock = time.perf_counter_ns
    deadline = clock() + int(args.seconds * 1e9)
    n = 0
    while clock() < deadline:
        if n % args.block_ops == 0:
            pin_block(n // args.block_ops)
        item = items[n % len(items)]
        traced = tracer is not None and (n // args.block_ops) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op(n)
        start = clock()
        try:
            output = workload.op(item)
        except Exception as err:  # a failed op is counted, not fatal
            output = err
        elapsed = clock() - start
        if traced:
            tracer.end_op()
            tracer.uninstall()
        latency_ns.append(elapsed)
        if isinstance(output, Exception):
            failed.append(n)
            errors.append(f"op {n}: {type(output).__name__}: {output}")
        elif not _checked(workload, item, output, rng):
            failed.append(n)
            errors.append(f"op {n}: output failed its oracle")
        elif traced:
            profiles_checked += workload.profiles_checked(output)
        n += 1

    result = {
        "latency_ns": latency_ns,
        "failed": failed,
        "errors": errors[:5],
        "self_check": problems,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "profiles_checked": profiles_checked,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.save(work.parent / f"spans-{args.workload}.npz")
    return result


def probe(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    item = workload.load(work, 0)
    output = workload.op(item)
    setup_ns = time.monotonic_ns() - args.t0_ns
    rng = np.random.default_rng(0)
    return {"setup_ns": setup_ns, "ok": _checked(workload, item, output, rng)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "probe", "measure"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--block-ops", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "prepare":
        workloads.WORKLOADS[args.workload].prepare(args.seed, Path(args.work))
        result = {}
    else:
        result = measure(args) if args.mode == "measure" else probe(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
