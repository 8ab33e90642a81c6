"""One workload in one fresh process: build inputs, warm up, run repetitions
back to back for a fixed time, check every output, print one JSON line.

Started by run.py with every thread pool pinned to one thread. With
--setup-only it stops once the inputs are built and prints the
perf_counter reading at that moment, which run.py turns into setup_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Thread pools pinned to one thread; each must be "1" before numpy is imported.
THREAD_VARS = ("NMFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Operations are timed back to back in segments of at least this many seconds,
# each bracketed by host-speed probes (see hostspeed.py).
SEGMENT_S = 0.1


def run_ops(ops, speed, failures: list[str]) -> tuple[float, float, list]:
    """Run the operations back to back; returns their total raw seconds, their
    total host-speed-scaled seconds and their results. An exception marks
    that operation failed and becomes its result."""
    results = []
    raw_total = scaled_total = segment = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            results.append(op.fn())
        except Exception as exc:  # a failed operation is counted, the run goes on
            results.append(exc)
            failures.append(f"{op.label}: {''.join(traceback.format_exception_only(exc)).strip()}")
        raw = time.perf_counter() - start
        raw_total += raw
        segment += raw
        if segment >= SEGMENT_S:
            scaled_total += speed.scale(segment)
            segment = 0.0
    if segment:
        scaled_total += speed.scale(segment)
    return raw_total, scaled_total, results


def check_ops(ops, results, errors: list[str]) -> int:
    """Check every result that is not an exception; returns the number that failed."""
    failed = 0
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            failed += 1
        else:
            errors.extend(op.check(res))
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; required without --setup-only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker: {', '.join(unpinned)} must be 1 before numpy is imported",
              file=sys.stderr)
        return 2

    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed % 2 ** 64)
    if args.setup_only:
        print(repr(time.perf_counter()))
        workload.close()
        return 0

    speed = HostSpeed()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    errors: list[str] = []
    failures: list[str] = []
    attempted = failed = 0
    walls: list[float] = []
    raw_walls: list[float] = []
    traced_walls: list[float] = []
    try:
        ops = workload.warmup()
        _, _, results = run_ops(ops, speed, failures)
        attempted += len(ops)
        failed += check_ops(ops, results, errors)

        rep = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            rep += 1
            ops = workload.repetition(rep)
            traced = tracer is not None and rep % 2 == 0
            if traced:
                tracer.install()
            try:
                raw, scaled, results = run_ops(ops, speed, failures)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(scaled)
            else:
                walls.append(scaled)
                raw_walls.append(raw)
            attempted += len(ops)
            failed += check_ops(ops, results, errors)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ops = workload.finish()
        _, _, results = run_ops(ops, speed, failures)
        attempted += len(ops)
        failed += check_ops(ops, results, errors)
    finally:
        workload.close()

    for line in failures + errors:
        print(f"worker: {line}", file=sys.stderr)
    if tracer is not None:
        if not traced_walls:
            print("worker: the run was too short for a traced repetition", file=sys.stderr)
            return 1
        untraced = statistics.median(walls)
        metrics = tracer.per_repetition(len(traced_walls),
                                        statistics.median(traced_walls) - untraced, untraced)
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "walls": walls, "raw_walls": raw_walls,
                      "traced_walls": traced_walls, "probes": speed.probes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
