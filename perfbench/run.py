"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload haar_scan --seed 1 --seconds 25 --trace 0

Runs from the root of an nmflow checkout and uses the sources under src/.
The workload runs in a fresh worker process (worker.py) with every thread
pool pinned to one thread. With --trace 0, SETUP_STARTS further cold starts
give setup_s (their median, scaled by the run's median host-speed probe; see
hostspeed.py), and the last line of standard output holds setup_s, wall_s and
peak_rss_mb; with --trace 1 it holds the per-layer metrics of tracer.py and
the tracing overhead instead. Exits 1 when an output check fails and 2 when
the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("haar_scan", "optimize", "cli_landmarks")
SETUP_STARTS = 7
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def cold_start(args, env) -> float:
    """Seconds from launching a fresh interpreter until its inputs are built."""
    start = time.perf_counter()
    proc = subprocess.run(worker_cmd(args, "--setup-only"), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nmflow" / "__init__.py").is_file():
        print(f"run.py: no nmflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update({v: "1" for v in THREAD_VARS})
    from hostspeed import REFERENCE_S, HostSpeed

    env = dict(os.environ)
    setups: list[float] = []
    try:
        proc = subprocess.run(worker_cmd(args, "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)),
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            speed = HostSpeed()
            for _ in range(SETUP_STARTS):
                setups.append(cold_start(args, env))
                speed.probes.append(speed.probe())
            host = statistics.median(result["probes"] + speed.probes)
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups) * REFERENCE_S / host, "unit": "s"}
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    walls, raw = result.pop("walls"), result.pop("raw_walls")
    traced, probes = result.pop("traced_walls"), result.pop("probes")
    print(f"repetitions: {len(walls)} untraced, {len(traced)} traced; untraced seconds "
          f"scaled min/median/max {min(walls):.4f}/{statistics.median(walls):.4f}/"
          f"{max(walls):.4f}, raw {min(raw):.4f}/{statistics.median(raw):.4f}/{max(raw):.4f}; "
          f"probe median {statistics.median(probes):.5f} s"
          + (f"; cold starts raw {' '.join(f'{x:.3f}' for x in setups)} s" if setups else ""))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
