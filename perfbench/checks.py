"""Run only the benchmark's output checks, once per workload, without timing.

    python3 perfbench/checks.py [--seed N] [--workload NAME ...]

For each workload this runs the warm-up operations, one repetition and the
closing operations, checks every output against reference.py or a property
the method must have, and prints one line per workload. Exits 1 if any
check fails or any operation raises. Takes about 20 s, most of it the
2000-state landmark scan of haar_scan.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from worker import THREAD_VARS

os.environ.update({var: "1" for var in THREAD_VARS})

from workloads import WORKLOADS  # noqa: E402  (thread settings must come first)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=24)
    parser.add_argument("--workload", nargs="*", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for name in args.workload:
        start = time.perf_counter()
        workload = WORKLOADS[name](args.seed)
        errors = []
        try:
            ops = workload.warmup() + workload.repetition(1) + workload.finish()
            for op in ops:
                try:
                    result = op.fn()
                except Exception as exc:  # report every failing operation, not just the first
                    errors.append(f"{op.label}: raised {exc!r}")
                    continue
                errors += op.check(result)
        finally:
            workload.close()
        ok = ok and not errors
        print(f"{name}: {len(ops)} operations, {'PASS' if not errors else 'FAIL'} "
              f"({time.perf_counter() - start:.1f} s)")
        for line in errors:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
