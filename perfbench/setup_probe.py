"""Set-up probe: one fresh process imports growthdyn and runs one warm-up job.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds from before ``import growthdyn`` to the end of the
warm-up job, so lazy imports and first-call costs land in set-up time.
Exits 1 if the warm-up output fails its check.
"""
import time

_t0 = time.perf_counter()

import sys  # noqa: E402

import growthdyn  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    job = workloads.warmup_job(sys.argv[1])
    out = workloads.RUNNERS[job.kind](job.args)
    elapsed = time.perf_counter() - _t0
    problem = workloads.CHECKS[job.kind](job.args, out)
    if problem:
        print(f"warm-up job failed its check: {problem}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
