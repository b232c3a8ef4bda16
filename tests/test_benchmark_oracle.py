"""The benchmark's own output checks, run on a small job list of each workload.

``perfbench/workloads.py`` draws the seeded jobs that ``perfbench/run.py``
times, and its ``CHECKS`` judge each job's output against the generating
truth or an independent closed form.  Running every job of both workloads
once, at 5% of the benchmark's counts, makes a program change that breaks a
benchmark job fail the test suite too.  The module is loaded read-only from
its file; nothing under ``perfbench/`` is written.
"""
import importlib.util
import os
import sys

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("seed", [90210, 101])
@pytest.mark.parametrize("workload", ["fit-io", "ode-field"])
def test_every_job_passes_its_check(workloads, workload, seed, tmp_path):
    jobs = workloads.generate(workload, seed, str(tmp_path), scale=0.05)
    assert {job.kind for job in jobs} >= ({"fit", "cli"} if workload == "fit-io"
                                          else {"march", "roots", "compete"})
    wrong = []
    for index, job in enumerate(jobs):
        problem = workloads.CHECKS[job.kind](job.args, workloads.RUNNERS[job.kind](job.args))
        if problem is not None:
            wrong.append(f"job {index} ({job.kind}): {problem}")
    assert wrong == []
